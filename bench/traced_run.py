"""One traced in-process run of a workload config (a child of ``run.py``).

Usage: python bench/traced_run.py <job.json>

The job names the workload, its config file, the output directory, the sweep
axes (a sweep runs serially, since spans from pool workers are not collected)
and where to write the spans.  Prints the per-layer metrics as one JSON line.
Needs ``src`` on PYTHONPATH.
"""

import json
import sys
import time
from pathlib import Path

from tracing import Tracer


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    start = time.perf_counter()
    import oscnet.cli as cli

    import_s = time.perf_counter() - start
    config = json.loads(Path(job["config"]).read_text())
    tracer = Tracer(job["workload_id"])
    tracer.install()
    start = time.perf_counter()
    try:
        if job["axes"]:
            axes = [cli._parse_axis(a) for a in job["axes"]]
            cli.run_sweep(config, axes, Path(job["out"]), serial=True)
        else:
            cli.run_config(config, Path(job["out"]))
    finally:
        run_s = time.perf_counter() - start
        tracer.uninstall()
        tracer.write_spans(job["spans"])
    result = {
        "import_s": import_s,
        "run_s": run_s,
        "missing_spans": tracer.missing_spans(job["workload"]),
        "metrics": tracer.layer_metrics(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
