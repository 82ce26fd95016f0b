"""oscnet benchmark: seeded workloads through the real CLI, one process at a time.

    python3 bench/run.py --workload big_network --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --smoke
    python3 bench/run.py --record --workload ring_wigner --seed 3

A run writes the workload's config (generated from ``--seed``), measures
``setup_s`` with fresh interpreters that import oscnet and parse the config,
then invokes ``python -m oscnet run|sweep`` back to back for ``--seconds``
(a closed loop with a single client) and gates every invocation's artifacts.
``--trace 1`` adds one traced in-process run in a fresh interpreter and
reports per-layer metrics instead of end-to-end ones.  The last line of
standard output is one JSON object; the exit code is 0 only when every
program run passed the gate.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gate
from tracing import COMPUTED_COUNTS
from workloads import DEFAULT_SEED, SECOND_SEED, WORKLOADS, generate

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "bench" / ".work"

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
SETUP_PROBES = 5
# Every run must end well inside the 180 s a run is allowed.
DEADLINE_S = 165.0
SETUP_CODE = (
    "import json, sys\n"
    "import oscnet.cli as cli\n"
    "with open(sys.argv[1]) as f:\n"
    "    cli.parse_config(json.load(f))\n"
)
EXPECTED_ARTIFACTS = {
    "big_network": ("tau_report.json", "dcoef.csv", "entropy_curve.csv"),
    "ring_wigner": ("tau_report.json", "entropy_curve.csv", "wigner_grid.csv"),
    "oracle_check": ("oracle_compare.csv",),
    "size_sweep": ("sweep.csv",),
}
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here (for example, no program source)."""


@dataclass
class Process:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    status: int
    output: str


@dataclass
class Tally:
    attempted: int = 0
    failures: list = field(default_factory=list)  # one list of messages per failed run

    def add(self, what: str, messages: list):
        self.attempted += 1
        if messages:
            self.failures.append([f"{what}: {m}" for m in messages])

    @property
    def failed(self) -> int:
        return len(self.failures)


def child_env() -> dict:
    """The caller's environment, with the program's source on PYTHONPATH.

    No thread variable is set or changed: the benchmark measures the
    machine's default BLAS threading (see README.md).
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def run_process(argv, log: Path, deadline: float) -> Process:
    """Run one child to exit; wall from spawn to exit, CPU and peak RSS from wait4.

    wait4 reports the child's usage together with every descendant it
    waited for (pool workers), and the largest resident set among them.
    """
    remaining = deadline - time.perf_counter()
    if remaining <= 0:
        return Process(0.0, 0.0, 0.0, -1, "not started: run deadline reached")
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(remaining, os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    # Reaped by wait4 already; recording the status stops Popen reaping again.
    proc.returncode = os.waitstatus_to_exitcode(status)
    text = log.read_text(errors="replace")
    return Process(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        status=proc.returncode,
        output=text[-2000:],
    )


def _exit_failure(proc: Process) -> list:
    if proc.status == 0:
        return []
    tail = proc.output.strip().splitlines()[-1:] or ["(no output)"]
    return [f"exit status {proc.status}: {tail[0]}"]


# ---------------------------------------------------------------------------
# Environment record


def _git_commit() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown (not a git checkout)"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return top[1]


def environment() -> dict:
    import numpy
    import scipy

    try:
        deps = numpy.show_config(mode="dicts").get("Build Dependencies", {})
    except TypeError:  # numpy < 1.26 has no dict mode
        deps = {}
    return {
        "git_commit": _git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": deps.get("blas", "unavailable"),
        "lapack": deps.get("lapack", "unavailable"),
        "thread_variables": {v: os.environ.get(v, "unset") for v in THREAD_VARIABLES},
        "nproc": os.cpu_count(),
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "mem_total_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**20,
    }


# ---------------------------------------------------------------------------
# One benchmark run


@dataclass
class Context:
    name: str
    seed: int
    smoke: bool
    workload: object
    work: Path
    config_path: Path
    reference: object
    deadline: float
    tally: Tally = field(default_factory=Tally)

    @property
    def workload_id(self) -> str:
        return f"{self.name}:seed{self.seed}" + (":smoke" if self.smoke else "")


def prepare(name: str, seed: int, smoke: bool) -> Context:
    if not (SRC / "oscnet" / "__init__.py").is_file():
        raise BenchError(f"no program source at {SRC.relative_to(ROOT)}/oscnet")
    workload = generate(name, seed, smoke)
    work = WORK / (f"{name}-{seed}" + ("-smoke" if smoke else ""))
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config, indent=1) + "\n")
    return Context(
        name=name,
        seed=seed,
        smoke=smoke,
        workload=workload,
        work=work,
        config_path=config_path,
        reference=gate.load_reference(name, seed, smoke),
        deadline=time.perf_counter() + DEADLINE_S,
    )


def cli_argv(ctx: Context, out_dir: Path, serial: bool = False) -> list:
    argv = [sys.executable, "-m", "oscnet", ctx.workload.verb, str(ctx.config_path)]
    argv += ["--out", str(out_dir)]
    for axis in ctx.workload.axes:
        argv += ["--axis", axis]
    if serial and ctx.workload.verb == "sweep":
        argv.append("--serial")
    return argv


def invoke(ctx: Context, out_dir: Path, serial: bool = False) -> tuple:
    """One CLI invocation into a fresh output directory; returns (process, failures)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    proc = run_process(cli_argv(ctx, out_dir, serial), ctx.work / "cli.log", ctx.deadline)
    failures = _exit_failure(proc)
    if not failures:
        missing = [a for a in EXPECTED_ARTIFACTS[ctx.name] if not (out_dir / a).exists()]
        failures = [f"artifact {a} not written" for a in missing]
    if not failures:
        failures = gate.check_run(ctx.name, ctx.workload.config, out_dir, ctx.reference)
    return proc, failures


def setup_probe(ctx: Context) -> Process:
    argv = [sys.executable, "-c", SETUP_CODE, str(ctx.config_path)]
    proc = run_process(argv, ctx.work / "setup.log", ctx.deadline)
    ctx.tally.add("setup probe", _exit_failure(proc))
    return proc


def traced_run(ctx: Context) -> tuple:
    """The traced in-process run in a fresh interpreter; returns (process, result)."""
    out_dir = ctx.work / "traced"
    shutil.rmtree(out_dir, ignore_errors=True)
    job = {
        "workload": ctx.name,
        "workload_id": ctx.workload_id,
        "config": str(ctx.config_path),
        "out": str(out_dir),
        "axes": list(ctx.workload.axes),
        "spans": str(ctx.work / "spans.jsonl"),
    }
    job_path = ctx.work / "traced_job.json"
    job_path.write_text(json.dumps(job))
    log = ctx.work / "traced.log"
    argv = [sys.executable, str(Path(__file__).with_name("traced_run.py")), str(job_path)]
    proc = run_process(argv, log, ctx.deadline)
    failures = _exit_failure(proc)
    result = None
    if not failures:
        result = json.loads(log.read_text().strip().splitlines()[-1])
        failures = [f"span {s} never fired" for s in result["missing_spans"]]
        failures += gate.check_run(ctx.name, ctx.workload.config, out_dir, ctx.reference)
    ctx.tally.add("traced run", failures)
    return proc, result


def measure(ctx: Context, seconds: float, trace: bool) -> dict:
    """Run the closed loop (and the traced run when needed); return every figure."""
    setup = [setup_probe(ctx) for _ in range(SETUP_PROBES)]
    out_dir = ctx.work / "out"
    runs = []
    checks = []  # gate failures per invocation
    pooled_csvs = []
    start = time.perf_counter()
    while not runs or (time.perf_counter() - start < seconds and time.perf_counter() < ctx.deadline):
        proc, failures = invoke(ctx, out_dir)
        runs.append(proc)
        checks.append(failures)
        sweep_csv = out_dir / "sweep.csv"
        pooled_csvs.append(sweep_csv.read_bytes() if sweep_csv.exists() else None)

    traced = untraced_serial = None
    if trace or ctx.workload.verb == "sweep":
        traced = traced_run(ctx)
    if ctx.workload.verb == "sweep":
        serial_csv = ctx.work / "traced" / "sweep.csv"
        serial_bytes = serial_csv.read_bytes() if serial_csv.exists() else None
        for failures, pooled in zip(checks, pooled_csvs):
            if not failures:
                failures += gate.check_sweep_identity(pooled, serial_bytes)
        if trace:
            untraced_serial, failures = invoke(ctx, ctx.work / "serial", serial=True)
            ctx.tally.add("serial invocation", failures)
    for i, failures in enumerate(checks):
        ctx.tally.add(f"invocation {i + 1}", failures)

    samples = {
        "wall_s": [p.wall_s for p in runs],
        "setup_s": [p.wall_s for p in setup],
        "cpu_s": [p.cpu_s for p in runs],
        "peak_rss_mb": [p.peak_rss_mb for p in runs],
    }
    e2e = {name: statistics.median(values) for name, values in samples.items()}
    layers = None
    if trace and traced[1] is not None:
        proc, result = traced
        layers = dict(result["metrics"])
        layers["setup.import_s"] = result["import_s"]
        baseline = untraced_serial.wall_s if untraced_serial is not None else e2e["wall_s"]
        layers["trace.overhead_s"] = proc.wall_s - baseline
        # Serial traced sweep time over pooled untraced time; 0 when no sweep ran.
        layers["cli.sweep.pool_speedup"] = (
            result["run_s"] / e2e["wall_s"] if ctx.workload.verb == "sweep" else 0.0
        )
    return {"e2e": e2e, "samples": samples, "layers": layers}


# ---------------------------------------------------------------------------
# Reporting


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("pool_speedup"):
        return "ratio"
    return "count"


def print_report(ctx: Context, figures: dict, env: dict):
    print(f"env {json.dumps(env, sort_keys=True)}")
    print(
        f"workload {ctx.name} seed {ctx.seed} (default {DEFAULT_SEED}, second {SECOND_SEED})"
        f"{' smoke' if ctx.smoke else ''}: reference "
        f"{'recorded' if ctx.reference is not None else 'not recorded for this seed'}"
    )
    for name, value in figures["e2e"].items():
        print(f"  {name:<12} {value:12.6g} {E2E_UNITS[name]:<6} median of {len(figures['samples'][name])}")
    tally = ctx.tally
    print(f"  {'fail_ratio':<12} {tally.failed / tally.attempted:12.6g} {'ratio':<6} {tally.failed} of {tally.attempted} program runs")
    for messages in tally.failures:
        for message in messages:
            print(f"  FAIL {message}")
    if figures["layers"] is not None:
        for name, value in sorted(figures["layers"].items()):
            label = " (computed)" if name in COMPUTED_COUNTS else ""
            print(f"  {name:<48} {value:14.6g} {layer_unit(name)}{label}")


def result_line(ctx: Context, figures: dict, trace: bool) -> dict:
    if trace:
        chosen = figures["layers"] or {}
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(chosen.items())}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in figures["e2e"].items()}
    return {
        "correct": ctx.tally.failed == 0,
        "attempted": ctx.tally.attempted,
        "failed": ctx.tally.failed,
        "metrics": metrics,
    }


# ---------------------------------------------------------------------------
# Modes


def bench(args) -> int:
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    env = environment()
    correct = True
    for name in names:
        ctx = prepare(name, args.seed, smoke=False)
        figures = measure(ctx, args.seconds, bool(args.trace))
        print_report(ctx, figures, env)
        line = result_line(ctx, figures, bool(args.trace))
        (ctx.work / "result.json").write_text(
            json.dumps({"env": env, "workload_id": ctx.workload_id, **figures, "result": line}, indent=1)
        )
        print(json.dumps(line))
        correct = correct and line["correct"]
    return 0 if correct else 1


def record(args) -> int:
    """Run the CLI once and store the artifact fingerprint as the reference."""
    ctx = prepare(args.workload, args.seed, args.smoke)
    ctx.reference = None
    out_dir = ctx.work / "out"
    proc, failures = invoke(ctx, out_dir, serial=True)
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    gate.record_reference(ctx.name, ctx.seed, ctx.smoke, out_dir)
    print(f"recorded {ctx.workload_id} ({proc.wall_s:.2f} s)")
    return 0


def _corrupt(name: str, out_dir: Path):
    """Damage one artifact the way a wrong program would."""
    if name == "big_network":
        path = out_dir / "tau_report.json"
        payload = json.loads(path.read_text())
        payload["tau_d"] = payload["tau_d"] * 1.5
        path.write_text(json.dumps(payload))
        return path
    if name == "oracle_check":
        path = out_dir / "oracle_compare.csv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",0.5"
    elif name == "ring_wigner":
        path = out_dir / "wigner_grid.csv"
        lines = path.read_text().splitlines()
        head, rest = lines[:3], lines[3:]
        lines = head + [
            row.rsplit(",", 1)[0] + "," + repr(1.01 * float(row.rsplit(",", 1)[1])) for row in rest
        ]
    else:
        path = out_dir / "sweep.csv"
        lines = path.read_text().splitlines()
        lines[-1] = lines[-1].rsplit(",", 1)[0] + ",1.0"
    path.write_text("\n".join(lines) + "\n")
    return path


def smoke(args) -> int:
    """Tiny sizes: every metric printed with its unit, and corrupted artifacts trip the gate."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    env = environment()
    for name in WORKLOADS:
        ctx = prepare(name, args.seed, smoke=True)
        figures = measure(ctx, 0.0, trace=True)
        print_report(ctx, figures, env)
        if ctx.tally.failed:
            problems.append(f"{name}: {ctx.tally.failed} of {ctx.tally.attempted} runs failed the gate")
            continue
        for mode, key in ((False, "end_to_end"), (True, "per_layer")):
            metrics = result_line(ctx, figures, mode)["metrics"]
            for entry in declared[key]:
                got = metrics.get(entry["name"])
                if got is None or got["unit"] != entry["unit"]:
                    problems.append(f"{name}: {key} metric {entry['name']} missing or not in {entry['unit']}")
        out_dir = ctx.work / "out"
        damaged = _corrupt(name, out_dir)
        if name == "size_sweep":
            serial = ctx.work / "traced" / "sweep.csv"
            caught = gate.check_sweep_identity(damaged.read_bytes(), serial.read_bytes())
        else:
            caught = gate.check_run(name, ctx.workload.config, out_dir, ctx.reference)
        print(f"  corrupted {damaged.name}: gate reports {caught[:1] or 'nothing'}")
        if not caught:
            problems.append(f"{name}: corrupted {damaged.name} passed the gate")
    for problem in problems:
        print(f"SMOKE FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problems")
    return 0 if not problems else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, all workloads")
    parser.add_argument("--record", action="store_true", help="store reference fingerprints")
    args = parser.parse_args(argv)
    try:
        if args.record:
            if args.workload in (None, "all"):
                parser.error("--record needs one --workload")
            return record(args)
        if args.smoke:
            return smoke(args)
        if args.workload is None:
            parser.error("--workload is required")
        return bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
