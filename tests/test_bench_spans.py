"""Every span the benchmark requires fires on each smoke-sized workload.

``bench/tracing.py`` names the library functions each workload must call
(``EXPECTED_SPANS``); a run that never reaches one fails the benchmark.  This
runs each ``bench/workloads.py`` smoke config in process under the tracer,
as ``bench/traced_run.py`` does, so a change that stops calling a required
function fails here too.  The benchmark's modules are imported, not changed.
"""

import importlib
from pathlib import Path

import pytest

import oscnet.cli as cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("tracing"), importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["big_network", "ring_wigner", "oracle_check", "size_sweep"])
def test_required_spans_fire(bench, name, tmp_path):
    tracing, workloads = bench
    for module, _ in tracing.TARGETS:
        importlib.import_module(f"oscnet.{module}")
    workload = workloads.generate(name, workloads.DEFAULT_SEED, smoke=True)
    tracer = tracing.Tracer(f"{name}:smoke")
    tracer.install()
    try:
        if workload.axes:
            axes = [cli._parse_axis(axis) for axis in workload.axes]
            cli.run_sweep(workload.config, axes, tmp_path, serial=True)
        else:
            cli.run_config(workload.config, tmp_path)
    finally:
        tracer.uninstall()
    assert tracer.missing_spans(name) == []


def test_every_smoke_workload_is_covered(bench):
    _, workloads = bench
    assert set(workloads.SMOKE_SIZES) == {"big_network", "ring_wigner", "oracle_check", "size_sweep"}
