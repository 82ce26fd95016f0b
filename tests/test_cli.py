import cmath
import copy
import ctypes
import dataclasses
import functools
import importlib
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import cli, errors, metrics, phasespace, propagation
from oscnet.cli import canonical_json, config_hash, parse_config, run_config, run_sweep
from oscnet.errors import ConfigError, ValidationError


def _base_config(**overrides):
    config = {
        "network": {"n": 1, "omega": 1.0, "coupling": 0.0},
        "reservoirs": {
            "temperature": osc.temperature_for_occupation(0.5, 1.0),
            "profile": {"kind": "white", "gamma": 0.05},
        },
        "regime": "auto",
        "state": {"kind": "cat", "r": 1, "s": 0, "alpha": 1.0},
        "times": {"start": 0.0, "stop": 40.0, "steps": 50},
        "outputs": ["tau_report"],
    }
    config.update(overrides)
    return config


# A valid one-mode coherent branch: one component at amplitude 0.5.
_BRANCH = {"weight": 1.0, "components": [{"amplitude": 1.0, "beta": [0.5]}]}


def _set_leaf(config, path, value):
    """Set the dotted ``path`` of ``config`` to ``value``, adding missing parents."""
    *parents, key = path.split(".")
    for name in parents:
        config = config.setdefault(name, {})
    config[key] = value


def _run_cli(*args, flags=()):
    """``python [flags] -m oscnet args``, its output captured as text."""
    return subprocess.run(
        [sys.executable, *flags, "-m", "oscnet", *args], capture_output=True, text=True
    )


def _mapped_openblas():
    """Thread-count setters of the OpenBLAS libraries mapped into this process."""
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        return []
    setters = []
    for path in sorted({line.split()[-1] for line in maps if "openblas" in line}):
        try:
            setter = ctypes.CDLL(path).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
        setters.append(setter)
    return setters


def _thread_counts(setters):
    counts = []
    for setter in setters:
        count = setter(1)  # the setter returns the count it replaces
        setter(count)
        counts.append(count)
    return counts


class TestValidation:
    def test_good_config_accepted(self):
        parse_config(_base_config())

    def test_cat_block_overflow_names_field(self, tmp_path):
        config = _base_config(state={"kind": "cat", "r": 1, "s": 1, "alpha": 1.0})
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "state.r" in str(err.value)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(config))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == 2
        assert "state.r" in proc.stderr

    def test_unknown_output_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(_base_config(outputs=["nonsense"]))

    def test_missing_field_path_reported(self):
        config = _base_config()
        del config["network"]["omega"]
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "network.omega" in str(err.value)

    def test_roundtrip_idempotent(self):
        config = _base_config()
        text = canonical_json(config)
        again = canonical_json(json.loads(text))
        assert text == again
        assert config_hash(config) == config_hash(json.loads(text))

    def test_validate_cli_echoes_hash(self, tmp_path):
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(_base_config()))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == 0
        assert "config_hash" in proc.stdout

    def test_malformed_axis_names_field(self, tmp_path, capsys):
        # In process, so a RuntimeWarning on the way to the refusal fails too.
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()))
        out = tmp_path / "out"
        for spec in (
            "network.n=a:64:8",
            "times.stop=1:2:0",
            "times.stop=1:2:1000000000000000",  # 4.8e16 bytes of points
            "times.stop=1:inf:3",
            "times.stop=nan:1:2",
            "times.stop=1e308:-1e308:3",  # the span overflows
            "network.n=1:inf:2",
            "network.n=1:1e300:2",  # past the int64 range
        ):
            assert cli.main(["sweep", str(path), "--axis", spec, "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: --axis {spec.partition('=')[0]}: "), err
        assert not out.exists()

    def test_times_list_instead_of_object_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config(times=[0.0, 1.0])))
        for argv in (["validate"], ["run", "--out", str(tmp_path / "out")]):
            proc = _run_cli(argv[0], str(path), *argv[1:])
            assert proc.returncode == 2
            assert "times:" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_wigner_time_index_out_of_range_names_field(self, tmp_path):
        config = _base_config(outputs=["wigner_grid"])
        config["wigner_grid"] = {"points": 3, "time_index": 50}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = _run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "wigner_grid.time_index" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_non_numeric_times_list_entry_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config(times={"list": [0.0, "a", 2.0]})))
        proc = _run_cli("validate", str(path))
        assert proc.returncode == 2
        assert "times.list" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("verb", ["run", "sweep"])
    def test_one_time_refused_where_tau_int_scans(self, verb, tmp_path):
        # The cat's tau_int scans the times; sweep reports it whatever the outputs.
        outputs = ["tau_report"] if verb == "run" else ["dcoef"]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config(times={"list": [1.0]}, outputs=outputs)))
        out = tmp_path / "out"
        axis = ["--axis", "reservoirs.temperature=0.5:1.0:2"] if verb == "sweep" else []
        proc = _run_cli(verb, str(path), "--out", str(out), *axis)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("config error: times:")
        assert not out.exists()

    def test_one_time_runs_without_a_scan(self, tmp_path):
        # Curves alone scan nothing; a one-component state's tau_int is inf.
        curves = _base_config(times={"list": [1.0]}, outputs=["dcoef", "entropy_curve"])
        assert set(run_config(curves, tmp_path / "curves")) == {"dcoef", "entropy_curve"}
        single = _base_config(
            times={"list": [1.0]}, state={"kind": "coherent", "branches": [_BRANCH]}
        )
        run_config(single, tmp_path / "single")
        payload = json.loads((tmp_path / "single" / "tau_report.json").read_text())
        assert payload["tau_int"] == "inf"
        run_sweep(single, [], tmp_path / "sweep", serial=True)
        assert ",tau_int,inf" in (tmp_path / "sweep" / "sweep.csv").read_text()

    def test_non_integer_wigner_points_names_field(self, tmp_path):
        config = _base_config(outputs=["wigner_grid"])
        config["wigner_grid"] = {"points": "x"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = _run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 2
        assert "wigner_grid.points" in proc.stderr
        assert "Traceback" not in proc.stderr


    @pytest.mark.parametrize(
        "node, field",
        [
            ({"ranges": [[-1, 1]]}, "wigner_grid.ranges"),
            ({"ranges": [["-1", "1", "-1", "1"]]}, "wigner_grid.ranges"),
            ({"ranges": 3}, "wigner_grid.ranges"),
            ({"ranges": [[-1.0, float("nan"), -1.0, 1.0]]}, "wigner_grid.ranges"),
            ({"ranges": [[-1.0, 1.0, -1.0, float("inf")]]}, "wigner_grid.ranges"),
            ({"ranges": [[-1.0, 1.0, True, 1.0]]}, "wigner_grid.ranges"),
            ({"points": -1}, "wigner_grid.points"),
            ({"points": 0}, "wigner_grid.points"),
            ({"time_index": 50}, "wigner_grid.time_index"),
            ({"time_index": 1.0}, "wigner_grid.time_index"),
            ("grid", "wigner_grid"),
            ([], "wigner_grid"),
            ({"points": 100000}, "wigner_grid.points"),  # 2.4e11 bytes of grid
            ({"ranges": [[-2.0, 2.0, -2.0, 1e308]]}, "wigner_grid.ranges"),  # overflows
        ],
    )
    def test_malformed_wigner_grid_rejected_before_any_output(
        self, node, field, tmp_path, capsys
    ):
        config = _base_config(outputs=["tau_report", "entropy_curve", "wigner_grid"])
        config["wigner_grid"] = node
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith(f"config error: {field}: ")
        assert not out.exists()

    def test_wigner_grid_bytes_checked_only_when_requested(self, monkeypatch):
        # One mode: coords and values take 8 * 3 * points^2 bytes.  The one
        # limit lives in oscnet.errors; no module keeps a copy to patch.
        for module in (cli, phasespace, osc.oracle):
            assert not hasattr(module, "_BYTE_LIMIT"), module
        config = _base_config(outputs=["wigner_grid"], wigner_grid={"points": 10})
        monkeypatch.setattr(errors, "_BYTE_LIMIT", 8 * 3 * 10**2)
        parse_config(config)
        monkeypatch.setattr(errors, "_BYTE_LIMIT", 8 * 3 * 10**2 - 1)
        with pytest.raises(ConfigError) as info:
            parse_config(config)
        assert info.value.path == "wigner_grid.points"
        assert str(errors._BYTE_LIMIT) in info.value.message
        parse_config(dict(config, outputs=["tau_report", "entropy_curve"]))

    def test_network_size_bytes_checked(self, monkeypatch):
        # Ten modes: 16 complex 10 x 10 work arrays take 16 * 16 * 10^2 bytes.
        config = _base_config(network={"n": 10, "omega": 1.0, "coupling": 0.01})
        monkeypatch.setattr(errors, "_BYTE_LIMIT", 16 * 16 * 10**2)
        parse_config(config)
        assert cli._parse_axis("network.n=2:10:3")[1] == [2, 6, 10]
        monkeypatch.setattr(errors, "_BYTE_LIMIT", 16 * 16 * 10**2 - 1)
        with pytest.raises(ConfigError) as info:
            parse_config(config)
        assert info.value.path == "network.n"
        assert str(errors._BYTE_LIMIT) in info.value.message
        with pytest.raises(ConfigError) as info:
            cli._parse_axis("network.n=2:10:3")
        assert info.value.path == "--axis network.n"
        assert str(errors._BYTE_LIMIT) in info.value.message

    def test_component_count_bytes_checked(self, monkeypatch):
        # Three components: ten complex 3 x 3 work arrays take 10 * 16 * 3^2 bytes.
        # One branch of three is refused as that branch is built; branches of
        # two and one pass one by one and are refused together.
        component = _BRANCH["components"][0]
        one = [{"weight": 1.0, "components": [component] * 3}]
        two = [{"weight": 0.5, "components": [component] * k} for k in (2, 1)]
        for branches, path in ((one, "state.branches[0]"), (two, "state.branches")):
            config = _base_config(state={"kind": "coherent", "branches": branches})
            monkeypatch.setattr(errors, "_BYTE_LIMIT", 10 * 16 * 3**2)
            parse_config(config)
            monkeypatch.setattr(errors, "_BYTE_LIMIT", 10 * 16 * 3**2 - 1)
            with pytest.raises(ConfigError) as info:
                parse_config(config)
            assert info.value.path == path
            assert str(errors._BYTE_LIMIT) in info.value.message

    @pytest.mark.parametrize("n", [20000, 10**6])
    def test_oversized_network_refused_before_allocation(self, n, tmp_path, capsys):
        # A scalar omega and coupling stand for N and N x N arrays; at these
        # sizes numpy used to die allocating them (2.98 GiB at 20000).
        config = _base_config(network={"n": n, "omega": 1.0, "coupling": 0.0})
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error: network.n: ")
            assert f"above the limit of {errors._BYTE_LIMIT} bytes" in err
        assert not out.exists()
        small = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.0})
        path.write_text(json.dumps(small))
        argv = ["sweep", str(path), "--axis", f"network.n=2:{n}:2", "--out", str(out)]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --axis network.n: ")
        assert not out.exists()

    def test_astronomic_wigner_grid_refused_by_field(self, tmp_path, capsys):
        # 1100 modes pass the network check; a 100-point grid on them would
        # take about 10^4404 bytes, a count Python will not print in decimal.
        config = _base_config(
            network={"n": 1100, "omega": 1.0, "coupling": 0.0},
            outputs=["wigner_grid"],
            wigner_grid={"points": 100},
        )
        with pytest.raises(ConfigError) as info:
            parse_config(config)
        assert info.value.path == "wigner_grid.points"
        assert "would take about 10^4404 bytes" in info.value.message
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: wigner_grid.points: ")

    def test_astronomic_network_refused_by_field(self, tmp_path, capsys):
        # In process any int goes; a config file's integer of over 4 300
        # digits is refused by the JSON reader itself.
        config = _base_config(network={"n": 10**5000, "omega": 1.0, "coupling": 0.0})
        with pytest.raises(ConfigError) as info:
            parse_config(config)
        assert info.value.path == "network.n"
        assert "a network of about 10^5000 oscillators" in info.value.message
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()).replace('"n": 1', '"n": 1' + "0" * 5000))
        assert cli.main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith("config error: <file>: invalid JSON: ")

    @pytest.mark.parametrize(
        "node, field",
        [
            ({"n_max": "ten"}, "oracle.n_max"),
            ({"n_max": 2.7}, "oracle.n_max"),
            ({"n_max": 0}, "oracle.n_max"),
            ({"n_max": True}, "oracle.n_max"),
            ([1], "oracle"),
            ("big", "oracle"),
            ({"n_max": 3000}, "oracle.n_max"),  # a 1.15e9-byte generator working set
        ],
    )
    def test_malformed_oracle_rejected_before_any_output(self, node, field, tmp_path, capsys):
        config = _base_config(outputs=["tau_report", "oracle_compare"])
        config["oracle"] = node
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(path)], ["run", str(path), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            ("times.start", "zero"),
            ("times.stop", [40.0]),
            ("network.omega", ["x"]),
            ("network.omega", {"re": 1.0}),
            ("network.coupling", [["x"]]),
            ("reservoirs.temperature", "hot"),
            ("reservoirs.temperature", [[0.5], [0.5, 0.5]]),
            ("reservoirs.overlap", [["x"]]),
            ("state.r", "one"),
            ("state.s", [0]),
            ("state.sign", "minus"),
            # One policy for every field: JSON numbers only, never a string
            # or a bool, and JSON integers for the integer fields.
            ("network.omega", ["1.0", "1.05"]),
            ("network.omega", "1.0"),
            ("network.coupling", True),
            ("network.coupling", "0.01"),
            ("reservoirs.temperature", "0.5"),
            ("reservoirs.temperature", True),
            ("reservoirs.profile.gamma", "0.1"),
            ("reservoirs.profile.gamma", True),
            ("times.start", "0"),
            ("times.start", True),
            ("state.alpha", True),
            ("state.alpha", "1"),
            ("state.r", 1.9),
            ("state.r", "1"),
            ("state.r", True),
            ("state.sign", -1.5),
            ("times.steps", 5.0),
            ("wigner_grid.time_index", 1.0),
            ("wigner_grid.ranges", [[-1.0, 1.0, "-1", 1.0]]),
        ],
    )
    def test_non_numeric_field_named(self, path, value, tmp_path, capsys):
        config = _base_config()
        _set_leaf(config, path, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith(f"config error: {path}: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "path, value",
        [
            ("reservoirs.temperature", math.nan),
            ("reservoirs.temperature", [0.5, math.inf]),
            ("network.coupling", math.nan),
            ("network.omega", -math.inf),
            ("reservoirs.profile.gamma", math.nan),
            ("times.start", math.nan),
            ("times.stop", math.inf),
            ("state.alpha", math.nan),
            ("state.alpha", [0.5, math.inf]),
        ],
    )
    def test_non_finite_field_named(self, path, value, tmp_path, capsys):
        # json writes these as the NaN / Infinity literals Python's json reads.
        config = _base_config()
        _set_leaf(config, path, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert f"config error: {path}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "overrides, field",
        [
            ({"reservoirs": {"temperature": 0.5, "profile": 3}}, "reservoirs.profile"),
            ({"reservoirs": {"temperature": 0.5, "profile": "white"}}, "reservoirs.profile"),
            ({"outputs": 5}, "outputs"),
            ({"outputs": "tau_report"}, "outputs"),
            ({"times": {"list": [0.0, math.inf]}}, "times.list"),
            ({"times": {"list": 5}}, "times.list"),
            (
                {"state": {"kind": "coherent", "branches": [{**_BRANCH, "weight": math.nan}]}},
                "state.branches[0].weight",
            ),
            (
                # Two modes at n_max 200: a 2.1e11-byte oracle working set.
                {
                    "network": {"n": 2, "omega": [1.0, 1.02], "coupling": 0.1},
                    "oracle": {"n_max": 200},
                    "outputs": ["tau_report", "oracle_compare"],
                },
                "oracle.n_max",
            ),
            # An amplitude vector of norm past 1e4, or a coefficient past
            # 1e150, is refused before the overlaps square it.
            ({"state": {"kind": "cat", "alpha": 1e154}}, "state"),
            ({"state": {"kind": "cat", "alpha": 1e160}}, "state"),
            *(
                (
                    {"state": {"kind": "coherent", "branches": [{"components": [component]}]}},
                    "state.branches[0]",
                )
                for component in (
                    {"amplitude": 1.0, "beta": [1e160]},
                    {"amplitude": 1e160, "beta": [0.5]},
                    {"amplitude": 1.0, "beta": [[8000.0, 8000.0]]},  # modulus 11314
                )
            ),
            ({"state": {"kind": "cat", "alpha": 1.0001e4}}, "state"),
            # The span of the time grid overflows as it is built.
            ({"times": {"start": -1e308, "stop": 1e308, "steps": 3}}, "times"),
        ],
    )
    def test_malformed_node_named(self, overrides, field, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config(**overrides)))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {field}: ")
            # A size refusal names the one byte limit.
            assert "bytes" not in err or f"above the limit of {errors._BYTE_LIMIT} bytes" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "branches, field",
        [
            (3, "state.branches"),
            ([[1]], "state.branches[0]"),
            ([_BRANCH, "b"], "state.branches[1]"),
            ([{"components": 3}], "state.branches[0].components"),
            ([{**_BRANCH, "weight": "x"}], "state.branches[0].weight"),
            ([{**_BRANCH, "weight": [1.0]}], "state.branches[0].weight"),
            (
                [{"components": [{"amplitude": 1.0, "beta": 0.5}]}],
                "state.branches[0].components[0].beta",
            ),
        ],
    )
    def test_malformed_coherent_branch_named(self, branches, field, tmp_path, capsys):
        config = _base_config(state={"kind": "coherent", "branches": branches})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["no", "false", 1, None])
    def test_common_flag_must_be_boolean(self, value, tmp_path, capsys):
        config = _base_config()
        config["reservoirs"]["common"] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert "config error: reservoirs.common:" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_tau_report_values(self, tmp_path):
        config = _base_config()
        written = run_config(config, tmp_path)
        payload = json.loads((tmp_path / "tau_report.json").read_text())
        # independent evaluation of the threshold closed form
        gamma_eff, nbar, alpha2 = 0.05, 0.5, 1.0
        eps = 1.0 / (2 * alpha2 * (1 + 2 * nbar))
        tau_int = -math.log1p(-eps) / gamma_eff
        tau_diff = 1.0 / (2 * nbar * gamma_eff)
        assert_allclose(payload["tau_int"], tau_int, rtol=1e-7)
        assert_allclose(payload["tau_diff"], tau_diff, rtol=1e-12)
        assert_allclose(
            payload["tau_d"], 1.0 / (1.0 / tau_diff + 1.0 / tau_int), rtol=1e-7
        )
        assert payload["meta"]["config_hash"] == config_hash(config)
        assert "tau_report" in written

    def test_infinite_times_serialized(self, tmp_path):
        config = _base_config()
        config["reservoirs"]["temperature"] = 0.0
        run_config(config, tmp_path)
        payload = json.loads((tmp_path / "tau_report.json").read_text())
        assert payload["tau_diff"] == "inf"

    def test_dissipation_free_tau_int_serialized(self, tmp_path, capsys):
        # No damping: the gap never moves, so no grid could bracket a crossing.
        config = _base_config(
            network={"n": 2, "omega": [1.0, 1.02], "coupling": 0.1},
            reservoirs={"temperature": 0.0, "profile": {"kind": "white", "gamma": 0.0}},
            state={"kind": "cat", "r": 1, "s": 1, "alpha": 0.7},
            times={"start": 0.0, "stop": 4.0, "steps": 5},
        )
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        payload = json.loads((tmp_path / "out" / "tau_report.json").read_text())
        assert payload["tau_int"] == "inf" and payload["tau_d"] == "inf"

    def test_curve_outputs(self, tmp_path):
        config = _base_config(outputs=["dcoef", "entropy_curve"])
        run_config(config, tmp_path)
        dcoef = (tmp_path / "dcoef.csv").read_text().splitlines()
        assert dcoef[0].startswith("# oscnet")
        assert dcoef[1].startswith("# config_hash")
        assert dcoef[2] == "t,d1"
        assert len(dcoef) == 3 + 50
        first = dcoef[3].split(",")
        assert float(first[1]) == 1.0
        entropy = (tmp_path / "entropy_curve.csv").read_text().splitlines()
        assert len(entropy) == 3 + 50
        values = [float(line.split(",")[1]) for line in entropy[3:]]
        assert values[0] < 1e-10 and values[-1] > 0.1

    def test_curves_build_one_bundle_per_time(self, tmp_path, monkeypatch):
        times = []
        original = propagation.Propagator.bundle

        def counting(self, t):
            times.append(t)
            return original(self, t)

        monkeypatch.setattr(propagation.Propagator, "bundle", counting)
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.2},
            outputs=["dcoef", "entropy_curve"],
        )
        run_config(config, tmp_path)
        assert times == list(np.linspace(0.0, 40.0, 50))

    def test_wigner_grid_columns(self, tmp_path):
        config = _base_config(outputs=["wigner_grid"])
        config["wigner_grid"] = {"points": 7, "ranges": [[-2, 2, -2, 2]]}
        run_config(config, tmp_path)
        lines = (tmp_path / "wigner_grid.csv").read_text().splitlines()
        assert lines[2] == "re_xi1,im_xi1,wigner"
        assert len(lines) == 3 + 49

    @staticmethod
    def _row_path_bytes(config):
        # The Wigner table written row by row: every value of
        # ``np.column_stack(...).tolist()`` as its ``repr``.
        spec = parse_config(config)
        model = osc.build_model(spec.network, spec.reservoirs, spec.regime)
        node = config["wigner_grid"]
        bundle = model.propagator.bundle(spec.times[node.get("time_index", -1)])
        coords, values = osc.wigner_grid(spec.state, bundle, node["ranges"], node["points"])
        columns = []
        for m in range(spec.network.n):
            columns += [f"re_xi{m + 1}", f"im_xi{m + 1}"]
        columns.append("wigner")
        rows = np.column_stack([coords, values]).tolist()
        text = f"# oscnet {osc.__version__}\n# config_hash {config_hash(config)}\n"
        text += ",".join(columns) + "\n"
        text += "".join(",".join(map(repr, row)) + "\n" for row in rows)
        return text.encode()

    @pytest.mark.parametrize(
        "grid",
        [
            # Unequal per-mode ranges; the first axis passes through 0.0 and
            # the last ends at -0.0.
            {"n": 2, "points": 5, "ranges": [[-1, 1, -0.3, 2.7], [0.5, 4, -2.25, -0.0]]},
            {"n": 1, "points": 1, "ranges": [[-2, 2, -1.5, 1.5]]},
            {"n": 1, "points": 2, "ranges": [[-2, 2, -1.5, 1.5]]},
        ],
    )
    @pytest.mark.parametrize("block_rows", [None, 7])
    def test_wigner_csv_matches_row_path(self, tmp_path, monkeypatch, grid, block_rows):
        if block_rows is not None:
            # 7 rows per block puts block boundaries inside runs of every axis.
            monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", block_rows)
        config = _base_config(
            network={"n": grid["n"], "omega": 1.0, "coupling": 0.2},
            outputs=["wigner_grid"],
            wigner_grid={"points": grid["points"], "ranges": grid["ranges"]},
        )
        run_config(config, tmp_path)
        written = (tmp_path / "wigner_grid.csv").read_bytes()
        assert written == self._row_path_bytes(config)
        assert len(written.splitlines()) == 3 + grid["points"] ** (2 * grid["n"])
        if grid["n"] == 2:
            assert b"\n0.0," in written and b",-0.0," in written

    def test_oracle_compare(self, tmp_path):
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.2},
            state={"kind": "cat", "r": 1, "s": 0, "alpha": 0.7},
            times={"start": 0.0, "stop": 2.0, "steps": 3},
            outputs=["oracle_compare"],
        )
        config["oracle"] = {"n_max": 10}
        run_config(config, tmp_path)
        lines = (tmp_path / "oracle_compare.csv").read_text().splitlines()
        header = lines[2].split(",")
        assert header[0] == "t" and "max_chi_err" in header
        for line in lines[3:]:
            fields = dict(zip(header, map(float, line.split(","))))
            assert fields["max_chi_err"] < 1e-5
            assert fields["purity_err"] < 1e-4

    def test_deterministic_bytes(self, tmp_path, monkeypatch):
        # A small chunk budget splits the Wigner grid over many chunks, with a
        # short last one; the bytes must still depend on the config alone.
        monkeypatch.setattr(phasespace, "_CHUNK_BYTES", 4096)
        config = _base_config(
            outputs=["tau_report", "dcoef", "entropy_curve", "wigner_grid"]
        )
        run_config(config, tmp_path / "a")
        run_config(config, tmp_path / "b")
        for name in (
            "tau_report.json",
            "dcoef.csv",
            "entropy_curve.csv",
            "wigner_grid.csv",
        ):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_formatter_matches_earlier_one(self, tmp_path):
        def earlier(value):
            # The per-value formatter the tables were written with before.
            if isinstance(value, str):
                return value
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            value = float(value)
            return "inf" if math.isinf(value) else repr(value)

        # Every Python number and string a table row holds, but -inf: the
        # earlier formatter wrote it as "inf".
        text, numbers = "%r,%r,%r,%r,%r,%s,%r,%r\n", "%r,%r,%r,%r,%r,%r\n"
        cases = [
            ([1.5, -0.0, 0.0, 3, -7, "abc", math.inf, 1e-5], text),
            ([5e-324, 1e300, math.nan, 0.1 + 0.2, -2.5e-17, "", 2**70, -1], text),
            (np.array([-2.5, 0.125, math.inf, 1e16, 1e-300, 7.0]).tolist(), numbers),
        ]
        path = tmp_path / "table.csv"
        for row, row_format in cases:
            cli._write(path, cli._table(config_hash(_base_config()), ["a"], [row], row_format))
            assert path.read_text().splitlines()[3:] == [",".join(map(earlier, row))]

    def test_time_curves_hold_python_floats(self):
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.2}, outputs=["dcoef", "entropy_curve"]
        )
        spec = parse_config(config)
        model = osc.build_model(spec.network, spec.reservoirs, spec.regime)
        tables = cli._time_curves(spec, model)
        cells = [value for _, rows in tables.values() for row in rows for value in row]
        assert len(cells) == 50 * 5 and {type(value) for value in cells} == {float}

    def test_row_blocks_write_repr_or_the_text(self):
        rows = [
            (math.inf, -math.inf, math.nan, 0, -3, 2**64, "tau_int", "network.n;x"),
            (-0.0, 1e-310, -1.5e300, 7, 10**20, -(2**53) - 1, "", "a b"),
        ]
        row_format = "%r,%r,%r,%r,%r,%r,%s,%s\n"
        text = "".join(cli._row_blocks(rows, row_format))
        cells = [line.split(",") for line in text.splitlines()]
        assert cells == [[repr(v) if i < 6 else v for i, v in enumerate(row)] for row in rows]
        assert cells[0][:3] == ["inf", "-inf", "nan"]

    def test_wigner_grid_keeps_the_sign_of_an_infinity(self, tmp_path, monkeypatch):
        wigner_grid = cli.wigner_grid

        def overflowing(*args):
            coords, values = wigner_grid(*args)
            values[[1, 3]] = [-math.inf, math.inf]
            return coords, values

        monkeypatch.setattr(cli, "wigner_grid", overflowing)
        config = _base_config(
            outputs=["wigner_grid"], wigner_grid={"points": 2, "ranges": [[-1, 1, -2, 2]]}
        )
        run_config(config, tmp_path)
        rows = (tmp_path / "wigner_grid.csv").read_text().splitlines()[3:]
        assert rows[1] == "-1.0,2.0,-inf" and rows[3] == "1.0,2.0,inf"

    def test_csv_blocks_do_not_change_bytes(self, tmp_path, monkeypatch):
        table = np.linspace(-1.0, 1.0, 30).reshape(10, 3) ** 3
        whole = tmp_path / "whole.csv"
        digest = config_hash(_base_config())
        row_format = "%r,%r,%r\n"
        cli._write(whole, cli._table(digest, ["a", "b", "c"], table.tolist(), row_format))
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        blocks = tmp_path / "blocks.csv"
        cli._write(blocks, cli._table(digest, ["a", "b", "c"], table.tolist(), row_format))
        assert blocks.read_bytes() == whole.read_bytes()
        assert not (tmp_path / "blocks.csv.tmp").exists()

    def test_cli_run_exit_codes(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()))
        proc = _run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert _run_cli("run", str(bad)).returncode == 2


class TestBlasThreads:
    COMMANDS = {
        "run": lambda out: run_config(_base_config(), out),
        "sweep": lambda out: run_sweep(_base_config(), [], out, serial=True),
    }

    def _counts_inside_and_after(self, command, tmp_path, monkeypatch):
        """Thread counts seen while ``command`` builds its model, and after it.

        Every mapped OpenBLAS is set to 2 threads first, so a pin to one
        thread and its undoing both show.
        """
        setters = _mapped_openblas()
        if not setters:
            pytest.skip("no mapped OpenBLAS has openblas_set_num_threads_local")
        inside = []
        original = cli.build_model

        def observing(*args, **kwargs):
            inside.append(_thread_counts(setters))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "build_model", observing)
        earlier = [setter(2) for setter in setters]
        try:
            self.COMMANDS[command](tmp_path)
            after = _thread_counts(setters)
        finally:
            for setter, count in zip(setters, earlier):
                setter(count)
        return len(setters), inside, after

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_command_pins_one_thread_and_restores(self, command, tmp_path, monkeypatch):
        for name in cli._BLAS_THREAD_VARIABLES:
            monkeypatch.delenv(name, raising=False)
        n_libs, inside, after = self._counts_inside_and_after(command, tmp_path, monkeypatch)
        assert inside == [[1] * n_libs]
        assert after == [2] * n_libs

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_thread_variable_leaves_count_alone(self, command, tmp_path, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        n_libs, inside, after = self._counts_inside_and_after(command, tmp_path, monkeypatch)
        assert inside == [[2] * n_libs]
        assert after == [2] * n_libs


class TestStartup:
    def test_import_leaves_heavy_scipy_modules_unloaded(self):
        lazy = ("scipy.integrate", "scipy.linalg", "scipy.optimize", "scipy.sparse")
        code = f"import sys, oscnet.cli; print([m for m in {lazy!r} if m in sys.modules])"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"

    def test_gaussian_modules_load_no_oracle(self):
        # The oracle is the independent judge of the Gaussian code: nothing
        # Gaussian imports it, not even for the byte limit.
        code = (
            "import sys, oscnet.metrics, oscnet.phasespace\n"
            "print('oscnet.oracle' in sys.modules)"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "False"

    def test_gaussian_run_loads_no_scipy(self, tmp_path):
        # Every Gaussian output on both routes, through the console script's
        # main: mixed white-noise and Lorentzian baths (the dense route), and
        # 16- and 64-component rings under identical baths (the normal-mode
        # frame).  The whole run path is numpy-only.
        ring = dict(
            network={"n": 2, "omega": [1.0, 1.03], "coupling": 0.1},
            reservoirs={"temperature": 0.5, "profile": {"kind": "white", "gamma": 0.05}},
            times={"start": 0.0, "stop": 10.0, "steps": 5},
            wigner_grid={"points": 5, "ranges": [[-2.5, 2.5, -2.0, 2.0], [-1.5, 1.5, -2.5, 2.5]]},
            outputs=["entropy_curve", "wigner_grid"],
        )
        configs = {
            "mixed": _base_config(
                network={"n": 2, "omega": [1.0, 1.1], "coupling": 0.05},
                reservoirs={
                    "temperature": [0.9, 0.6],
                    "profile": [
                        {"kind": "white", "gamma": 0.05},
                        {"kind": "lorentzian", "gamma": 0.05, "center": 1.0, "width": 0.5},
                    ],
                },
                times={"start": 0.0, "stop": 40.0, "steps": 20},
                outputs=["tau_report", "dcoef", "entropy_curve", "wigner_grid"],
                wigner_grid={"points": 3},
            ),
            "ring16": _base_config(state=_ring_state(0.0, points=4), **ring),
            "ring64": _base_config(state=_ring_state(0.0, points=8), **ring),
        }
        for name, config in configs.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(config))
        code = (
            "import sys\n"
            "from oscnet.__main__ import main\n"
            f"for path in {[str(tmp_path / name) for name in configs]!r}:\n"
            "    assert main(['run', path + '.json', '--out', path]) == 0\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        loaded, masked = proc.stdout.strip().splitlines()[-2:]
        assert loaded == "[]"
        # The Wigner CSV writer reads its axes by stride: no np.unique, whose
        # import of numpy.ma costs every run about 14 ms.
        assert masked == "False"
        for name, config in configs.items():
            out = tmp_path / name
            assert sorted(p.stem for p in out.iterdir()) == sorted(config["outputs"])
            entropy = (out / "entropy_curve.csv").read_text().splitlines()[3:]
            assert len(entropy) == config["times"]["steps"]
            assert all(0.0 <= float(row.split(",")[1]) < 1.0 for row in entropy), name
            grid = (out / "wigner_grid.csv").read_text().splitlines()
            assert len(grid) == 3 + config["wigner_grid"]["points"] ** 4

    def test_oracle_run_loads_no_scipy(self, tmp_path):
        # The Fock oracle applies its generator with numpy slices and steps it
        # with its own Taylor action: no scipy module at all.
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.2},
            reservoirs={"temperature": 0.4, "profile": {"kind": "white", "gamma": 0.05}},
            state={"kind": "cat", "r": 1, "s": 0, "alpha": 0.5},
            times={"start": 0.0, "stop": 2.0, "steps": 3},
            outputs=["oracle_compare"],
            oracle={"n_max": 8},
        )
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from oscnet.cli import run_config\n"
            f"run_config({config!r}, Path({str(tmp_path / 'out')!r}))\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.strip() == "[]"
        lines = (tmp_path / "out" / "oracle_compare.csv").read_text().splitlines()
        assert len(lines) == 6  # two header lines, the columns, three times
        # Criterion 10's tolerances: chi and the moments to 1e-5, purity to 1e-4.
        limits = {"max_chi_err": 1e-5, "max_first_moment_err": 1e-5,
                  "max_second_moment_err": 1e-5, "purity_err": 1e-4}
        header = lines[2].split(",")
        for line in lines[3:]:
            row = dict(zip(header, map(float, line.split(","))))
            assert all(row[column] <= limit for column, limit in limits.items()), row

    @staticmethod
    def _run_main(config, tmp_path):
        """Modules of interest whose code ran in ``oscnet run`` in a fresh
        interpreter.  The oracle sits in sys.modules from the start as a lazy
        module, which becomes a plain module object when its code runs."""
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        code = (
            "import sys, types\n"
            "from oscnet.__main__ import main\n"
            f"assert main(['run', {str(path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
            "names = ('_hashlib', 'oscnet.oracle')\n"
            "print([m for m in names if type(sys.modules.get(m)) is types.ModuleType])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        return proc.stdout.strip().splitlines()[-1]

    def test_gaussian_run_loads_no_openssl_and_no_oracle(self, tmp_path):
        config = _base_config(outputs=["tau_report", "dcoef", "entropy_curve"])
        assert self._run_main(config, tmp_path) == "[]"
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "dcoef.csv",
            "entropy_curve.csv",
            "tau_report.json",
        ]
        assert len((tmp_path / "out" / "dcoef.csv").read_text().splitlines()) == 3 + 50

    def test_oracle_run_loads_the_oracle(self, tmp_path):
        config = _base_config(
            state={"kind": "cat", "r": 1, "s": 0, "alpha": 0.5},
            times={"start": 0.0, "stop": 2.0, "steps": 3},
            outputs=["oracle_compare"],
            oracle={"n_max": 8},
        )
        assert self._run_main(config, tmp_path) == "['oscnet.oracle']"
        table = (tmp_path / "out" / "oracle_compare.csv").read_text().splitlines()
        assert len(table) == 6  # two header lines, the columns, three times

    def test_cli_keeps_an_oracle_loaded_before_it(self):
        code = (
            "import oscnet.oracle, oscnet.cli\n"
            "print(oscnet.cli._oracle is oscnet.oracle, type(oscnet.oracle).__name__)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["True", "module"]

    def test_config_hash_is_sha256_of_the_canonical_json(self, monkeypatch, tmp_path):
        import hashlib

        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        workloads = importlib.import_module("workloads")
        configs = [
            _base_config(),
            _base_config(state={"kind": "coherent", "branches": [_BRANCH]}, regime="weak"),
            {"unicode": "é", "nested": {"b": [1, 2.5, None], "a": True}},
            workloads.generate("big_network", workloads.DEFAULT_SEED).config,  # 150 modes
        ]
        assert configs[-1]["network"]["n"] == 150
        digests = [config_hash(c) for c in configs]
        for config, digest in zip(configs, digests):
            assert digest == hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]
        assert len(set(digests)) == len(digests)
        # Without CPython's built-in SHA-256 modules the hash falls back to
        # hashlib and gives the same digests.
        path = tmp_path / "configs.json"
        path.write_text(json.dumps(configs))
        code = (
            "import json, sys\n"
            "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
            "import hashlib\n"
            "from oscnet import cli\n"
            "assert cli._sha256 is hashlib.sha256\n"
            f"configs = json.load(open({str(path)!r}))\n"
            "print(json.dumps([cli.config_hash(c) for c in configs]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert json.loads(proc.stdout) == digests


# Every name ``oscnet`` exported before its exports became lazy, by defining
# module, plus the submodules themselves.
_EXPORTS = {
    "errors": [
        "ConfigError", "CutoffOverflow", "DefectiveMatrix", "NoBracket",
        "NonDissipativeMode", "NonPositiveNormalMode", "NullState", "OscnetError",
        "PositivityLost", "QuadratureNotConverged", "RootNotConverged", "SingularSystem",
        "SingularWidth", "ValidationError",
    ],
    "network": [
        "DissipativeMatrix", "NetworkSpec", "NormalModes", "build_hamiltonian",
        "coupling_regime", "degenerate_symmetric_network", "dissipative_matrix",
        "normal_modes",
    ],
    "reservoirs": [
        "GaussianBand", "Lorentzian", "RateMatrices", "ReservoirSpec", "WhiteNoise",
        "mean_occupation", "profile_overlap", "rates_common", "rates_distinct",
        "rates_weak", "temperature_for_occupation",
    ],
    "stationary": [
        "StationaryWidth", "kron_sum", "lyapunov_residual", "solve_pi_eigen",
        "solve_pi_vec", "stationary_width",
    ],
    "propagation": [
        "Model", "Propagator", "PropagatorBundle", "build_model", "centroid",
        "eta_flow", "noise_width", "rotate_frame", "transition_matrix",
    ],
    "states": [
        "CoherentBranch", "CoherentComponent", "CoherentMixture", "FockBranch",
        "FockMixture", "build_cat_family", "coherent_mixture", "coherent_overlap",
        "coherent_superposition", "fock_mixture", "fock_state_ring",
        "single_coherent_state",
    ],
    "phasespace": [
        "char_function", "char_function_fock", "moments", "p_function", "wigner",
        "wigner_elements", "wigner_from_char", "wigner_grid",
    ],
    "metrics": [
        "DecoherenceReport", "concurrence", "decay_function", "decoherence_report",
        "decoherence_time", "directional_diffusion_times", "interference_decay_time",
        "linear_entropy", "mean_diffusion_time",
    ],
    "oracle": [
        "FockSpace", "TruncatedDensityMatrix", "density_from_coherent",
        "density_from_fock", "evolve_master", "expect_lowering",
        "expect_number_matrix", "liouvillian_apply", "oracle_char",
        "oracle_partial_trace", "oracle_purity", "select_cutoff",
    ],
}


class TestLazyPackage:
    def test_import_loads_no_numpy(self):
        code = "import sys, oscnet; print('numpy' in sys.modules, oscnet.__version__)"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.split() == ["False", "0.1.0"]

    def test_exports_resolve_to_defining_module(self):
        for module, names in _EXPORTS.items():
            defining = importlib.import_module(f"oscnet.{module}")
            assert getattr(osc, module) is defining
            for name in names:
                assert getattr(osc, name) is getattr(defining, name), name

    def test_star_import_gives_the_same_names(self):
        namespace = {}
        exec("from oscnet import *", namespace)
        del namespace["__builtins__"]
        expected = {*_EXPORTS, *(name for names in _EXPORTS.values() for name in names)}
        assert set(namespace) == expected
        assert sorted(osc.__all__) == sorted(expected)  # each name once
        assert all(namespace[name] is getattr(osc, name) for name in expected)
        assert expected <= set(dir(osc))

    def test_readme_library_example_runs(self, capsys):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
        exec(compile(block, "README.md", "exec"), {"__name__": "__main__"})
        assert len(capsys.readouterr().out.splitlines()) == 3

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            osc.no_such_name
        assert not hasattr(osc, "__wrapped__")


    def test_no_name_in_two_submodules(self):
        # The package returns the first submodule that lists a name.
        owners = {}
        for module in _EXPORTS:
            for name in importlib.import_module(f"oscnet.{module}").__all__:
                assert name not in owners, (name, owners.get(name), module)
                owners[name] = module

    def test_every_listed_name_exists(self):
        for module in _EXPORTS:
            defining = importlib.import_module(f"oscnet.{module}")
            missing = [name for name in defining.__all__ if not hasattr(defining, name)]
            assert not missing, (module, missing)

    @pytest.mark.parametrize(
        "probe, printed, loaded",
        [
            ("oscnet.ValidationError.__name__", "ValidationError", ["oscnet.errors"]),
            ("hasattr(oscnet, '__wrapped__')", "False", []),
        ],
    )
    def test_lookup_imports_nothing_it_does_not_need(self, probe, printed, loaded):
        code = (
            "import sys, oscnet\n"
            f"print({probe})\n"
            "loaded = sorted(m for m in sys.modules if m.startswith('oscnet.'))\n"
            "print('numpy' in sys.modules, loaded)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines() == [printed, f"False {loaded}"]


class TestNoIdleSettings:
    """Settings that changed no result, or that every caller set to one value,
    are gone: passing one is a TypeError."""

    @pytest.mark.parametrize(
        "name, positional, keyword",
        [
            ("concurrence", 3, {"nodes": 64}),
            ("decoherence_report", 3, {"fd_step": 1e-6}),
            ("evolve_master", 6, {"rtol": 1e-10}),
            ("evolve_master", 6, {"atol": 1e-12}),
            ("stationary_width", 2, {"method": "auto"}),
            ("wigner_from_char", 3, {"chunk": 1 << 16}),
            ("interference_decay_time", 5, {"rtol": 1e-8}),
            ("interference_decay_time", 5, {"branch": 0}),
            ("decay_function", 4, {"branch": 0}),
            ("decoherence_report", 3, {"pair": (0, 1)}),
            ("decoherence_report", 3, {"branch": 0}),
            ("coupling_regime", 1, {"threshold": 0.1}),
            ("wigner_from_char", 3, {"tol": 1e-5}),
            ("FockSpace.coherent_vector", 2, {"tail_tol": 1e-8}),
        ],
    )
    def test_removed_keyword_is_a_type_error(self, name, positional, keyword):
        with pytest.raises(TypeError, match=next(iter(keyword))):
            functools.reduce(getattr, name.split("."), osc)(*[None] * positional, **keyword)

    def test_fock_branch_has_no_occupations_method(self):
        assert not hasattr(osc.FockBranch, "occupations")

    def test_propagator_has_no_bundles_method(self):
        assert not hasattr(osc.Propagator, "bundles")


class TestRecordEquality:
    """Records holding arrays compare and hash by identity; records of floats,
    tuples and strings compare by value."""

    ARRAY_RECORDS = [
        "NetworkSpec",
        "NormalModes",
        "DissipativeMatrix",
        "ReservoirSpec",
        "RateMatrices",
        "StationaryWidth",
        "PropagatorBundle",
        "Model",
        "CoherentComponent",
        "CoherentBranch",
        "CoherentMixture",
        "TruncatedDensityMatrix",
        "RunSpec",
    ]

    @pytest.fixture(scope="class")
    def records(self):
        spec = parse_config(_base_config())
        model = osc.build_model(spec.network, spec.reservoirs, spec.regime)
        branch = spec.state.branches[0]
        found = [
            spec.network,
            model.modes,
            model.dissipative,
            spec.reservoirs,
            model.rates,
            model.width,
            model.propagator.bundle(1.0),
            model,
            branch.components[0],
            branch,
            spec.state,
            osc.TruncatedDensityMatrix(t=0.0, rho=np.diag([1.0, 0.0]), n_max=1),
            spec,
        ]
        return {type(record).__name__: record for record in found}

    @pytest.mark.parametrize("name", ARRAY_RECORDS)
    def test_array_record_compares_by_identity(self, records, name):
        record = records[name]
        twin = dataclasses.replace(record)
        assert record == record and record != twin and not record == twin
        assert hash(record) == object.__hash__(record)

    @pytest.mark.parametrize(
        "record",
        [
            osc.WhiteNoise(0.05),
            osc.Lorentzian(0.05, 1.0, 0.5),
            osc.GaussianBand(0.05, 1.0, 0.5),
            osc.DecoherenceReport(1.0, (1.0, math.inf), 2.0, 2.0 / 3.0, "weak"),
            osc.FockBranch(1.0, (((1,), 1 + 0j),)),
            osc.FockMixture((osc.FockBranch(1.0, (((1,), 1 + 0j),)),)),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_value_record_compares_by_value(self, record):
        twin = dataclasses.replace(record)
        assert twin is not record and twin == record and hash(twin) == hash(record)


class TestCommandLineThreads:
    # ``python -m oscnet validate`` in a fresh interpreter, then the number of
    # threads alive and the thread variables it ends with.
    CODE = (
        "import os, runpy, sys\n"
        "sys.argv = ['oscnet', 'validate', sys.argv[1]]\n"
        "try:\n"
        "    runpy.run_module('oscnet', run_name='__main__')\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "names = ('OPENBLAS_NUM_THREADS', 'GOTO_NUM_THREADS', 'OMP_NUM_THREADS')\n"
        "print(len(os.listdir('/proc/self/task')), [os.environ.get(n) for n in names])\n"
    )

    @pytest.fixture
    def config_path(self, tmp_path):
        if not os.path.isdir("/proc/self/task") or len(os.sched_getaffinity(0)) < 2:
            pytest.skip("needs /proc and more than one CPU")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()))
        return path

    @staticmethod
    def _run(code, path, **variables):
        env = {k: v for k, v in os.environ.items() if k not in cli._BLAS_THREAD_VARIABLES}
        env.update(variables)
        proc = subprocess.run(
            [sys.executable, "-c", code, str(path)],
            capture_output=True, text=True, check=True, env=env,
        )
        return proc.stdout.strip().splitlines()[-1]

    def test_cli_starts_one_blas_thread(self, config_path):
        # Importing the library first keeps OpenBLAS's default, an extra
        # worker per CPU; without one the check below would prove nothing.
        control = "import oscnet.cli\n" + self.CODE
        if self._run(control, config_path).startswith("1 "):
            pytest.skip("numpy's BLAS starts no worker thread here")
        assert self._run(self.CODE, config_path) == "1 ['1', None, None]"

    @pytest.mark.parametrize(
        "name", ["OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"]
    )
    def test_user_thread_variable_left_alone(self, name, config_path):
        values = [None, None, None]
        values[cli._BLAS_THREAD_VARIABLES.index(name)] = "2"
        assert self._run(self.CODE, config_path, **{name: "2"}) == f"2 {values}"


class TestSweep:
    def test_empty_axis_matches_run(self, tmp_path):
        config = _base_config()
        run_sweep(config, [], tmp_path, serial=True)
        lines = (tmp_path / "sweep.csv").read_text().splitlines()
        rows = {line.split(",")[2]: float(line.split(",")[3]) for line in lines[3:]}
        run_config(config, tmp_path / "single")
        payload = json.loads((tmp_path / "single" / "tau_report.json").read_text())
        assert_allclose(rows["tau_diff"], payload["tau_diff"], rtol=1e-12)
        assert_allclose(rows["tau_int"], payload["tau_int"], rtol=1e-12)

    def test_size_sweep_interference_scaling(self, tmp_path):
        # R = N cat, weak coupling: tau_int times the effective diagonal rate
        # scales as 1/N (the comparison normalizes out the rate convention).
        alpha2 = 10.0
        taus = {}
        for n in range(1, 7):
            config = _base_config(
                network={"n": n, "omega": 1.0, "coupling": 1e-4},
                state={"kind": "cat", "r": n, "s": 0, "alpha": math.sqrt(alpha2)},
                times={"start": 0.0, "stop": 400.0, "steps": 200},
                regime="weak",
            )
            config["reservoirs"]["temperature"] = osc.temperature_for_occupation(
                1.0, 1.0
            )
            run_config(config, tmp_path / f"n{n}")
            payload = json.loads(
                (tmp_path / f"n{n}" / "tau_report.json").read_text()
            )
            rate = n * 0.05  # diagonal damping under the stated convention
            taus[n] = payload["tau_int"] * rate
        products = [taus[n] * n for n in taus]
        spread = (max(products) - min(products)) / min(products)
        assert spread < 0.01

    def test_temperature_sweep_occupation_scaling(self, tmp_path):
        # tau_int proportional to 1 / (1 + 2 nbar) at fixed amplitude.
        path = tmp_path / "cfg.json"
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 1e-4},
            state={"kind": "cat", "r": 2, "s": 0, "alpha": 4.0},
            times={"start": 0.0, "stop": 60.0, "steps": 200},
            regime="weak",
        )
        path.write_text(json.dumps(config))
        proc = _run_cli(
            "sweep", str(path),
            "--axis", "reservoirs.temperature=0.6:1.4:3",
            "--out", str(tmp_path / "sweep"), "--serial",
        )
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
        tau_by_temp = {}
        for line in lines[3:]:
            axis, value, metric, result = line.split(",")
            if metric == "tau_int":
                tau_by_temp[float(value)] = float(result)
        products = []
        for temp, tau in tau_by_temp.items():
            nbar = osc.mean_occupation(temp, 1.0)
            products.append(tau * (1 + 2 * nbar))
        spread = (max(products) - min(products)) / min(products)
        assert spread < 0.01

    def test_parallel_matches_serial(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()))
        for mode, flag in (("par", []), ("ser", ["--serial"])):
            proc = _run_cli(
                "sweep", str(path),
                "--axis", "reservoirs.temperature=0.6:1.2:3",
                "--out", str(tmp_path / mode), *flag,
            )
            assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "par" / "sweep.csv").read_bytes() == (
            tmp_path / "ser" / "sweep.csv"
        ).read_bytes()

    def test_integer_axis_runs(self, tmp_path, capsys):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = ["sweep", str(cfg), "--axis", "state.r=1:2:2", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        lines = (tmp_path / "sweep.csv").read_text().splitlines()[3:]
        assert [line.split(",")[:2] for line in lines[::3]] == [["state.r", "1"], ["state.r", "2"]]
        # Three points put 1.5 on the integer axis: refused, not read as 1.
        argv[3] = "state.r=1:2:3"
        capsys.readouterr()
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: --axis state.r: ")

    def test_axis_gives_integer_fields_integers(self):
        for path in (
            "network.n", "state.r", "state.s", "state.sign", "times.steps",
            "wigner_grid.points", "wigner_grid.time_index", "oracle.n_max",
        ):
            values = cli._parse_axis(f"{path}=1:3:3")[1]
            assert values == [1, 2, 3] and all(type(v) is int for v in values), path
        assert [type(v) for v in cli._parse_axis("times.stop=1:3:3")[1]] == [float] * 3

    @pytest.mark.parametrize(
        "spec",
        ["times.stop=1:2:100000", "times.steps=1:1e5:100000", "times.steps=1e30:2e30:100000"],
    )
    def test_axis_bytes_cover_the_sweep_state(self, spec, monkeypatch):
        # The axis values and the copy itertools.product takes in run_sweep.
        counted = []
        monkeypatch.setattr(cli, "_check_bytes", lambda what, predicted: counted.append(predicted))
        tracemalloc.start()
        try:
            _, values = cli._parse_axis(spec)
            points = itertools.product(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert next(points) == (values[0],)
        assert len(counted) == 1 and peak <= counted[0]

    def test_axis_past_the_byte_limit_runs_nothing(self, tmp_path, capsys, monkeypatch):
        per_point = cli._AXIS_SLOT_BYTES + sys.getsizeof(1.0)
        monkeypatch.setattr(errors, "_BYTE_LIMIT", 1000 * per_point)
        monkeypatch.setattr(cli, "_sweep_metrics", lambda job: pytest.fail("a point ran"))
        assert len(cli._parse_axis("times.stop=1:2:1000")[1]) == 1000
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(_base_config()))
        out = tmp_path / "out"
        argv = ["sweep", str(cfg), "--axis", "times.stop=1:2:1001", "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: --axis times.stop: 1001 axis points"), err
        assert not out.exists()

    def test_bad_axis_path(self, tmp_path):
        with pytest.raises(ConfigError):
            run_sweep(_base_config(), [("nope.field", [1.0])], tmp_path, serial=True)


class TestSelftest:
    def test_selftest_passes(self):
        proc = _run_cli("selftest", "--seed", "7")
        assert proc.returncode == 0
        assert "all checks passed" in proc.stdout


class TestMoreConfigs:
    def test_explicit_coherent_state(self, tmp_path):
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.1},
            state={
                "kind": "coherent",
                "branches": [
                    {
                        "weight": 1.0,
                        "components": [
                            {"amplitude": [1.0, 0.0], "beta": [[0.8, 0.0], [0.0, 0.2]]},
                            {"amplitude": [-1.0, 0.0], "beta": [[-0.8, 0.0], [0.0, -0.2]]},
                        ],
                    }
                ],
            },
        )
        run_config(config, tmp_path)
        payload = json.loads((tmp_path / "tau_report.json").read_text())
        assert 0 < payload["tau_int"] < payload["tau_diff"]

    def test_coherent_state_missing_field_named(self):
        config = _base_config(
            state={"kind": "coherent", "branches": [{"components": [{"beta": [[1, 0]]}]}]}
        )
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "state.branches[0].components[0]" in str(err.value)

    def test_common_reservoir_runs(self, tmp_path):
        # Partial overlap keeps every mode damped; full overlap would leave an
        # undamped collective direction with no stationary width.
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.1},
            state={"kind": "cat", "r": 1, "s": 0, "alpha": 1.0},
        )
        config["reservoirs"]["common"] = True
        config["reservoirs"]["overlap"] = [[1.0, 0.5], [0.5, 1.0]]
        run_config(config, tmp_path)
        payload = json.loads((tmp_path / "tau_report.json").read_text())
        assert payload["regime"] in ("weak", "strong")

    def test_common_bath_tau_past_the_grid(self, tmp_path, monkeypatch, capsys):
        # The benchmark's big_network at three modes on one common bath: the
        # gap is still positive at t = 40, so the scan doubles past the grid.
        # A grid long enough to hold the crossing gives the same root.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        config = importlib.import_module("workloads").big_network(0, n=3).config
        config["reservoirs"]["common"] = True
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert cli.main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""
        tau = json.loads((tmp_path / "out" / "tau_report.json").read_text())["tau_int"]
        spec = parse_config(config)
        model = osc.build_model(spec.network, spec.reservoirs, spec.regime)
        grid = np.linspace(0.0, 4000.0, 4001)
        long = osc.interference_decay_time(spec.state, 0, 1, model.propagator, grid)
        assert 40.0 < long < 41.0
        assert_allclose(tau, long, rtol=2e-8)

    def test_common_reservoir_undamped_mode_fails_cleanly(self, tmp_path):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        config["reservoirs"]["common"] = True
        config["reservoirs"]["overlap"] = [[1.0, 1.0], [1.0, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = _run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "real part" in proc.stderr

    # path -> (exit code of validate and run, run's message).  Symmetrizing
    # a coupling of 1e308 overflows as the network is built, so both verbs
    # refuse it naming the field; a rate of 1e308 overflows only as the
    # model is built, so run refuses it.
    OVERFLOWS = {
        "network.coupling": ((2, 2), "config error: network: overflow encountered in add"),
        "reservoirs.profile.gamma": (
            (0, 1),
            "error: floating-point error: overflow encountered in multiply",
        ),
    }

    @pytest.mark.parametrize("path", sorted(OVERFLOWS))
    def test_overflowing_generator_refused(self, path, tmp_path, capsys):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        _set_leaf(config, path, 1e308)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        (validated, ran), message = self.OVERFLOWS[path]
        assert cli.main(["validate", str(cfg)]) == validated
        capsys.readouterr()
        assert cli.main(["run", str(cfg), "--out", str(out)]) == ran
        assert capsys.readouterr().err.startswith(message)
        assert not out.exists()

    @pytest.mark.parametrize("path", sorted(OVERFLOWS))
    def test_overflow_refused_by_the_script_without_warning(self, path, tmp_path):
        # The installed entry point, with every RuntimeWarning an error.
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        _set_leaf(config, path, 1e308)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        flags = ("-W", "error::RuntimeWarning")
        proc = _run_cli("run", str(cfg), "--out", str(out), flags=flags)
        (_, code), message = self.OVERFLOWS[path]
        assert proc.returncode == code
        assert proc.stderr.startswith(message), proc.stderr
        assert "Traceback" not in proc.stderr and "RuntimeWarning" not in proc.stderr
        assert list(out.glob("*")) == []

    @pytest.mark.parametrize("output", ["entropy_curve", "tau_report", "wigner_grid", "dcoef"])
    def test_width_broken_by_rounding_refused(self, output, tmp_path, capsys):
        # At T = 1e35 rounding in P - conj(T) P T^T leaves the t = 0 Wigner
        # width with a negative eigenvalue.  Unequal damping rates keep the
        # dense route, where that difference is formed.
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1}, outputs=[output])
        if output == "wigner_grid":
            ranges = [[-2.0, 2.0, -2.0, 2.0]] * 2
            config["wigner_grid"] = {"points": 5, "ranges": ranges, "time_index": 0}
        config["reservoirs"]["temperature"] = 1e35
        config["reservoirs"]["profile"] = [
            {"kind": "white", "gamma": 0.05},
            {"kind": "white", "gamma": 0.03},
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: Wigner width at t = 0.0 is not positive definite")
        assert list((tmp_path / "out").iterdir()) == []

    # The stationary solve overflows at T = 1e308, and the run stops there,
    # before any width is formed.
    def test_non_finite_width_refused_by_dcoef(self, tmp_path, capsys):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1}, outputs=["dcoef"])
        config["reservoirs"]["temperature"] = 1e308
        config["reservoirs"]["profile"] = [
            {"kind": "white", "gamma": 0.05},
            {"kind": "white", "gamma": 0.03},
        ]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: floating-point error: overflow encountered in divide")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("output", ["entropy_curve", "tau_report"])
    def test_separable_width_at_extreme_temperature_is_exact(self, output, tmp_path, capsys):
        # Identical baths take the normal-mode frame route, whose t = 0 width
        # is the vacuum's exactly, so the T = 1e35 outputs are computed.  The
        # interference crossing lies far below Brent's absolute tolerance and
        # is reported as that tolerance.
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1}, outputs=[output])
        config["reservoirs"]["temperature"] = 1e35
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        assert cli.main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert "error" not in capsys.readouterr().err
        if output == "tau_report":
            report = json.loads((tmp_path / "out" / "tau_report.json").read_text())
            assert report["tau_int"] == metrics._BRENT_XTOL
            assert 0.0 < report["tau_d"] <= report["tau_diff"] < 1e-30
            return
        lines = (tmp_path / "out" / "entropy_curve.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
        assert float(rows[0][0]) == 0.0 and 0.0 <= float(rows[0][1]) < 1e-12
        assert all(0.0 <= float(entropy) <= 1.0 for _, entropy in rows)

    def test_overlap_without_common_reservoir_rejected(self, tmp_path, capsys):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        config["reservoirs"]["overlap"] = [[1.0, 0.5], [0.5, 1.0]]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(tmp_path / "o")]):
            assert cli.main(argv) == 2
            assert "config error: reservoirs.overlap:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_common_reservoir_mixed_temperatures_rejected(self):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        config["reservoirs"]["common"] = True
        config["reservoirs"]["temperature"] = [0.5, 0.9]
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "reservoirs.temperature" in str(err.value)


def _ring_state(phase, radius=0.6, points=4):
    """The ring_wigner benchmark's state: |1, 1> as a product of two coherent
    rings of ``points`` components, each ring turned by ``phase``."""
    ring = []
    for k in range(points):
        theta = 2.0 * math.pi * k / points
        ring.append((cmath.exp(-1j * theta), radius * cmath.exp(1j * (theta + phase))))
    components = [
        {
            "amplitude": [(c1 * c2).real, (c1 * c2).imag],
            "beta": [[b1.real, b1.imag], [b2.real, b2.imag]],
        }
        for c1, b1 in ring
        for c2, b2 in ring
    ]
    return {"kind": "coherent", "branches": [{"weight": 1.0, "components": components}]}


class TestWriteRule:
    """A run that fails after some artifacts are computed writes none of them."""

    CONFIGS = {
        # The oracle refuses the cutoff after the tau report and the entropy
        # curve are computed.
        "tail_mass": dict(
            _base_config(
                state={"kind": "cat", "r": 1, "s": 0, "alpha": 2.5},
                outputs=["tau_report", "entropy_curve", "oracle_compare"],
            ),
            oracle={"n_max": 4},
        ),
        # A common bath for two detuned modes: the oracle's rho loses
        # positivity by t = 1, after the entropy curve is computed.
        "positivity": {
            "network": {"n": 2, "omega": [1.15, 1.0], "coupling": 0.2},
            "reservoirs": {
                "temperature": 0.35,
                "profile": {"kind": "white", "gamma": 0.04},
                "common": True,
            },
            "state": {
                "kind": "cat", "r": 1, "s": 1,
                "alpha": [0.5530350177337987, -0.4291296647403637],
            },
            "times": {"start": 0.0, "stop": 4.0, "steps": 5},
            "oracle": {"n_max": 10},
            "outputs": ["entropy_curve", "oracle_compare"],
        },
        # The ring_wigner benchmark's seed-0 config at T = 1e14 with unequal
        # damping rates (the dense route): rounding leaves the t = 0 width
        # narrower than the vacuum's, so the purity of the pure ring state
        # comes out above 1.
        "purity": {
            "network": {
                "n": 2,
                "omega": [0.9580824039173187, 0.9902437791993587],
                "coupling": 0.11012892062377659,
            },
            "reservoirs": {
                "temperature": 1e14,
                "profile": [
                    {"kind": "white", "gamma": 0.04230637408064745},
                    {"kind": "white", "gamma": 0.048},
                ],
            },
            "regime": "auto",
            "state": _ring_state(2.054216441677446),
            "times": {"start": 0.0, "stop": 40.0, "steps": 40},
            "wigner_grid": {
                "points": 17,
                "ranges": [[-2.5, 2.5, -2.5, 2.5]] * 2,
                "time_index": -1,
            },
            "outputs": ["tau_report", "entropy_curve", "wigner_grid"],
        },
        # An eigenvalue x time past the float range: exp would return nan.
        "omega": _base_config(
            network={"n": 1, "omega": 1e308, "coupling": 0.0},
            times={"start": 0.0, "stop": 20.0, "steps": 5},
            wigner_grid={"points": 5, "ranges": [[-2.0, 2.0, -2.0, 2.0]]},
            outputs=["tau_report", "entropy_curve", "wigner_grid"],
        ),
        # The oracle's Taylor steps to t = 4 would take 2.2e202 products.
        "oracle_limit": _base_config(
            network={"n": 2, "omega": [1e200, 1.0], "coupling": 0.1},
            state={"kind": "cat", "r": 1, "s": 1, "alpha": [0.553, -0.429]},
            times={"start": 0.0, "stop": 4.0, "steps": 5},
            oracle={"n_max": 10},
            outputs=["oracle_compare"],
        ),
    }
    ERRORS = {
        "tail_mass": "error: coherent tail mass",
        "positivity": "error: evolved density matrix lost positivity at t = 1.0",
        "purity": "error: Wigner width at t = 0.0 gives a purity of 1.0",
        "omega": "error: eigenvalue 0.025+1e+308j x time 5 overflows the float range",
        "oracle_limit": "error: evolution to t = 4.0 plans 2.22e+202 generator products"
        " (generator 1-norm 1e+201), above the oracle limit of 100000",
    }

    @pytest.mark.parametrize("name", sorted(CONFIGS))
    def test_failed_run_leaves_no_artifact(self, name, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIGS[name]))
        out = tmp_path / "out"
        assert cli.main(["run", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(self.ERRORS[name]) and "Traceback" not in err, err
        assert list(out.iterdir()) == []


class TestFloatPolicy:
    """``parse_config``, ``run_config`` and ``run_sweep`` run with numpy raising
    on overflow, invalid and divide-by-zero operations, and hand the caller's
    settings back as they found them, whether the call succeeds or is refused."""

    GOOD = _base_config()
    # Refused as the network is built (parse time) and as the model is built (run time).
    BAD_NETWORK = _base_config(network={"n": 2, "omega": 1.0, "coupling": 1e308})
    BAD_RATE = _base_config(
        network={"n": 2, "omega": 1.0, "coupling": 0.1},
        reservoirs={"temperature": 0.5, "profile": {"kind": "white", "gamma": 1e308}},
    )
    # The caller's settings: none of them the policy's.
    SETTINGS = {"over": "ignore", "invalid": "ignore", "divide": "warn", "under": "raise"}

    def test_caller_settings_restored(self, tmp_path):
        calls = {
            "parse_config": parse_config,
            "run_config": lambda config: run_config(config, tmp_path / "run"),
            "run_sweep": lambda config: run_sweep(config, [], tmp_path / "sweep", serial=True),
        }
        outcomes = {}
        for name, call in calls.items():
            for config in (self.GOOD, self.BAD_NETWORK, self.BAD_RATE):
                with np.errstate(**self.SETTINGS):
                    try:
                        call(copy.deepcopy(config))
                        outcome = None
                    except ValidationError as exc:
                        outcome = type(exc)
                    assert np.geterr() == self.SETTINGS, name
                outcomes.setdefault(name, []).append(outcome)
        assert outcomes == {
            "parse_config": [None, ConfigError, None],
            "run_config": [None, ConfigError, ValidationError],
            "run_sweep": [None, ConfigError, ValidationError],
        }

    def test_policy_holds_inside_a_run(self, tmp_path, monkeypatch):
        seen = []

        def build_model(*args):
            seen.append(np.geterr())
            return propagation.build_model(*args)

        monkeypatch.setattr(cli, "build_model", build_model)
        with np.errstate(**self.SETTINGS):
            run_config(copy.deepcopy(self.GOOD), tmp_path / "run")
            run_sweep(copy.deepcopy(self.GOOD), [], tmp_path / "sweep", serial=True)
        policy = {"over": "raise", "invalid": "raise", "divide": "raise", "under": "ignore"}
        assert seen == [policy, policy]


class TestLeafSweep:
    """Every leaf of two small configs, replaced in turn by a hostile value."""

    VALUES = ["x", True, None, [], {}, [1], 2.5, -0.5, 0, 1e308, -1e308, 1e-308]
    ORACLE = {
        "network": {"n": 2, "omega": [1.0, 1.05], "coupling": 0.1},
        "reservoirs": {"temperature": 0.2, "profile": {"kind": "white", "gamma": 0.05}},
        "state": {"kind": "cat", "r": 1, "s": 1, "alpha": [0.2, 0.1]},
        "times": {"start": 0.0, "stop": 1.0, "steps": 3},
        "oracle": {"n_max": 4},
        "outputs": ["oracle_compare"],
    }
    COHERENT = {
        "network": {"n": 1, "omega": 1.0, "coupling": 0.0},
        "reservoirs": {"temperature": 0.5, "profile": {"kind": "white", "gamma": 0.05}},
        "state": {
            "kind": "coherent",
            "branches": [
                {
                    "weight": 1.0,
                    "components": [
                        {"amplitude": 1.0, "beta": [[0.8, 0.0]]},
                        {"amplitude": [-0.5, 0.5], "beta": [-0.4]},
                        {"amplitude": 0.5, "beta": [[0.0, 0.6]]},
                    ],
                }
            ],
        },
        "times": {"start": 0.0, "stop": 20.0, "steps": 5},
        "wigner_grid": {"points": 5, "ranges": [[-2.0, 2.0, -2.0, 2.0]], "time_index": -1},
        "outputs": ["tau_report", "entropy_curve", "wigner_grid"],
    }

    @classmethod
    def _leaves(cls, node, path=()):
        if not isinstance(node, (dict, list)):
            yield path
            return
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from cls._leaves(child, (*path, key))

    # What counts here is the exit code, the absence of a traceback and of a
    # RuntimeWarning (the suite turns one into an error), and no nan in what
    # a run that exits 0 writes.
    @pytest.mark.parametrize("name", ["ORACLE", "COHERENT"])
    def test_every_leaf_exits_with_a_code(self, name, tmp_path, capsys):
        config = getattr(self, name)
        cfg = tmp_path / "cfg.json"
        failures = []
        out = tmp_path / "out"
        for leaf in self._leaves(config):
            for value in self.VALUES:
                job = copy.deepcopy(config)
                node = job
                for key in leaf[:-1]:
                    node = node[key]
                node[leaf[-1]] = value
                cfg.write_text(json.dumps(job))
                shutil.rmtree(out, ignore_errors=True)
                try:
                    code = cli.main(["run", str(cfg), "--out", str(out)])
                except Exception as exc:  # collected, so one run names every failure
                    code = repr(exc)
                if code not in (0, 1, 2) or "Traceback" in capsys.readouterr().err:
                    failures.append((leaf, value, code))
                elif code == 0:
                    failures += [
                        (leaf, value, path.name)
                        for path in out.iterdir()
                        if "nan" in path.read_text().lower()
                    ]
        assert not failures
