import ctypes
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import oscnet as osc
from oscnet import cli, phasespace, propagation
from oscnet.cli import canonical_json, config_hash, parse_config, run_config, run_sweep
from oscnet.errors import ConfigError


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


def _run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "oscnet", *args], capture_output=True, text=True
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

    def test_malformed_axis_names_field(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(_base_config()))
        proc = _run_cli(
            "sweep", str(path), "--axis", "network.n=a:64:8", "--out", str(tmp_path)
        )
        assert proc.returncode == 2
        assert "--axis network.n" in proc.stderr
        assert "Traceback" not in proc.stderr

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
            assert f"config error: {field}:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "node, field",
        [
            ({"n_max": "ten"}, "oracle.n_max"),
            ({"n_max": 2.7}, "oracle.n_max"),
            ({"n_max": 0}, "oracle.n_max"),
            ({"n_max": True}, "oracle.n_max"),
            ([1], "oracle"),
            ("big", "oracle"),
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
        ],
    )
    def test_non_numeric_field_named(self, path, value, tmp_path, capsys):
        config = _base_config()
        parent, key = path.rsplit(".", 1)
        cli._get(config, parent)[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        for argv in (["validate", str(cfg)], ["run", str(cfg), "--out", str(out)]):
            assert cli.main(argv) == 2
            assert f"config error: {path}:" in capsys.readouterr().err
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
        # The Wigner table as it was written before per-axis formatting: every
        # value of ``np.column_stack(...).tolist()`` through ``_format_value``.
        network, reservoirs, regime, state, times, _ = parse_config(config)
        model = osc.build_model(network, reservoirs, regime)
        node = config["wigner_grid"]
        bundle = model.propagator.bundle(times[node.get("time_index", -1)])
        coords, values = osc.wigner_grid(state, bundle, node["ranges"], node["points"])
        columns = []
        for m in range(network.n):
            columns += [f"re_xi{m + 1}", f"im_xi{m + 1}"]
        columns.append("wigner")
        rows = np.column_stack([coords, values]).tolist()
        text = f"# oscnet {osc.__version__}\n# config_hash {config_hash(config)}\n"
        text += ",".join(columns) + "\n"
        text += "".join(",".join(map(cli._format_value, row)) + "\n" for row in rows)
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
            # The formatter before its plain-float fast path, kept verbatim.
            if isinstance(value, str):
                return value
            if isinstance(value, (int, np.integer)):
                return str(int(value))
            value = float(value)
            return "inf" if math.isinf(value) else repr(value)

        rows = [
            [1.5, -0.0, 0.0, 3, np.int64(-7), "abc", math.inf, -math.inf],
            [np.float64(-math.inf), np.float64(1e-5), 5e-324, 1e300, math.nan],
            [True, np.float32(0.1), np.float64(-0.0), 0.1 + 0.2, -2.5e-17, ""],
            np.array([[-2.5, 0.125, math.inf, -math.inf]]).tolist()[0],
        ]
        for row in rows:
            for value in row:
                assert cli._format_value(value) == earlier(value)
        path = tmp_path / "table.csv"
        cli._write_csv(path, _base_config(), ["a", "b"], rows)
        body = path.read_text().splitlines()[3:]
        assert body == [",".join(earlier(v) for v in row) for row in rows]

    def test_csv_blocks_do_not_change_bytes(self, tmp_path, monkeypatch):
        table = np.linspace(-1.0, 1.0, 30).reshape(10, 3) ** 3
        whole = tmp_path / "whole.csv"
        cli._write_csv(whole, _base_config(), ["a", "b", "c"], table.tolist())
        monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 3)
        blocks = tmp_path / "blocks.csv"
        cli._write_csv(blocks, _base_config(), ["a", "b", "c"], table.tolist())
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

    def test_gaussian_run_loads_no_scipy(self, tmp_path):
        # Mixed white-noise and Lorentzian baths, every Gaussian output: the
        # whole run path is numpy-only.
        config = _base_config(
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
        )
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from oscnet.cli import run_config\n"
            f"written = run_config({config!r}, Path({str(tmp_path / 'out')!r}))\n"
            "print(sorted(written))\n"
            "print([m for m in sys.modules if m.startswith('scipy')])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        outputs, loaded = proc.stdout.strip().splitlines()
        assert outputs == repr(sorted(config["outputs"]))
        assert loaded == "[]"

    def test_oracle_run_loads_only_scipy_sparse(self, tmp_path):
        # The Fock oracle builds its generator with scipy.sparse and steps it
        # with its own Taylor action: no integrator, no sparse or dense linalg.
        config = _base_config(
            network={"n": 2, "omega": 1.0, "coupling": 0.2},
            reservoirs={"temperature": 0.4, "profile": {"kind": "white", "gamma": 0.05}},
            state={"kind": "cat", "r": 1, "s": 0, "alpha": 0.5},
            times={"start": 0.0, "stop": 2.0, "steps": 3},
            outputs=["oracle_compare"],
            oracle={"n_max": 8},
        )
        heavy = ("scipy.integrate", "scipy.sparse.linalg", "scipy.linalg")
        code = (
            "import sys\n"
            "from pathlib import Path\n"
            "from oscnet.cli import run_config\n"
            f"run_config({config!r}, Path({str(tmp_path / 'out')!r}))\n"
            "print('scipy.sparse' in sys.modules)\n"
            f"print([m for m in {heavy!r} if m in sys.modules])\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        sparse_loaded, loaded = proc.stdout.strip().splitlines()
        assert sparse_loaded == "True"
        assert loaded == "[]"
        assert (tmp_path / "out" / "oracle_compare.csv").exists()


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

    def test_common_reservoir_undamped_mode_fails_cleanly(self, tmp_path):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        config["reservoirs"]["common"] = True
        config["reservoirs"]["overlap"] = [[1.0, 1.0], [1.0, 1.0]]
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        proc = _run_cli("run", str(path), "--out", str(tmp_path / "out"))
        assert proc.returncode == 1
        assert "real part" in proc.stderr

    def test_common_reservoir_mixed_temperatures_rejected(self):
        config = _base_config(network={"n": 2, "omega": 1.0, "coupling": 0.1})
        config["reservoirs"]["common"] = True
        config["reservoirs"]["temperature"] = [0.5, 0.9]
        with pytest.raises(ConfigError) as err:
            parse_config(config)
        assert "reservoirs.temperature" in str(err.value)
