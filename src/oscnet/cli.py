"""Command-line interface: validated JSON configs in, CSV/JSON artifacts out.

Verbs:

* ``run <config>``      -- execute one configuration, write the requested outputs
* ``sweep <config> --axis <path>=<start:stop:steps>`` -- cross-product runs,
  long-form CSV (one row per point and metric)
* ``validate <config>`` -- schema-check and echo the canonical form
* ``selftest``          -- seeded randomized property checks

Outputs are deterministic for identical configs.  ``sweep`` runs its points
sequentially in process; ``--serial`` is accepted and has no effect.  Every
file starts with a header block carrying the config hash and package version;
CSV rows are streamed to a temporary file in blocks and renamed into place.

``run`` and ``sweep`` pin every mapped OpenBLAS to one thread while they run
and restore the earlier count afterwards: their work is many small dense
eigensolves and products, where the thread pool's hand-offs cost more than
the flops.  Setting ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` turns the pin off.  ``dcoef`` and ``entropy_curve`` share
one pass over the times, building each time's propagator bundle once.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import hashlib
import itertools
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, OscnetError
from .metrics import decoherence_report, linear_entropy
from .network import NetworkSpec
from .oracle import (
    FockSpace,
    density_from_coherent,
    evolve_master,
    expect_lowering,
    expect_number_matrix,
    oracle_char,
    oracle_purity,
    select_cutoff,
)
from .phasespace import char_function, moments, wigner_grid
from .propagation import Model, build_model
from .reservoirs import GaussianBand, Lorentzian, ReservoirSpec, WhiteNoise
from .states import (
    CoherentMixture,
    build_cat_family,
    coherent_mixture,
    coherent_superposition,
)

OUTPUT_KINDS = ("tau_report", "dcoef", "wigner_grid", "entropy_curve", "oracle_compare")


# ---------------------------------------------------------------------------
# Config parsing


def _get(config, path, default=None, required=False):
    node = config
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            if required:
                raise ConfigError(path, "missing required field")
            return default
        node = node[key]
    return node


def _complex_field(value, path):
    if isinstance(value, (int, float)):
        return complex(value)
    if isinstance(value, (list, tuple)) and len(value) == 2:
        try:
            return complex(float(value[0]), float(value[1]))
        except (TypeError, ValueError):
            pass
    raise ConfigError(path, "expected a number or [re, im] pair")


def _number(convert, value, path):
    """``convert(value)``, or a ConfigError naming ``path``."""
    try:
        return convert(value)
    except (TypeError, ValueError):
        raise ConfigError(path, "expected a number") from None


def _floats(value, path):
    return _number(lambda v: np.asarray(v, dtype=float), value, path)


def _per_mode(value, path, n):
    """One float per mode; a single number is repeated ``n`` times."""
    values = _floats(value, path)
    values = np.full(n, values) if values.ndim == 0 else values
    if values.shape != (n,):
        raise ConfigError(path, f"expected {n} entries")
    return values


def _positive_int(value, path):
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise ConfigError(path, "expected a positive integer")
    return value


def _parse_network(config) -> NetworkSpec:
    n = _positive_int(_get(config, "network.n", required=True), "network.n")
    omega = _per_mode(_get(config, "network.omega", required=True), "network.omega", n)
    lam = _floats(_get(config, "network.coupling", 0.0), "network.coupling")
    if lam.ndim == 0:
        lam = np.full((n, n), lam)
        np.fill_diagonal(lam, 0.0)
    try:
        return NetworkSpec(omega=omega, coupling=lam)
    except OscnetError as exc:
        raise ConfigError("network", str(exc)) from exc


_PROFILES = {"white": WhiteNoise, "lorentzian": Lorentzian, "gaussian_band": GaussianBand}


def _parse_profile(node, path):
    if not isinstance(node, dict) or "kind" not in node:
        raise ConfigError(path, "expected an object with a 'kind' field")
    kind = node["kind"]
    profile = _PROFILES.get(kind) if isinstance(kind, str) else None
    if profile is None:
        raise ConfigError(f"{path}.kind", f"unknown profile kind {kind!r}")
    try:
        return profile(*(float(node[f.name]) for f in dataclasses.fields(profile)))
    except KeyError as exc:
        raise ConfigError(path, f"missing profile field {exc}") from exc
    except (TypeError, ValueError, OscnetError) as exc:
        raise ConfigError(path, str(exc)) from exc


def _parse_reservoirs(config, n) -> ReservoirSpec:
    path = "reservoirs.temperature"
    temps = _per_mode(_get(config, path, required=True), path, n)
    profile = _get(config, "reservoirs.profile", required=True)
    if isinstance(profile, dict):
        profiles = [_parse_profile(profile, "reservoirs.profile")] * n
    else:
        if len(profile) != n:
            raise ConfigError("reservoirs.profile", f"expected {n} entries")
        profiles = [
            _parse_profile(p, f"reservoirs.profile[{i}]") for i, p in enumerate(profile)
        ]
    overlap = _get(config, "reservoirs.overlap")
    if overlap is not None:
        overlap = _floats(overlap, "reservoirs.overlap")
    common = bool(_get(config, "reservoirs.common", False))
    if common and np.any(temps != temps[0]):
        raise ConfigError(
            "reservoirs.temperature", "a common reservoir has a single temperature"
        )
    try:
        return ReservoirSpec(
            temperatures=temps,
            profiles=tuple(profiles),
            common=common,
            overlap=overlap,
        )
    except OscnetError as exc:
        raise ConfigError("reservoirs", str(exc)) from exc


def _parse_state(config, n) -> CoherentMixture:
    kind = _get(config, "state.kind", required=True)
    if kind == "cat":
        r = _number(int, _get(config, "state.r", 1), "state.r")
        s = _number(int, _get(config, "state.s", 0), "state.s")
        alpha = _complex_field(_get(config, "state.alpha", required=True), "state.alpha")
        beta = _complex_field(_get(config, "state.beta", 0.0), "state.beta")
        sign = _number(int, _get(config, "state.sign", 1), "state.sign")
        try:
            return build_cat_family(n, r, s, alpha, beta, sign)
        except OscnetError as exc:
            field = "state.r" if "exceeds" in str(exc) else "state"
            raise ConfigError(field, str(exc)) from exc
    if kind == "coherent":
        branches_node = _get(config, "state.branches", required=True)
        branches = []
        for i, b in enumerate(branches_node):
            comps = b.get("components", [])
            coeffs = []
            vectors = []
            for j, c in enumerate(comps):
                where = f"state.branches[{i}].components[{j}]"
                if not isinstance(c, dict) or "amplitude" not in c or "beta" not in c:
                    raise ConfigError(where, "needs 'amplitude' and 'beta' fields")
                coeffs.append(_complex_field(c["amplitude"], f"{where}.amplitude"))
                vec = [_complex_field(z, f"{where}.beta") for z in c["beta"]]
                if len(vec) != n:
                    raise ConfigError(f"{where}.beta", f"expected {n} modes")
                vectors.append(vec)
            try:
                branches.append(
                    coherent_superposition(coeffs, vectors, b.get("weight", 1.0))
                )
            except OscnetError as exc:
                raise ConfigError(f"state.branches[{i}]", str(exc)) from exc
        try:
            return coherent_mixture(branches)
        except OscnetError as exc:
            raise ConfigError("state.branches", str(exc)) from exc
    raise ConfigError("state.kind", f"unknown state kind {kind!r}")


def _parse_times(config) -> np.ndarray:
    node = _get(config, "times", required=True)
    if not isinstance(node, dict):
        raise ConfigError("times", "expected an object with 'list' or start/stop/steps")
    if "list" in node:
        try:
            times = np.asarray([float(t) for t in node["list"]], dtype=float)
        except (TypeError, ValueError):
            raise ConfigError("times.list", "expected a list of numbers") from None
    else:
        start = _number(float, node.get("start", 0.0), "times.start")
        stop = _number(float, node.get("stop", 0.0), "times.stop")
        steps = node.get("steps", 0)
        if not isinstance(steps, int) or steps < 2 or stop <= start:
            raise ConfigError("times", "need start < stop and integer steps >= 2")
        times = np.linspace(start, stop, steps)
    if times.size < 1 or np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ConfigError("times", "times must be increasing and >= 0")
    return times


def _parse_wigner_grid(config, n, times):
    """The grid's (points, ranges, time index), defaults filled in."""
    node = _get(config, "wigner_grid")
    node = {} if node is None else node
    if not isinstance(node, dict):
        raise ConfigError("wigner_grid", "expected an object")
    points = _positive_int(node.get("points", 41), "wigner_grid.points")
    ranges = node.get("ranges", [[-3.0, 3.0, -3.0, 3.0]] * n)
    if not isinstance(ranges, (list, tuple)) or len(ranges) != n:
        raise ConfigError("wigner_grid.ranges", f"expected {n} range tuples")
    for bounds in ranges:
        if not (
            isinstance(bounds, (list, tuple))
            and len(bounds) == 4
            and all(
                isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
                for v in bounds
            )
        ):
            raise ConfigError(
                "wigner_grid.ranges",
                f"expected [re_min, re_max, im_min, im_max] finite numbers, not {bounds!r}",
            )
    index = node.get("time_index", -1)
    if type(index) is not int or not -len(times) <= index < len(times):
        raise ConfigError(
            "wigner_grid.time_index", f"expected an index into the {len(times)} times"
        )
    return points, ranges, index


def _parse_oracle(config):
    """The oracle's Fock cutoff ``n_max``, or None to have it chosen."""
    node = _get(config, "oracle")
    if node is not None and not isinstance(node, dict):
        raise ConfigError("oracle", "expected an object")
    n_max = _get(config, "oracle.n_max")
    return None if n_max is None else _positive_int(n_max, "oracle.n_max")


def _parse_outputs(config):
    outputs = _get(config, "outputs", ["tau_report"])
    for out in outputs:
        if out not in OUTPUT_KINDS:
            raise ConfigError("outputs", f"unknown output {out!r}")
    return outputs


def parse_config(config: dict):
    """Validate a raw config tree into model inputs; raises ConfigError."""
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    network = _parse_network(config)
    reservoirs = _parse_reservoirs(config, network.n)
    regime = _get(config, "regime", "auto")
    if regime not in ("auto", "weak", "strong"):
        raise ConfigError("regime", f"expected auto|weak|strong, got {regime!r}")
    state = _parse_state(config, network.n)
    times = _parse_times(config)
    _parse_wigner_grid(config, network.n, times)
    _parse_oracle(config)
    outputs = _parse_outputs(config)
    return network, reservoirs, regime, state, times, outputs


def canonical_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def config_hash(config: dict) -> str:
    return hashlib.sha256(canonical_json(config).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Output writers


def _write_atomic(path: Path, text: str):
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


# Rows formatted per write: the table's text never sits in memory whole.
_CSV_BLOCK_ROWS = 4096


def _write_csv(path: Path, config, columns, rows, digest=None):
    """Write the header, the column names and ``rows`` to ``path`` atomically.

    ``rows`` is a list of rows, formatted in blocks of ``_CSV_BLOCK_ROWS``,
    or an iterator of text blocks formatted already.  ``digest`` is
    ``config_hash(config)``, passed in by callers that write several
    artifacts of one config.
    """
    if digest is None:
        digest = config_hash(config)
    blocks = _row_blocks(rows) if isinstance(rows, list) else rows
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as out:
        out.write(f"# oscnet {__version__}\n# config_hash {digest}\n")
        out.write(",".join(columns) + "\n")
        for block in blocks:
            out.write(block)
    os.replace(tmp, path)


def _row_blocks(rows):
    for start in range(0, len(rows), _CSV_BLOCK_ROWS):
        block = rows[start : start + _CSV_BLOCK_ROWS]
        yield "".join(",".join(map(_format_value, row)) + "\n" for row in block)


def _format_value(value):
    if type(value) is float and not math.isinf(value):
        return repr(value)  # fast path: plain finite floats fill most tables
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    value = float(value)
    return "inf" if math.isinf(value) else repr(value)


def _json_time(value: float):
    return "inf" if math.isinf(value) else value


def _write_tau_report(path: Path, digest: str, state, model: Model, times):
    report = decoherence_report(state, model, times)
    payload = {
        "meta": {"oscnet": __version__, "config_hash": digest},
        "tau_diff": _json_time(report.tau_diff),
        "tau_directional": [_json_time(t) for t in report.tau_directional],
        "tau_int": _json_time(report.tau_int),
        "tau_d": _json_time(report.tau_d),
        "regime": report.regime,
    }
    _write_atomic(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return payload


def _time_curves(state, model: Model, times, outputs) -> dict:
    """The requested ``dcoef`` and ``entropy_curve`` tables, {kind: (columns, rows)}.

    One pass over ``times`` builds each time's bundle once, feeds both tables
    and drops it: keeping every bundle would hold several N x N complex
    matrices per time for no further use.
    """
    rows = {kind: [] for kind in ("dcoef", "entropy_curve") if kind in outputs}
    for t in times if rows else ():
        bundle = model.propagator.bundle(t)
        if "dcoef" in rows:
            rows["dcoef"].append([t, *bundle.diffusion_coeffs])
        if "entropy_curve" in rows:
            rows["entropy_curve"].append([t, linear_entropy(state, bundle)])
    columns = {
        "dcoef": ["t"] + [f"d{m + 1}" for m in range(model.network.n)],
        "entropy_curve": ["t", "linear_entropy"],
    }
    return {kind: (columns[kind], table) for kind, table in rows.items()}


def _wigner_table(config, state, model: Model, times):
    points, ranges, index = _parse_wigner_grid(config, model.network.n, times)
    bundle = model.propagator.bundle(times[index])
    coords, values = wigner_grid(state, bundle, ranges, points)
    columns = []
    for m in range(model.network.n):
        columns += [f"re_xi{m + 1}", f"im_xi{m + 1}"]
    columns.append("wigner")
    return columns, _grid_blocks(coords, values)


def _grid_blocks(coords, values):
    """Text blocks of the Wigner table, each coordinate formatted once.

    A grid column takes only ``points`` distinct values, so each distinct
    value (by bit pattern, which keeps -0.0 apart from 0.0) is formatted
    once and looked up per block; only the Wigner values are formatted per
    row.  The text never covers more than one block of rows.
    """
    bits = coords.view(np.int64)
    axes = []
    for j in range(coords.shape[1]):
        keys = np.unique(bits[:, j])
        text = np.array([_format_value(v) for v in keys.view(float).tolist()], dtype=object)
        axes.append((keys, text))
    for start in range(0, values.size, _CSV_BLOCK_ROWS):
        rows = slice(start, start + _CSV_BLOCK_ROWS)
        fields = [
            text[np.searchsorted(keys, bits[rows, j])].tolist()
            for j, (keys, text) in enumerate(axes)
        ]
        fields.append(map(_format_value, values[rows].tolist()))
        yield "".join(",".join(row) + "\n" for row in zip(*fields))


def _default_eta_grid(n):
    base = [0.35 + 0.0j, -0.2 + 0.3j, 0.15 - 0.25j]
    grids = np.meshgrid(*([base] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def _oracle_table(config, state, model: Model, times):
    n_max = _parse_oracle(config)
    largest_amp = max(
        float(np.max(np.abs(c.amplitudes)))
        for b in state.branches
        for c in b.components
    )
    occupations = model.rates.diffusion.diagonal() / np.maximum(
        model.rates.damping.diagonal(), 1e-300
    )
    if n_max is None:
        n_max = select_cutoff(largest_amp, float(np.max(occupations)))
    space = FockSpace(model.network.n, n_max)
    rho0 = density_from_coherent(space, state)
    evolved = evolve_master(
        rho0,
        model.hamiltonian,
        model.rates.damping,
        model.rates.diffusion,
        times,
        space,
    )
    eta_pts = _default_eta_grid(model.network.n)
    rows = []
    for snapshot in evolved:
        bundle = model.propagator.bundle(snapshot.t)
        chi_model = char_function(state, eta_pts, bundle)
        chi_oracle = np.array(
            [oracle_char(snapshot.rho, eta, space) for eta in eta_pts]
        )
        first, second = moments(state, bundle)
        err_first = np.max(np.abs(first - expect_lowering(snapshot.rho, space)))
        err_second = np.max(np.abs(second - expect_number_matrix(snapshot.rho, space)))
        purity_model = 1.0 - linear_entropy(state, bundle)
        rows.append(
            [
                snapshot.t,
                float(np.max(np.abs(chi_model - chi_oracle))),
                float(err_first),
                float(err_second),
                abs(purity_model - oracle_purity(snapshot.rho)),
            ]
        )
    columns = ["t", "max_chi_err", "max_first_moment_err", "max_second_moment_err", "purity_err"]
    return columns, rows


# ---------------------------------------------------------------------------
# Commands

# Any of these, when set, leaves the BLAS thread count to the user.
_BLAS_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every mapped OpenBLAS on one thread, then restore.

    A command is a chain of small dense problems (N up to a few hundred), on
    which OpenBLAS's thread pool costs more in hand-offs than it gains.  Every
    OpenBLAS mapped on entry is found in /proc/self/maps and set through
    ``openblas_set_num_threads_local``, which returns the count it replaces
    (in the pthreads builds the wheels ship, that count is process-wide).  A
    Gaussian run uses numpy alone, so numpy's copy is the one mapped and the
    pin covers it, as it does for the Fock oracle, which uses only
    ``scipy.sparse``.  scipy's wheel ships its own OpenBLAS, which is mapped
    later, inside the body, and only by profile overlaps (``quad``) or the
    Sylvester fallback; the maps are not scanned again, so that copy keeps
    its own thread count.  Does nothing when a thread-count variable is set,
    without /proc, or when no mapped library has the symbol (MKL,
    Accelerate).
    """
    setters = []
    if not any(name in os.environ for name in _BLAS_THREAD_VARIABLES):
        try:
            with open("/proc/self/maps") as maps:
                paths = {line.split(maxsplit=5)[-1].strip() for line in maps}
        except OSError:
            paths = set()
        for path in sorted(p for p in paths if "openblas" in os.path.basename(p)):
            try:
                setter = ctypes.CDLL(path).openblas_set_num_threads_local
            except (OSError, AttributeError):
                continue
            setter.argtypes, setter.restype = [ctypes.c_int], ctypes.c_int
            setters.append(setter)
    previous = [setter(1) for setter in setters]
    try:
        yield
    finally:
        for setter, count in zip(setters, previous):
            setter(count)


@_one_blas_thread()
def run_config(config: dict, out_dir: Path) -> dict:
    """Execute one validated config; returns {output kind: file path}."""
    network, reservoirs, regime, state, times, outputs = parse_config(config)
    model = build_model(network, reservoirs, regime)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(config)
    tables = _time_curves(state, model, times, outputs)
    written = {}
    for kind in outputs:
        if kind == "tau_report":
            path = out_dir / "tau_report.json"
            _write_tau_report(path, digest, state, model, times)
        else:
            path = out_dir / f"{kind}.csv"
            if kind in tables:
                columns, rows = tables[kind]
            elif kind == "wigner_grid":
                columns, rows = _wigner_table(config, state, model, times)
            else:
                columns, rows = _oracle_table(config, state, model, times)
            _write_csv(path, config, columns, rows, digest)
        written[kind] = str(path)
    return written


# ---------------------------------------------------------------------------
# Sweep


def _set_path(config: dict, path: str, value):
    node = config
    keys = path.split(".")
    for key in keys[:-1]:
        if key not in node or not isinstance(node[key], dict):
            raise ConfigError(path, "axis path does not exist in the config")
        node = node[key]
    if keys[-1] not in node:
        raise ConfigError(path, "axis path does not exist in the config")
    node[keys[-1]] = value


def _parse_axis(text: str):
    if "=" not in text:
        raise ConfigError("--axis", "expected <path>=<start:stop:steps>")
    path, spec = text.split("=", 1)
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("--axis", "expected <start:stop:steps>")
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(
            f"--axis {path.strip()}", "start and stop must be numbers, steps an integer"
        ) from None
    if steps < 1:
        raise ConfigError("--axis", "steps must be >= 1")
    values = np.linspace(start, stop, steps) if steps > 1 else np.array([start])
    if path.endswith(".n"):
        values = values.astype(int)
    return path.strip(), [v.item() for v in values]


def _sweep_metrics(config: dict) -> list[tuple[str, float]]:
    network, reservoirs, regime, state, times, _ = parse_config(config)
    model = build_model(network, reservoirs, regime)
    report = decoherence_report(state, model, times)
    return [
        ("tau_diff", report.tau_diff),
        ("tau_int", report.tau_int),
        ("tau_d", report.tau_d),
    ]


@_one_blas_thread()
def run_sweep(config: dict, axes, out_dir: Path, serial: bool) -> Path:
    """Cross-product sweep over one or two axes; long-form CSV output.

    Points run sequentially in process; ``serial`` is accepted and has no
    effect.
    """
    if len(axes) > 2:
        raise ConfigError("--axis", "at most two swept axes are supported")
    grids = [[(path, v) for v in values] for path, values in axes]
    rows = []
    for combo in itertools.product(*grids):
        job = json.loads(canonical_json(config))
        for path, value in combo:
            _set_path(job, path, value)
        if not combo:
            label, value = "none", 0.0
        elif len(combo) == 1:
            label, value = combo[0]
        else:
            label = ";".join(path for path, _ in combo)
            value = ";".join(_format_value(v) for _, v in combo)
        rows.extend((label, value, name, metric) for name, metric in _sweep_metrics(job))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    _write_csv(path, config, ["axis", "value", "metric", "result"], rows)
    return path


# ---------------------------------------------------------------------------
# Selftest


def run_selftest(seed: int) -> bool:
    """Randomized property checks mirroring the library invariants."""
    from .network import dissipative_matrix, normal_modes
    from .propagation import transition_matrix
    from .stationary import solve_pi_eigen, solve_pi_vec

    rng = np.random.default_rng(seed)
    ok = True
    for trial in range(20):
        n = int(rng.integers(1, 5))
        basis, _ = np.linalg.qr(rng.normal(size=(n, n)))
        h = basis.T @ np.diag(rng.uniform(0.5, 3.0, size=n)) @ basis
        h = 0.5 * (h + h.T)  # exact symmetry for the eigensolver contract
        damping = np.diag(rng.uniform(0.05, 0.4, size=n))
        raw = rng.normal(size=(n, n))
        diffusion = 0.05 * (raw @ raw.T)
        dis = dissipative_matrix(h, damping)
        a = solve_pi_vec(dis, diffusion).matrix
        b = solve_pi_eigen(dis, diffusion).matrix
        if np.max(np.abs(a - b)) > 1e-9:
            print(f"selftest: stationary route mismatch on trial {trial}")
            ok = False
        t1, t2 = rng.uniform(0.1, 2.0, size=2)
        semi = transition_matrix(dis, t1 + t2) - transition_matrix(
            dis, t1
        ) @ transition_matrix(dis, t2)
        if np.max(np.abs(semi)) > 1e-10:
            print(f"selftest: transition semigroup violated on trial {trial}")
            ok = False
        modes = normal_modes(h)
        gram = modes.transform @ modes.transform.T
        if np.max(np.abs(gram - np.eye(n))) > 1e-12:
            print(f"selftest: mode transform not orthogonal on trial {trial}")
            ok = False
    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return ok


# ---------------------------------------------------------------------------
# Entry point


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("<file>", f"invalid JSON: {exc}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oscnet",
        description="Dissipative oscillator networks at finite temperature",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one configuration")
    p_run.add_argument("config")
    p_run.add_argument("--out", default="out")

    p_sweep = sub.add_parser("sweep", help="sweep one or two config fields")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--axis", action="append", default=[])
    p_sweep.add_argument("--out", default="out")
    p_sweep.add_argument("--serial", action="store_true")

    p_val = sub.add_parser("validate", help="schema-check a configuration")
    p_val.add_argument("config")

    p_self = sub.add_parser("selftest", help="seeded randomized property checks")
    p_self.add_argument("--seed", type=int, default=0)

    args = parser.parse_args(argv)
    try:
        if args.command == "validate":
            config = _load_config(args.config)
            parse_config(config)
            print(canonical_json(config))
            print(f"config_hash {config_hash(config)}")
            return 0
        if args.command == "run":
            config = _load_config(args.config)
            written = run_config(config, Path(args.out))
            for kind, path in written.items():
                print(f"{kind}: {path}")
            return 0
        if args.command == "sweep":
            config = _load_config(args.config)
            axes = [_parse_axis(a) for a in args.axis]
            path = run_sweep(config, axes, Path(args.out), serial=args.serial)
            print(f"sweep: {path}")
            return 0
        if args.command == "selftest":
            return 0 if run_selftest(args.seed) else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OscnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
