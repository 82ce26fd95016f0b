"""Command-line interface: validated JSON configs in, CSV/JSON artifacts out.

Verbs:

* ``run <config>``      -- execute one configuration, write the requested outputs
* ``sweep <config> --axis <path>=<start:stop:steps>`` -- cross-product runs,
  long-form CSV (one row per point and metric)
* ``validate <config>`` -- schema-check and echo the canonical form
* ``selftest``          -- seeded randomized property checks

Outputs are deterministic for identical configs.  ``sweep`` runs its points
sequentially in process; ``--serial`` is accepted and has no effect.  Every
file starts with a header block carrying the config hash and package version.
Every CSV table is written by one block formatter, :func:`_row_blocks`: a
number as its Python ``repr`` (``inf``, ``-inf``, ``nan``), a text as it is.
``run`` computes every requested artifact before it writes any: a run that
fails leaves no artifact.

``parse_config``, ``run_config`` and ``run_sweep`` evaluate under one
floating-point policy (:func:`_float_policy`): numpy raises on overflow,
invalid and divide-by-zero operations and ignores underflow, and the
caller's settings come back on return.  A parse-time error exits 2 naming
the field being built; a run-time one exits 1 naming numpy's operation and
writes no artifact.  Library callers keep numpy's settings as they have them.

``run`` and ``sweep`` use one BLAS thread: their work is many small dense
eigensolves and products, where the thread pool's hand-offs cost more than
the flops.  The command line (``oscnet.__main__``) sets
``OPENBLAS_NUM_THREADS=1`` before numpy loads; called in process, ``run``
and ``sweep`` pin every mapped OpenBLAS to one thread while they run and
restore the earlier count afterwards.  Setting ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` leaves the count to the user.
``dcoef`` and ``entropy_curve`` share one pass over the times, building each
time's propagator bundle once.

A run loads only what its outputs read.  The config hash is SHA-256 from
CPython's built-in module, not ``hashlib``, so no run maps OpenSSL.  The Fock
oracle (``oscnet.oracle``) is a lazy module whose source is read and run only
by ``oracle_compare`` and by the check of a given ``oracle.n_max``.  ``run``
hashes the config before it builds the model, so the hash's JSON text is
gone before the model's arrays exist.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import dataclasses
import importlib.util
import itertools
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import _BLAS_THREAD_VARIABLES, __version__
from .errors import ConfigError, OscnetError, ValidationError, _check_bytes, _count
from .metrics import decoherence_report, linear_entropy
from .network import NetworkSpec
from .phasespace import (
    _check_grid,
    _check_ranges,
    _grid_axes,
    char_function,
    moments,
    wigner_grid,
)
from .propagation import Model, build_model
from .reservoirs import GaussianBand, Lorentzian, ReservoirSpec, WhiteNoise
from .states import (
    CoherentMixture,
    build_cat_family,
    coherent_mixture,
    coherent_superposition,
)

# SHA-256 from CPython's built-in module, as random.py takes SHA-512: hashlib
# would map OpenSSL's libcrypto (about 3.5 MB resident) for the same digest.
try:
    from _sha2 import sha256 as _sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # CPython 3.10, 3.11
    except ImportError:
        from hashlib import sha256 as _sha256


def _lazy_import(name: str):
    """Module ``name``, put in ``sys.modules`` unexecuted if not loaded yet:
    its source is read, compiled and run on the first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


# The Fock oracle serves only oracle_compare and the check of a given
# oracle.n_max, so a Gaussian run never runs its source.  It sits in
# sys.modules all the same, for tools that patch the loaded modules'
# functions (bench/tracing.py).
_oracle = _lazy_import(f"{__package__}.oracle")

OUTPUT_KINDS = ("tau_report", "dcoef", "wigner_grid", "entropy_curve", "oracle_compare")


# ---------------------------------------------------------------------------
# Config parsing
#
# Every config value is read by ``_read`` as one of the kinds below, so one
# policy holds for every field: a number is a finite JSON number (an int or a
# float, never a bool or a string, in lists too), an integer field takes a
# JSON integer only, and a complex field takes a number or an [re, im] pair.

_REQUIRED = object()  # the default of a field a config must give


def _numbers(value, path, shape=None, fill=False):
    """Kind: finite JSON numbers, nested in lists, as a float array of ``shape``
    (None: any length); with ``fill``, one number stands for every entry."""
    try:
        values = np.asarray(value, dtype=float)
        leaves = [value]
        for _ in range(values.ndim):
            leaves = itertools.chain.from_iterable(leaves)
        types = set(map(type, leaves))
        numbers = all(t is not bool and issubclass(t, (int, float)) for t in types)
    except (TypeError, ValueError, OverflowError):
        numbers = False
    if not (numbers and np.isfinite(values).all()):
        raise ConfigError(path, "expected finite numbers")
    if fill and values.ndim == 0:
        values = np.full(shape, values)
    if shape is not None and (
        values.ndim != len(shape) or any(d not in (None, m) for d, m in zip(shape, values.shape))
    ):
        raise ConfigError(path, f"expected shape {shape}, got {values.shape}")
    return values


def _real(value, path):
    """Kind: one finite JSON number, as a float."""
    return float(_numbers(value, path, shape=()))


def _integer(value, path, low, high=math.inf):
    """Kind: a JSON integer in [low, high)."""
    if isinstance(value, bool) or not isinstance(value, int) or not low <= value < high:
        raise ConfigError(path, f"expected an integer in [{low}, {high})")
    return value


def _complex(value, path):
    """Kind: a finite number or an [re, im] pair of them, as a complex."""
    parts = _numbers(value, path)
    if parts.shape not in ((), (2,)):
        raise ConfigError(path, "expected a number or an [re, im] pair")
    return complex(*parts.reshape(-1).tolist())


def _bool(value, path):
    if not isinstance(value, bool):
        raise ConfigError(path, "expected true or false")
    return value


def _choice(value, path, options):
    """Kind: one of ``options``."""
    if value not in options:
        raise ConfigError(path, f"expected {'|'.join(options)}, got {value!r}")
    return value


def _object(value, path):
    if not isinstance(value, dict):
        raise ConfigError(path, "expected an object")
    return value


def _each(value, path, item, count=None):
    """Kind: a list (of ``count`` entries, when given), each entry read as ``item``."""
    if not isinstance(value, list) or count not in (None, len(value)):
        raise ConfigError(path, "expected a list" + (f" of {count} entries" if count else ""))
    return [item(entry, f"{path}[{i}]") for i, entry in enumerate(value)]


def _objects(value, path, count=None):
    """Kind: a list of objects, as (object, path) pairs.  With ``count``, one
    object alone also stands for all of them and comes back as the one pair."""
    if count is not None and isinstance(value, dict):
        return [(value, path)]
    return [(obj, f"{path}[{i}]") for i, obj in enumerate(_each(value, path, _object, count))]


# The fields at fixed paths: path -> (kind, default).  An object not listed
# is optional, and its absence leaves each of its fields absent.
_FIELDS = {
    "network.n": (partial(_integer, low=1), _REQUIRED),
    "network.omega": (partial(_numbers, fill=True), _REQUIRED),
    "network.coupling": (_numbers, 0.0),
    "reservoirs.temperature": (partial(_numbers, fill=True), _REQUIRED),
    "reservoirs.profile": (_objects, _REQUIRED),
    "reservoirs.overlap": (_numbers, None),
    "reservoirs.common": (_bool, False),
    "regime": (partial(_choice, options=("auto", "weak", "strong")), "auto"),
    "state.kind": (partial(_choice, options=("cat", "coherent")), _REQUIRED),
    "state.r": (partial(_integer, low=0), 1),
    "state.s": (partial(_integer, low=0), 0),
    "state.alpha": (_complex, _REQUIRED),
    "state.beta": (_complex, 0j),
    "state.sign": (partial(_integer, low=-1, high=2), 1),
    "state.branches": (_objects, _REQUIRED),
    "times": (_object, _REQUIRED),
    "times.list": (partial(_numbers, shape=(None,)), None),
    "times.start": (_real, 0.0),
    "times.stop": (_real, _REQUIRED),
    "times.steps": (partial(_integer, low=2), _REQUIRED),
    "wigner_grid.points": (partial(_integer, low=1), 41),
    "wigner_grid.ranges": (_numbers, None),
    "wigner_grid.time_index": (_integer, -1),
    "oracle.n_max": (partial(_integer, low=1), None),
    "outputs": (partial(_each, item=partial(_choice, options=OUTPUT_KINDS)), ["tau_report"]),
}


def _read(node, key, path, kind, default=_REQUIRED, **limits):
    """``node[key]`` checked as ``kind`` with ``limits``, or ``default`` when absent."""
    if key in node:
        return kind(node[key], path, **limits)
    if default is _REQUIRED:
        raise ConfigError(path, "missing required field")
    return default


def _field(config, path, **limits):
    """The field at the fixed ``path``, read as its ``_FIELDS`` entry says."""
    parent, _, key = path.rpartition(".")
    node = _field(config, parent) if parent else config
    return _read(node, key, path, *_FIELDS.get(path, (_object, {})), **limits)


@contextlib.contextmanager
def _float_policy():
    """The floating-point policy of the module docstring: numpy raises inside,
    and a FloatingPointError that :func:`_build` has not made a ConfigError
    leaves as a ValidationError naming numpy's operation."""
    with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
        try:
            yield
        except FloatingPointError as exc:
            raise ValidationError(f"floating-point error: {exc}") from exc


def _build(path, make, *args, **kwargs):
    """``make(*args, **kwargs)``; a library error, or a floating-point error
    raised under :func:`_float_policy`, becomes a ConfigError at ``path``."""
    try:
        return make(*args, **kwargs)
    except (OscnetError, FloatingPointError) as exc:
        raise ConfigError(path, str(exc)) from exc


_PROFILES = {"white": WhiteNoise, "lorentzian": Lorentzian, "gaussian_band": GaussianBand}


def _profile(node, path):
    kind = _PROFILES[_read(node, "kind", f"{path}.kind", _choice, options=tuple(_PROFILES))]
    values = [_read(node, f.name, f"{path}.{f.name}", _real) for f in dataclasses.fields(kind)]
    return _build(path, kind, *values)


def _state(config, n) -> CoherentMixture:
    if _field(config, "state.kind") == "cat":
        r, s = _field(config, "state.r"), _field(config, "state.s")
        alpha, beta = _field(config, "state.alpha"), _field(config, "state.beta")
        sign = _field(config, "state.sign")
        path = "state.r" if r + s > n else "state.sign" if sign == 0 else "state"
        return _build(path, build_cat_family, n, r, s, alpha, beta, sign)
    branches = []
    for branch, where in _field(config, "state.branches"):
        weight = _read(branch, "weight", f"{where}.weight", _real, 1.0)
        coeffs, vectors = [], []
        for component, at in _read(branch, "components", f"{where}.components", _objects, []):
            coeffs.append(_read(component, "amplitude", f"{at}.amplitude", _complex))
            vectors.append(_read(component, "beta", f"{at}.beta", _each, item=_complex, count=n))
        branches.append(_build(where, coherent_superposition, coeffs, vectors, weight))
    return _build("state.branches", coherent_mixture, branches)


# N x N complex arrays alive at once while ``run`` builds and evaluates a
# model (tracemalloc reads 15 to 16 at N = 100 and 200); a network.n whose
# working set would exceed the byte limit is refused before any allocation.
_MODEL_ARRAYS = 16


def _check_network_size(n: int, path: str) -> None:
    size = _count(n)
    what = f"a network of {size} oscillators in {_MODEL_ARRAYS} complex {size} x {size} work arrays"
    _build(path, _check_bytes, what, _MODEL_ARRAYS * 16 * n * n)


@dataclasses.dataclass(frozen=True, eq=False)
class RunSpec:
    """A validated config: the model inputs, the outputs, the Wigner grid's
    (points, ranges, time index) and the oracle's ``n_max`` (None: chosen)."""

    network: NetworkSpec
    reservoirs: ReservoirSpec
    regime: str
    state: CoherentMixture
    times: np.ndarray
    outputs: tuple
    wigner: tuple
    n_max: int | None


def _check_tau_scan(times, state) -> None:
    # tau_int scans the times for the pair of the first branch's first two components.
    if len(times) < 2 and len(state.branches[0].components) > 1:
        raise ConfigError("times", "tau_int of this state needs at least two times")


@_float_policy()
def parse_config(config: dict) -> RunSpec:
    """Validate a raw config tree into a :class:`RunSpec`; raises ConfigError.

    A requested Wigner grid whose coords and values, points^(2n) rows of
    2n + 1 float64, would exceed the byte limit is refused here, before
    ``run`` writes anything, and so are a ``network.n``, a state and a given
    ``oracle.n_max`` whose N x N, K x K or requested oracle work arrays would.
    """
    if not isinstance(config, dict):
        raise ConfigError("<root>", "config must be a JSON object")
    n = _field(config, "network.n")
    _check_network_size(n, "network.n")
    omega = _field(config, "network.omega", shape=(n,))
    lam = _field(config, "network.coupling")
    if np.ndim(lam) == 0:
        lam = np.full((n, n), lam)
        np.fill_diagonal(lam, 0.0)
    network = _build("network", NetworkSpec, omega=omega, coupling=lam)
    temps = _field(config, "reservoirs.temperature", shape=(n,))
    profiles = [_profile(*pair) for pair in _field(config, "reservoirs.profile", count=n)]
    profiles *= n // len(profiles)  # one profile object serves every mode
    overlap = _field(config, "reservoirs.overlap")
    common = _field(config, "reservoirs.common")
    if common and np.any(temps != temps[0]):
        raise ConfigError("reservoirs.temperature", "a common reservoir has a single temperature")
    if overlap is not None and not common:
        raise ConfigError("reservoirs.overlap", 'an overlap needs "common": true')
    reservoirs = _build(
        "reservoirs",
        ReservoirSpec,
        temperatures=temps,
        profiles=tuple(profiles),
        common=common,
        overlap=overlap,
    )
    regime = _field(config, "regime")
    state = _state(config, n)
    _build("state.branches", getattr, state, "pairs")  # the K byte check
    times = _field(config, "times.list")
    if times is None:  # stop <= start gives times that do not increase
        start, stop = _field(config, "times.start"), _field(config, "times.stop")
        times = _build("times", np.linspace, start, stop, _field(config, "times.steps"))
    if times.size < 1 or np.any(times < 0) or np.any(np.diff(times) <= 0):
        raise ConfigError("times", "times must be increasing and >= 0")
    outputs = tuple(dict.fromkeys(_field(config, "outputs")))  # each kind once
    if "tau_report" in outputs:
        _check_tau_scan(times, state)
    points = _field(config, "wigner_grid.points")
    if "wigner_grid" in outputs:
        _build("wigner_grid.points", _check_grid, n, points)
    ranges = _field(config, "wigner_grid.ranges", shape=(n, 4))
    if ranges is not None:
        _build("wigner_grid.ranges", _check_ranges, ranges)
    index = _field(config, "wigner_grid.time_index", low=-len(times), high=len(times))
    wigner = (points, [[-3.0, 3.0, -3.0, 3.0]] * n if ranges is None else ranges, index)
    n_max = _field(config, "oracle.n_max")
    if n_max is not None and "oracle_compare" in outputs:
        _build("oracle.n_max", _oracle._check_working_set, (n_max + 1) ** n)
    return RunSpec(network, reservoirs, regime, state, times, outputs, wigner, n_max)


def canonical_json(config: dict) -> str:
    return json.dumps(config, sort_keys=True, separators=(",", ":"))


def _text_hash(text: str) -> str:
    """The hash of a config's canonical JSON ``text``."""
    return _sha256(text.encode()).hexdigest()[:16]


def config_hash(config: dict) -> str:
    return _text_hash(canonical_json(config))


# ---------------------------------------------------------------------------
# Output writers


def _write(path: Path, blocks):
    """Write the text ``blocks`` to a temporary file, then rename it to ``path``."""
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w") as out:
        out.writelines(blocks)
    os.replace(tmp, path)


# Rows formatted per block: the table's text never sits in memory whole.
_CSV_BLOCK_ROWS = 4096


def _table(digest, columns, rows, row_format):
    """A CSV artifact's text blocks: the header, the column names, then
    ``rows`` written as ``row_format`` by :func:`_row_blocks`."""
    yield f"# oscnet {__version__}\n# config_hash {digest}\n" + ",".join(columns) + "\n"
    yield from _row_blocks(rows, row_format)


def _row_blocks(rows, row_format):
    """Text blocks of ``rows``, each row written as ``row_format``.

    A row holds Python numbers and strings; ``row_format`` puts ``%r`` at a
    number (``repr`` writes ``inf``, ``-inf`` and ``nan`` as they are) and
    ``%s`` at a text.  Each block of ``_CSV_BLOCK_ROWS`` rows is one ``%``.
    """
    rows = iter(rows)
    while block := list(itertools.islice(rows, _CSV_BLOCK_ROWS)):
        yield (row_format * len(block)) % tuple(itertools.chain.from_iterable(block))


def _json_time(value: float):
    return "inf" if math.isinf(value) else value


def _tau_report(digest: str, spec: RunSpec, model: Model) -> str:
    report = decoherence_report(spec.state, model, spec.times)
    payload = {
        "meta": {"oscnet": __version__, "config_hash": digest},
        "tau_diff": _json_time(report.tau_diff),
        "tau_directional": [_json_time(t) for t in report.tau_directional],
        "tau_int": _json_time(report.tau_int),
        "tau_d": _json_time(report.tau_d),
        "regime": report.regime,
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _time_curves(spec: RunSpec, model: Model) -> dict:
    """The requested ``dcoef`` and ``entropy_curve`` tables, {kind: (columns, rows)}.

    One pass over the times builds each time's bundle once, feeds both tables
    and drops it, so no more than one time's bundle is held at once.  Rows
    hold Python floats, as the CSV writer takes them.
    """
    rows = {kind: [] for kind in ("dcoef", "entropy_curve") if kind in spec.outputs}
    for t in spec.times.tolist() if rows else ():
        bundle = model.propagator.bundle(t)
        if "dcoef" in rows:
            rows["dcoef"].append([t, *bundle.diffusion_coeffs.tolist()])
        if "entropy_curve" in rows:
            rows["entropy_curve"].append([t, linear_entropy(spec.state, bundle)])
    columns = {
        "dcoef": ["t"] + [f"d{m + 1}" for m in range(model.network.n)],
        "entropy_curve": ["t", "linear_entropy"],
    }
    return {kind: (columns[kind], table) for kind, table in rows.items()}


def _wigner_table(spec: RunSpec, model: Model):
    """The Wigner table as (columns, rows, row format); the grid is evaluated now.

    A row is the text of its 2N coordinates, joined from the per-axis texts
    in the grid's order (the last axis fastest), and its Wigner value.  The
    values are taken as Python floats one block at a time.
    """
    points, ranges, index = spec.wigner
    bundle = model.propagator.bundle(spec.times[index])
    values = wigner_grid(spec.state, bundle, ranges, points)[1]
    columns = []
    for m in range(model.network.n):
        columns += [f"re_xi{m + 1}", f"im_xi{m + 1}"]
    columns.append("wigner")
    texts = [list(map(repr, axis.tolist())) for axis in _grid_axes(ranges, points)]
    floats = itertools.chain.from_iterable(
        values[start : start + _CSV_BLOCK_ROWS].tolist()
        for start in range(0, values.size, _CSV_BLOCK_ROWS)
    )
    return columns, zip(map(",".join, itertools.product(*texts)), floats), "%s,%r\n"


def _default_eta_grid(n):
    base = [0.35 + 0.0j, -0.2 + 0.3j, 0.15 - 0.25j]
    grids = np.meshgrid(*([base] * n), indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=-1)


def _oracle_table(spec: RunSpec, model: Model):
    state, n_max = spec.state, spec.n_max
    largest_amp = float(np.max(np.abs(state.pairs.amplitudes)))
    occupations = model.rates.diffusion.diagonal() / np.maximum(
        model.rates.damping.diagonal(), 1e-300
    )
    if n_max is None:
        n_max = _oracle.select_cutoff(largest_amp, float(np.max(occupations)))
    space = _oracle.FockSpace(model.network.n, n_max)
    rho0 = _oracle.density_from_coherent(space, state)
    evolved = _oracle.evolve_master(
        rho0,
        model.hamiltonian,
        model.rates.damping,
        model.rates.diffusion,
        spec.times,
        space,
    )
    eta_pts = _default_eta_grid(model.network.n)
    rows = []
    for snapshot in evolved:
        bundle = model.propagator.bundle(snapshot.t)
        chi_model = char_function(state, eta_pts, bundle)
        chi_oracle = _oracle.oracle_char(snapshot.rho, eta_pts, space)
        first, second = moments(state, bundle)
        err_first = np.max(np.abs(first - _oracle.expect_lowering(snapshot.rho, space)))
        err_second = np.max(np.abs(second - _oracle.expect_number_matrix(snapshot.rho, space)))
        purity_model = 1.0 - linear_entropy(state, bundle)
        rows.append(
            [
                snapshot.t,
                float(np.max(np.abs(chi_model - chi_oracle))),
                float(err_first),
                float(err_second),
                abs(purity_model - _oracle.oracle_purity(snapshot.rho)),
            ]
        )
    columns = ["t", "max_chi_err", "max_first_moment_err", "max_second_moment_err", "purity_err"]
    return columns, rows


# ---------------------------------------------------------------------------
# Commands

@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with every mapped OpenBLAS on one thread, then restore.

    This serves in-process callers of ``run_config`` and ``run_sweep``
    (tests, the bench tracer, library users).  The command line sets
    ``OPENBLAS_NUM_THREADS=1`` before numpy loads (``oscnet.__main__``), which
    also covers scipy's OpenBLAS and starts no idle worker, so under the CLI
    this does nothing.  A command is a chain of small dense problems (N up to
    a few hundred), on which OpenBLAS's thread pool costs more in hand-offs
    than it gains.  Every OpenBLAS mapped on entry is found in
    /proc/self/maps and set through ``openblas_set_num_threads_local``, which
    returns the count it replaces (in the pthreads builds the wheels ship,
    that count is process-wide).  A Gaussian run and the Fock oracle use
    numpy alone, so numpy's copy is the one mapped and the pin covers it.
    scipy's wheel ships its own OpenBLAS, which is mapped later, inside the
    body, and only by profile overlaps (``quad``) or the Sylvester fallback;
    the maps are not scanned again, so that copy keeps its own thread count.
    Does nothing when one of ``oscnet._BLAS_THREAD_VARIABLES`` is set,
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
@_float_policy()
def run_config(config: dict, out_dir: Path) -> dict:
    """Execute one validated config; returns {output kind: file path}.

    Every requested artifact is computed, as a path and its text blocks,
    before any is written, so a run that fails leaves no artifact.  Rows are
    computed here and formatted block by block as they are written.  The
    Wigner grid comes last, so its arrays never coexist with the oracle's.
    """
    spec = parse_config(config)
    digest = config_hash(config)  # its JSON text is freed before the model exists
    model = build_model(spec.network, spec.reservoirs, spec.regime)
    out_dir.mkdir(parents=True, exist_ok=True)
    curves = _time_curves(spec, model)
    artifacts = {}
    for kind in sorted(spec.outputs, key="wigner_grid".__eq__):
        if kind == "tau_report":
            artifacts[kind] = (out_dir / "tau_report.json", [_tau_report(digest, spec, model)])
            continue
        if kind == "wigner_grid":
            columns, rows, row_format = _wigner_table(spec, model)
        else:
            columns, rows = curves[kind] if kind in curves else _oracle_table(spec, model)
            row_format = ",".join(["%r"] * len(columns)) + "\n"
        artifacts[kind] = (out_dir / f"{kind}.csv", _table(digest, columns, rows, row_format))
    for path, blocks in artifacts.values():
        _write(path, blocks)
    return {kind: str(artifacts[kind][0]) for kind in spec.outputs}


# ---------------------------------------------------------------------------
# Sweep


def _set_path(config: dict, path: str, value):
    *parents, key = path.split(".")
    for name in parents:
        config = config.get(name) if isinstance(config, dict) else None
    if not isinstance(config, dict) or key not in config:
        raise ConfigError(path, "axis path does not exist in the config")
    config[key] = value


# Bytes an axis point holds besides its Python number (tracemalloc reads 16 to 20):
# its float64 and list slot here, then that slot and one in run_sweep's product.
_AXIS_SLOT_BYTES = 24


def _parse_axis(text: str):
    """``path=start:stop:steps`` as (path, values); an integer field gets integers,
    and a point of it that is not a whole number is refused, as is a
    ``network.n`` point above the network size limit.  A non-finite bound or
    span, or more points than the byte limit allows, is refused before any
    point is made."""
    path, _, spec = text.partition("=")
    parts = spec.split(":")
    if len(parts) != 3:
        raise ConfigError("--axis", "expected <path>=<start:stop:steps>")
    path = path.strip()
    try:
        start, stop, steps = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(
            f"--axis {path}", "start and stop must be numbers, steps an integer"
        ) from None
    if steps < 1:
        raise ConfigError(f"--axis {path}", "steps must be >= 1")
    # Python float subtraction: a non-finite bound or span is inf or nan, unwarned.
    if not math.isfinite(stop - start):
        raise ConfigError(f"--axis {path}", "start, stop and stop - start must be finite")
    kind = _FIELDS.get(path, (None,))[0]
    integer = getattr(kind, "func", kind) is _integer
    # A Python int grows with its value, so the point farthest from 0 is the largest.
    largest = max(abs(start), abs(stop))
    point = _AXIS_SLOT_BYTES + sys.getsizeof(int(largest) if integer else largest)
    _build(f"--axis {path}", _check_bytes, f"{steps} axis points", point * steps)
    values = np.linspace(start, stop, steps)
    if integer and np.any(values % 1):
        raise ConfigError(f"--axis {path}", "an integer field takes whole-number points")
    # Python ints: a cast of a point past the int64 range would warn and wrap.
    values = [int(v) for v in values] if integer else values.tolist()
    if path == "network.n":
        for n in values:
            _check_network_size(n, f"--axis {path}")
    return path, values


def _sweep_metrics(config: dict) -> list[tuple[str, float]]:
    spec = parse_config(config)
    _check_tau_scan(spec.times, spec.state)
    model = build_model(spec.network, spec.reservoirs, spec.regime)
    report = decoherence_report(spec.state, model, spec.times)
    return [(name, float(getattr(report, name))) for name in ("tau_diff", "tau_int", "tau_d")]


@_one_blas_thread()
@_float_policy()
def run_sweep(config: dict, axes, out_dir: Path, serial: bool) -> Path:
    """Cross-product sweep over one or two axes; long-form CSV output.

    Points run sequentially in process; ``serial`` is accepted and has no
    effect.
    """
    if len(axes) > 2:
        raise ConfigError("--axis", "at most two swept axes are supported")
    paths = [path for path, _ in axes]
    label = ";".join(paths) or "none"
    rows = []
    for point in itertools.product(*(values for _, values in axes)):
        job = json.loads(canonical_json(config))
        for path, value in zip(paths, point):
            _set_path(job, path, value)
        value = ";".join(map(repr, point)) or "0.0"
        rows.extend((label, value, name, metric) for name, metric in _sweep_metrics(job))
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "sweep.csv"
    columns = ["axis", "value", "metric", "result"]
    _write(path, _table(config_hash(config), columns, rows, "%s,%s,%s,%r\n"))
    return path


# ---------------------------------------------------------------------------
# Selftest


def run_selftest(seed: int) -> bool:
    """Randomized property checks mirroring the library invariants."""
    from .network import dissipative_matrix
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
    print("selftest:", "all checks passed" if ok else "FAILURES above")
    return ok


# ---------------------------------------------------------------------------
# Entry point


def _load_config(path: str) -> dict:
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        raise ConfigError("<file>", f"config file not found: {path}")
    except ValueError as exc:  # a JSONDecodeError, or an integer of over 4 300 digits
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
        if args.command == "selftest":
            return 0 if run_selftest(args.seed) else 1
        config = _load_config(args.config)
        if args.command == "validate":
            parse_config(config)
            text = canonical_json(config)
            print(text)
            print(f"config_hash {_text_hash(text)}")
        elif args.command == "run":
            for kind, path in run_config(config, Path(args.out)).items():
                print(f"{kind}: {path}")
        else:
            axes = [_parse_axis(a) for a in args.axis]
            path = run_sweep(config, axes, Path(args.out), serial=args.serial)
            print(f"sweep: {path}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OscnetError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0
