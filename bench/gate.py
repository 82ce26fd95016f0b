"""Correctness gate for the artifacts one CLI invocation writes.

``check_run`` returns a list of failure messages (empty when the artifacts
pass).  Invariant checks need no reference; the reference check compares a
compact fingerprint of each artifact with one recorded at the seed commit
(``bench/reference/<workload>.json``), at relative 1e-6.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
REFERENCE_RTOL = 1e-6
# Entries far below a column's scale (Wigner tails) are compared at
# REFERENCE_RTOL of this share of the column's largest magnitude.
REFERENCE_FLOOR = 1e-3
# Criterion-10 tolerances of the acceptance suite.
ORACLE_TOLERANCES = {
    "max_chi_err": 1e-5,
    "max_first_moment_err": 1e-5,
    "max_second_moment_err": 1e-5,
    "purity_err": 1e-4,
}
WIGNER_NORM_TOL = 1e-3
# 1 - purity rounds to exactly 1.0 only when purity < 2**-53.  The purity of a
# coherent mixture is at most (sum |w_rs|)**2 / prod(D); requiring
# prod(D) >= 2**60 leaves room for (sum |w_rs|)**2 up to 128.
ROUNDED_ENTROPY_MIN_LOG2_DET = 60.0
WIGNER_STRIDE = 1009


def _number(text):
    return math.inf if text == "inf" else float(text)


def read_csv(path: Path):
    """Header-stripped CSV artifact: (column names, rows of strings)."""
    lines = [line for line in path.read_text().splitlines() if not line.startswith("#")]
    rows = list(csv.reader(lines))
    return rows[0], rows[1:]


def _columns(path: Path) -> dict:
    names, rows = read_csv(path)
    return {name: [_number(row[i]) for row in rows] for i, name in enumerate(names)}


def _inverse(value: float) -> float:
    return 0.0 if math.isinf(value) else 1.0 / value


def _tau_report(path: Path) -> dict:
    payload = json.loads(path.read_text())

    def time(value):
        return _number(value) if isinstance(value, str) else float(value)

    report = {key: time(payload[key]) for key in ("tau_diff", "tau_int", "tau_d")}
    report["tau_directional"] = [time(v) for v in payload["tau_directional"]]
    report["regime"] = payload["regime"]
    return report


# ---------------------------------------------------------------------------
# Invariants


def check_tau_report(path: Path) -> list:
    report = _tau_report(path)
    lhs = _inverse(report["tau_d"])
    rhs = _inverse(report["tau_diff"]) + _inverse(report["tau_int"])
    if abs(lhs - rhs) > 1e-12 * max(abs(lhs), abs(rhs)):
        return [f"tau_report: 1/tau_d = {lhs!r} but 1/tau_diff + 1/tau_int = {rhs!r}"]
    return []


def check_entropy(path: Path, dcoef: Path) -> list:
    """Every value in [0, 1); a value that rounds to 1.0 needs a provably tiny purity."""
    curve = _columns(path)
    log2_det = {}
    if dcoef.exists():
        cols = _columns(dcoef)
        modes = [name for name in cols if name != "t"]
        for i, t in enumerate(cols["t"]):
            log2_det[t] = sum(math.log2(cols[m][i]) for m in modes)
    failures = []
    for t, value in zip(curve["t"], curve["linear_entropy"]):
        if not 0.0 <= value <= 1.0:
            failures.append(f"entropy_curve: {value!r} at t = {t!r} is outside [0, 1)")
        elif value == 1.0 and log2_det.get(t, 0.0) < ROUNDED_ENTROPY_MIN_LOG2_DET:
            failures.append(
                f"entropy_curve: 1.0 at t = {t!r} without a diffusion determinant "
                f">= 2**{ROUNDED_ENTROPY_MIN_LOG2_DET:g} to account for the rounding"
            )
    return failures


def check_wigner_norm(path: Path, config: dict) -> list:
    node = config["wigner_grid"]
    points = node["points"]
    cell = 1.0
    for re_min, re_max, im_min, im_max in node["ranges"]:
        cell *= (re_max - re_min) / (points - 1) * (im_max - im_min) / (points - 1)
    total = math.fsum(_columns(path)["wigner"]) * cell
    if abs(total - 1.0) > WIGNER_NORM_TOL:
        return [f"wigner_grid: sum x cell volume = {total!r}, not 1 within {WIGNER_NORM_TOL}"]
    return []


def check_oracle(path: Path) -> list:
    cols = _columns(path)
    failures = []
    for name, tol in ORACLE_TOLERANCES.items():
        worst = max(cols[name])
        if not worst < tol:
            failures.append(f"oracle_compare: {name} reaches {worst!r} >= {tol}")
    return failures


# ---------------------------------------------------------------------------
# Reference fingerprints


def fingerprint(out_dir: Path) -> dict:
    """Compact numeric summary of every artifact in a run's output directory."""
    prints = {}
    tau = out_dir / "tau_report.json"
    if tau.exists():
        report = _tau_report(tau)
        prints["tau_report"] = {
            "regime": report["regime"],
            "tau_diff": [report["tau_diff"]],
            "tau_int": [report["tau_int"]],
            "tau_d": [report["tau_d"]],
            "tau_directional": report["tau_directional"],
        }
    path = out_dir / "dcoef.csv"
    if path.exists():
        cols = _columns(path)
        modes = [name for name in cols if name != "t"]
        prints["dcoef"] = {
            "t": cols["t"],
            "mode_sums": [math.fsum(cols[m]) for m in modes],
            "time_sums": [math.fsum(row) for row in zip(*(cols[m] for m in modes))],
        }
    path = out_dir / "entropy_curve.csv"
    if path.exists():
        prints["entropy_curve"] = _columns(path)
    path = out_dir / "wigner_grid.csv"
    if path.exists():
        values = _columns(path)["wigner"]
        prints["wigner_grid"] = {
            "sample": values[::WIGNER_STRIDE],
            "sums": [math.fsum(values), math.fsum(abs(v) for v in values), math.fsum(v * v for v in values)],
            "count": [len(values)],
        }
    path = out_dir / "oracle_compare.csv"
    if path.exists():
        # The error columns are round-off between two independent solvers;
        # they are bounded by ORACLE_TOLERANCES, not compared here.
        prints["oracle_compare"] = {"t": _columns(path)["t"]}
    path = out_dir / "sweep.csv"
    if path.exists():
        names, rows = read_csv(path)
        prints["sweep"] = {
            "keys": [";".join(row[:3]) for row in rows],
            "result": [_number(row[3]) for row in rows],
        }
    return prints


def _close(a: float, b: float, scale: float) -> bool:
    if math.isinf(a) or math.isinf(b):
        return a == b
    return abs(a - b) <= REFERENCE_RTOL * max(abs(b), REFERENCE_FLOOR * scale)


def compare(actual: dict, reference: dict) -> list:
    failures = []
    for artifact, fields in reference.items():
        if artifact not in actual:
            failures.append(f"reference: {artifact} missing")
            continue
        for field, want in fields.items():
            got = actual[artifact].get(field)
            if isinstance(want, str) or (want and isinstance(want[0], str)):
                if got != want:
                    failures.append(f"reference: {artifact}.{field} differs")
                continue
            if got is None or len(got) != len(want):
                failures.append(f"reference: {artifact}.{field} has the wrong length")
                continue
            finite = [abs(w) for w in want if not math.isinf(w)]
            scale = max(finite, default=0.0)
            bad = [i for i, (g, w) in enumerate(zip(got, want)) if not _close(g, w, scale)]
            if bad:
                i = bad[0]
                failures.append(
                    f"reference: {artifact}.{field}[{i}] = {got[i]!r}, recorded {want[i]!r}"
                    f" ({len(bad)} of {len(want)} entries outside rtol {REFERENCE_RTOL})"
                )
    return failures


def reference_key(seed: int, smoke: bool) -> str:
    return f"smoke:{seed}" if smoke else str(seed)


def load_reference(workload: str, seed: int, smoke: bool):
    path = REFERENCE_DIR / f"{workload}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(reference_key(seed, smoke))


def record_reference(workload: str, seed: int, smoke: bool, out_dir: Path):
    REFERENCE_DIR.mkdir(exist_ok=True)
    path = REFERENCE_DIR / f"{workload}.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    table[reference_key(seed, smoke)] = fingerprint(out_dir)
    ordered = dict(sorted(table.items()))
    path.write_text(json.dumps(ordered, separators=(",", ":"), sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Entry point


def check_run(workload: str, config: dict, out_dir: Path, reference) -> list:
    """All checks for one invocation's artifacts; ``reference`` may be None."""
    failures = []
    if (out_dir / "tau_report.json").exists():
        failures += check_tau_report(out_dir / "tau_report.json")
    if (out_dir / "entropy_curve.csv").exists():
        failures += check_entropy(out_dir / "entropy_curve.csv", out_dir / "dcoef.csv")
    if workload == "ring_wigner":
        failures += check_wigner_norm(out_dir / "wigner_grid.csv", config)
    if workload == "oracle_check":
        failures += check_oracle(out_dir / "oracle_compare.csv")
    if reference is not None:
        failures += compare(fingerprint(out_dir), reference)
    return failures


def check_sweep_identity(pooled: bytes, serial) -> list:
    """A pooled sweep.csv must equal, byte for byte, the traced run's serial one."""
    if pooled != serial:
        return ["sweep: pooled CSV differs from the serial CSV of the traced run"]
    return []
