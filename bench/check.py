"""Compare one invocation's outputs with the stored reference outputs.

Deterministic blocks (``diagonal-gamma``, ``f-form``, ``g-form``) must match
entrywise within 1e-8 absolute.  Oracle blocks must match within
5 * hypot(stderr_ref, stderr_run), using the stored entrywise ``stderr``; the
references come from another seed, so this is a two-sample 5-sigma test.
A run's standard errors may exceed the reference's by at most
``STDERR_GROWTH`` entrywise, so a run that samples less cannot widen its own
band.

For ``verify`` the report must parse, carry the same multiset of
``(check, symbol, lambda)`` keys, and agree with the exit code.  Reports are
paired by key and order.  A gating report that passed in the reference must
pass (one that failed may start to pass).  The deterministic block traces of
the ``trace-integral`` reports must match within 1e-8; the Monte Carlo
figures (``integral_u1``, and the two sides of ``trace-identity``) must
match within the hypot of the two runs' stored 5-sigma bands, and the
stderrs behind those bands and ``equivariance``'s are held to
``STDERR_GROWTH``.  Every comparison yields an error ratio (difference over
tolerance): a run passes when its worst ratio is at most 1.
"""

from __future__ import annotations

import copy
import gzip
import json
import math
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

DETERMINISTIC_TOL = 1e-8
SIGMA_BAND = 5.0
# band for oracle entries whose propagated stderr is exactly zero
ZERO_STDERR_TOL = 1e-12
# largest allowed stderr_run / stderr_ref; seeds differ by under 4 %
STDERR_GROWTH = 1.1
DETERMINISTIC = {"diagonal-gamma", "f-form", "g-form"}

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json.gz"


def load_reference(workload: str) -> dict:
    with gzip.open(reference_path(workload), "rt") as fh:
        return json.load(fh)


def save_reference(workload: str, doc: dict) -> None:
    data = json.dumps(doc, sort_keys=True).encode()
    reference_path(workload).write_bytes(gzip.compress(data, mtime=0))


def collect(command: str, out_dir: Path, exit_code: int) -> dict:
    """The parts of an invocation's outputs that the check compares."""
    if command == "build":
        files = {}
        for path in sorted(out_dir.glob("op_*.json")):
            doc = json.loads(path.read_text())
            files[path.name] = {"provenance": doc["provenance"],
                                "blocks": doc["blocks"]}
        return {"exit_code": exit_code, "files": files}
    doc = json.loads((out_dir / "verify_report.json").read_text())
    return {"exit_code": exit_code, "passed": doc["passed"],
            "reports": doc["reports"]}


def outputs(result: dict) -> int:
    """Slices written by ``build``, or reports written by ``verify``."""
    if "files" in result:
        return sum(len(f["blocks"]) for f in result["files"].values())
    return len(result["reports"])


def gates_failed(result: dict) -> int:
    """Gating reports (not expected-fail controls) that did not pass."""
    return sum(1 for r in result.get("reports", ())
               if not r["expected_fail"] and not r["passed"])


def _matrix(pairs) -> np.ndarray:
    a = np.asarray(pairs, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def _growth(se_ref, se_run) -> float:
    """Worst stderr_run / stderr_ref over entries with stderr_ref > 0, as a
    share of STDERR_GROWTH."""
    a, b = np.asarray(se_ref, dtype=float), np.asarray(se_run, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    mask = a > 0
    if not mask.any():
        return 0.0
    return float((b[mask] / a[mask]).max() / STDERR_GROWTH)


def _block_ratio(provenance: str, ref: dict, run: dict) -> float:
    A, B = _matrix(ref["matrix"]), _matrix(run["matrix"])
    if A.shape != B.shape:
        return float("inf")
    if A.size == 0:
        return 0.0
    diff = np.abs(A - B)
    if provenance in DETERMINISTIC:
        return float(diff.max() / DETERMINISTIC_TOL)
    band = SIGMA_BAND * np.hypot(np.asarray(ref["stderr"]),
                                 np.asarray(run["stderr"]))
    return float((diff / np.maximum(band, ZERO_STDERR_TOL)).max())


def _report_key(r: dict) -> tuple:
    prov = r["provenance"]
    who = prov.get("symbol") or f"{prov.get('a')}/{prov.get('b')}"
    return r["check"], who, prov.get("lambda")


def compare(ref: dict, run: dict) -> tuple[float, list]:
    """(worst error ratio, problems); a run passes when both are clean."""
    problems: list = []
    worst = 0.0
    if "files" in ref:
        if sorted(ref["files"]) != sorted(run.get("files", {})):
            return float("inf"), ["operator files differ from the reference"]
        if run["exit_code"] != 0:
            problems.append(f"build exited {run['exit_code']}")
        for name, rf in ref["files"].items():
            sf = run["files"][name]
            if rf["provenance"] != sf["provenance"]:
                problems.append(f"{name}: provenance {sf['provenance']}")
                continue
            rb = {tuple(b["kappa"]): b for b in rf["blocks"]}
            sb = {tuple(b["kappa"]): b for b in sf["blocks"]}
            if rb.keys() != sb.keys():
                problems.append(f"{name}: slices differ")
                continue
            for kappa, block in rb.items():
                ratio = _block_ratio(rf["provenance"], block, sb[kappa])
                worst = max(worst, ratio)
                if not ratio <= 1.0:
                    problems.append(f"{name} kappa={kappa}: ratio {ratio:.3g}")
                if "stderr" in block and \
                        not _growth(block["stderr"], sb[kappa]["stderr"]) <= 1:
                    problems.append(f"{name} kappa={kappa}: stderr grew")
        return worst, problems
    if Counter(map(_report_key, ref["reports"])) != \
            Counter(map(_report_key, run["reports"])):
        problems.append("report keys differ from the reference")
    if run["exit_code"] != (0 if run["passed"] else 1):
        problems.append(f"exit code {run['exit_code']} disagrees with "
                        f"passed={run['passed']}")
    traces_ref = _block_traces(ref["reports"])
    traces_run = _block_traces(run["reports"])
    if traces_ref.keys() != traces_run.keys():
        problems.append("trace-integral reports differ from the reference")
    for key in traces_ref.keys() & traces_run.keys():
        ratio = abs(traces_ref[key] - traces_run[key]) / DETERMINISTIC_TOL
        worst = max(worst, ratio)
        if not ratio <= 1.0:
            problems.append(f"block trace {key}: ratio {ratio:.3g}")
    for a, b in _paired(ref["reports"], run["reports"]):
        where = str(_report_key(a))
        if not a["expected_fail"] and a["passed"] and not b["passed"]:
            problems.append(f"{where}: gate passed in the reference, fails")
        for label, ratio in _report_ratios(a, b):
            worst = max(worst, ratio)
            if not ratio <= 1.0:
                problems.append(f"{where} {label}: ratio {ratio:.3g}")
        for label in _grown_stderrs(a, b):
            problems.append(f"{where} {label}: stderr grew")
    return worst, problems


def _block_traces(reports) -> dict:
    out = {}
    for r in reports:
        if r["check"] == "trace-integral":
            key = _report_key(r) + tuple(r["per_kappa"])
            out[key] = complex(*r["metrics"]["block_trace"])
    return out


def _paired(ref_reports, run_reports) -> list:
    """(reference, run) report pairs, matched by key and order within it."""
    by_key = defaultdict(list)
    for r in run_reports:
        by_key[_report_key(r)].append(r)
    seen: Counter = Counter()
    pairs = []
    for r in ref_reports:
        key = _report_key(r)
        if seen[key] < len(by_key[key]):
            pairs.append((r, by_key[key][seen[key]]))
        seen[key] += 1
    return pairs


def _band(value, stderr: float) -> float:
    """5-sigma band of a Monte Carlo figure, floored for exact ones."""
    return max(SIGMA_BAND * stderr,
               DETERMINISTIC_TOL * (1.0 + abs(complex(*value))))


def _dim(report: dict) -> int:
    return next(iter(report["per_kappa"].values()))["dim"]


def _report_ratios(ref: dict, run: dict):
    """(label, error ratio) for the Monte Carlo figures of a report pair.

    A figure is (value, its 5-sigma band); two runs agree within the hypot
    of their bands.
    """
    a, b = ref["metrics"], run["metrics"]
    figures = []
    if ref["check"] == "trace-integral":
        figures = [("integral_u1", a["band_vs_trace"], b["band_vs_trace"])]
    elif ref["check"] == "trace-identity":
        figures = [
            ("block_trace", _band(a["block_trace"], a["block_trace_stderr"]),
             _band(b["block_trace"], b["block_trace_stderr"])),
            ("dim_times_gamma",
             _band(a["dim_times_gamma"], _dim(ref) * a["gamma_stderr"]),
             _band(b["dim_times_gamma"], _dim(run) * b["gamma_stderr"]))]
    for name, band_ref, band_run in figures:
        diff = abs(complex(*a[name]) - complex(*b[name]))
        yield name, diff / math.hypot(band_ref, band_run)


# the stderrs (or 5-sigma bands) a report carries, per check
REPORT_STDERRS = {
    "trace-integral": ("band_vs_trace", "band_u1_u2"),
    "trace-identity": ("block_trace_stderr", "gamma_stderr"),
    "equivariance": ("combined_stderr",),
}


def _grown_stderrs(ref: dict, run: dict) -> list:
    """Names of the report's stderrs that grew past STDERR_GROWTH."""
    return [name for name in REPORT_STDERRS.get(ref["check"], ())
            if not _growth(ref["metrics"][name], run["metrics"][name]) <= 1]


def self_test(workloads) -> list:
    """Negative controls: perturbed copies of the references must fail.

    Returns the list of controls that did not behave; empty means the
    check can both pass and fail.
    """
    bad = []
    for workload in workloads:
        ref = load_reference(workload)
        ratio, problems = compare(ref, ref)
        if problems or ratio != 0.0:
            bad.append(f"{workload}: reference does not match itself")
        if "files" in ref:
            controls = [
                ("1e-6 deterministic", _perturbed(ref, DETERMINISTIC)),
                ("10 sigma oracle", _perturbed(ref, {"oracle"})),
                ("1.2x oracle stderr", _perturbed(ref, {"oracle"}, "stderr"))]
        else:
            controls = [("missing report", _edited(ref, _drop_report)),
                        ("wrong exit code", _edited(ref, _flip_exit)),
                        ("failing gate", _edited(ref, _fail_gate)),
                        ("10 sigma integral_u1", _edited(ref, _shift_u1)),
                        ("1.2x trace stderr", _edited(ref, _grow_stderr))]
        for label, run in controls:
            if run is not None and not compare(ref, run)[1]:
                bad.append(f"{workload}: {label} control passed")
    return bad


def _edited(ref: dict, edit) -> dict:
    run = copy.deepcopy(ref)
    edit(run)
    return run


def _drop_report(run: dict) -> None:
    run["reports"].pop()


def _flip_exit(run: dict) -> None:
    run["exit_code"] = 0 if run["exit_code"] else 1


def _fail_gate(run: dict) -> None:
    gate = next(r for r in run["reports"]
                if r["passed"] and not r["expected_fail"])
    gate["passed"] = False


def _monte_carlo(run: dict, check: str, band: str) -> dict:
    """The first report of a check whose band is wider than the floor."""
    return next(r for r in run["reports"] if r["check"] == check
                and r["metrics"][band] > 1e3 * DETERMINISTIC_TOL)


def _shift_u1(run: dict) -> None:
    m = _monte_carlo(run, "trace-integral", "band_vs_trace")["metrics"]
    # two bands are 10 sigma; the tolerance, hypot(band, band), is 7.07 sigma
    m["integral_u1"][0] += 2.0 * m["band_vs_trace"]


def _grow_stderr(run: dict) -> None:
    m = _monte_carlo(run, "trace-identity", "block_trace_stderr")["metrics"]
    m["block_trace_stderr"] *= 1.2


def _perturbed(ref: dict, provenance: set, field: str = "matrix"):
    """Copy of ref with one entry of the first matching block moved, or
    with one entry of its stderr grown by 1.2x."""
    run = copy.deepcopy(ref)
    for f in run["files"].values():
        if f["provenance"] not in provenance:
            continue
        block = f["blocks"][-1]
        if field == "stderr":
            block["stderr"][0][0] *= 1.2
            return run
        entry = block["matrix"][0][0]
        if "stderr" in block:
            # the band is 5 * hypot(se, se) = 7.07 se: 10 se must fail
            entry[0] += 10.0 * block["stderr"][0][0]
        else:
            entry[0] += 1e-6
        return run
    return None
