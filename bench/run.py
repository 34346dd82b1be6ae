"""End-to-end benchmark of the ``toepblocks`` CLI.

Usage (from the checkout root)::

    python3 bench/run.py --workload build-quad --seed 1234 --seconds 30 --trace 0
    python3 bench/run.py                 # every workload, summary of each

Each invocation is a fresh child interpreter (``bench/child.py``) that calls
``toepblocks.cli.main(["--config", <generated config>, "--out", <dir>,
<subcommand>])`` with the checkout's ``src/`` first on ``sys.path`` and
BLAS/OpenMP capped at one thread.  Invocations run one at a time (closed
loop, one client) until ``--seconds`` have passed, and at least
``MIN_INVOCATIONS`` times.  Every invocation's outputs are checked against
``bench/reference``.

``--trace 0`` reports the end-to-end metrics: medians over invocations of
wall time and peak RSS, outputs (slices or reports) per second, and the
median set-up time (spawn until ``cli.load_config`` returns) over every
invocation and ``SETUP_SAMPLES`` set-up-only spawns after each.  ``--trace 1`` alternates
untraced and traced invocations and reports per-layer self times and counts
from the traced ones (see ``bench/tracer.py`` and ``bench/design.json``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The full record,
with the machine and provenance, goes to ``.bench_results/``.  The exit code
is 0 when every invocation passed its checks, 1 when one did not, and 2
when the benchmark could not run (no ``src/`` in the checkout, a broken
output check, or ``toepblocks`` importing from elsewhere).
"""

from __future__ import annotations

import argparse
import hashlib
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
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
MIN_INVOCATIONS = 3
MIN_TRACED = 2  # traced and untraced invocations each, with --trace 1
# set-up-only spawns after each invocation of a --trace 0 run, so that set-up
# time is a median of three samples per invocation, spread over the run
SETUP_SAMPLES = 2
# a run must end within 180 s: no invocation starts after RUN_CAP_S, and
# none may take longer than INVOCATION_TIMEOUT_S
RUN_CAP_S = 100.0
INVOCATION_TIMEOUT_S = 60.0
EXIT_BROKEN = 2

THREAD_CAP = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

# per-layer metrics reported by --trace 1, in BENCHMARK.json order
SELF_TIMES = (
    "symbols.f_payload", "symbols.g_payload", "symbols.radial_profile",
    "symbols.evaluator", "toeplitz.mblock_f", "toeplitz.mblock_g",
    "toeplitz.embed", "toeplitz.gamma_quasi_radial", "toeplitz.oracle_matrix",
    "toeplitz.orthonormal_rows", "toeplitz.unitary_action_matrix",
    "toeplitz.operator_to_json", "quad.radial_rule", "quad.sphere_rule",
    "quad.sample_ball", "quad.haar", "structure.trace_identity_check",
    "structure.trace_integral", "structure.offblock_leakage",
    "structure.equivariance_check", "structure.tensor_commutator",
    "mindex.enumerate", "cli.load_config", "cli.write",
)
COUNTS = (
    "symbols.f_payload.points", "symbols.g_payload.points",
    "symbols.radial_profile.points", "symbols.evaluator.points",
    "toeplitz.mblock_f.calls", "toeplitz.mblock_g.calls",
    "toeplitz.oracle_matrix.samples", "toeplitz.orthonormal_rows.entries",
    "quad.radial_rule.calls", "quad.radial_rule.distinct_ratio",
    "quad.sphere_rule.nodes", "quad.sample_ball.points", "quad.substream.calls",
    "quad.haar.unitaries", "structure.trace_identity_check.calls",
    "structure.trace_integral.calls", "mindex.enumerate.calls",
)
COUNT_UNITS = {"quad.radial_rule.distinct_ratio": "ratio"}


class Broken(Exception):
    """The benchmark cannot run in this checkout."""


# ---------------------------------------------------------------------------
# one invocation
# ---------------------------------------------------------------------------


def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(THREAD_CAP, PYTHONHASHSEED="0")
    return env


def spawn(job: dict, work: Path, tag: str) -> dict:
    """Run bench/child.py on a job; wall time, rusage, exit code, record."""
    job = dict(job, root=str(ROOT), record=str(work / f"{tag}.record.json"))
    job_path = work / f"{tag}.job.json"
    job_path.write_text(json.dumps(job))
    log = work / f"{tag}.log"
    with open(log, "w") as fh:
        start = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "bench" / "child.py"), str(job_path)],
            cwd=ROOT, env=_child_env(), stdin=subprocess.DEVNULL, stdout=fh,
            stderr=subprocess.STDOUT)
        killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    record_path = Path(job["record"])
    record = json.loads(record_path.read_text()) if record_path.exists() else {}
    return {"exit_code": proc.returncode, "wall_s": end - start,
            "setup_s": record["setup_done"] - start
            if "setup_done" in record else None,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "record": record,
            "log": log}


def invoke(workload: str, seed: int, work: Path, index: int, trace: bool,
           reference: dict, setup_samples: int) -> dict:
    """One CLI invocation on the workload, checked against the reference,
    then ``setup_samples`` set-up-only spawns."""
    command, doc = workloads.config(workload, seed)
    config = work / "config.json"
    if not config.exists():
        config.write_text(json.dumps(doc, indent=1))
    # one path for every invocation: the resolved config in the outputs
    # records it, and traced and untraced outputs are compared byte for byte
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    res = spawn({"command": command, "config": str(config), "out": str(out),
                 "trace": trace}, work, f"inv-{index}")
    res.update(index=index, traced=trace, out=out, problems=[],
               max_err_ratio=None)
    if res["exit_code"] not in (0, 1) or res["setup_s"] is None:
        res["problems"].append(f"exit code {res['exit_code']}, see "
                               f"{res['log'].read_text()[-2000:]}")
        return res
    try:
        result = check.collect(command, out, res["exit_code"])
    except (OSError, ValueError, KeyError) as exc:
        res["problems"].append(f"unreadable outputs: {exc!r}")
        return res
    res["max_err_ratio"], res["problems"] = check.compare(reference, result)
    res["outputs"] = check.outputs(result)
    res["gates_failed"] = check.gates_failed(result)
    res["bytes_written"] = sum(p.stat().st_size for p in out.iterdir())
    res["setup_samples"] = [res["setup_s"]]
    for k in range(setup_samples):
        setup = spawn({"setup_only": True, "config": str(config),
                       "out": str(work / "setup-out")},
                      work, f"setup-{index}-{k}")
        if setup["exit_code"] != 0 or setup["setup_s"] is None:
            res["problems"].append(f"set-up-only spawn exited "
                                   f"{setup['exit_code']}")
            break
        res["setup_samples"].append(setup["setup_s"])
    return res


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    target = ROOT / ".git" / ref[5:]
    return target.read_text().strip() if target.is_file() else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "toepblocks").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(work: Path) -> dict:
    """Machine and software record; raises Broken on a foreign import."""
    probe = spawn({"probe": True}, work, "probe")
    record = probe["record"]
    if probe["exit_code"] != 0 or "versions" not in record:
        raise Broken(record.get("error") or
                     f"probe exited {probe['exit_code']}: "
                     f"{probe['log'].read_text()[-2000:]}")
    return {"nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "cpu_model": _cpu_model(), **record["versions"],
            "blas_threads": THREAD_CAP["OPENBLAS_NUM_THREADS"],
            "git_commit": _git_commit(), "src_sha256": _src_digest(),
            "toepblocks_file": record["toepblocks_file"]}


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _median(values) -> float:
    return statistics.median(list(values))


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


# Spans whose self time absorbs every untraced call beneath them: they count
# as uncovered, so a layer function missing from the tracer lowers coverage.
CATCH_ALL = ("cli.write", "cli.load_config")


def _coverage(record: dict) -> float:
    self_s = record["trace"]["self_s"]
    covered = sum(v for k, v in self_s.items() if k not in CATCH_ALL)
    return covered / record["main_s"]


def end_to_end(runs: list) -> dict:
    wall = _median(r["wall_s"] for r in runs)
    return {
        "wall_s": _metric(wall, "s"),
        "setup_s": _metric(
            _median(s for r in runs for s in r["setup_samples"]), "s"),
        "peak_rss_mb": _metric(_median(r["peak_rss_mb"] for r in runs), "MiB"),
        "outputs_per_s": _metric(_median(r["outputs"] for r in runs) / wall,
                                 "1/s"),
    }


def per_layer(untraced: list, traced: list, max_err_ratio: float) -> dict:
    records = [r["record"] for r in traced]
    metrics = {}
    for name in SELF_TIMES:
        metrics[f"{name}.self_s"] = _metric(
            _median(t["trace"]["self_s"].get(name, 0.0) for t in records), "s")
    for name in COUNTS:
        metrics[name] = _metric(
            _median(t["trace"]["counters"].get(name, 0) for t in records),
            COUNT_UNITS.get(name, "count"))
    metrics["cli.bytes_written"] = _metric(
        _median(r["bytes_written"] for r in traced), "bytes")
    metrics["trace.coverage"] = _metric(
        _median(_coverage(t) for t in records), "ratio")
    metrics["trace.trace_checks_share"] = _metric(
        _median(t["trace"]["inclusive_s"] / t["main_s"] for t in records),
        "ratio")
    metrics["trace.overhead_s"] = _metric(
        _median(r["wall_s"] for r in traced)
        - _median(r["wall_s"] for r in untraced), "s")
    metrics["check.max_err_ratio"] = _metric(max_err_ratio, "ratio")
    metrics["structure.gates_failed"] = _metric(
        _median(r["gates_failed"] for r in untraced + traced), "count")
    return metrics


def _same_bytes(a: Path, b: Path) -> bool:
    names = sorted(p.name for p in a.iterdir())
    return names == sorted(p.name for p in b.iterdir()) and all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names)


def _traced_problems(res: dict, first_untraced: dict | None) -> list:
    """Self-tests of a traced invocation against the untraced one."""
    problems = []
    if first_untraced is not None and \
            not _same_bytes(first_untraced["out"], res["out"]):
        problems.append("traced outputs differ from untraced")
    if not _coverage(res["record"]) >= 0.95:
        problems.append(f"trace coverage {_coverage(res['record']):.3f} "
                        f"< 0.95")
    return problems


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 results_dir: Path) -> dict:
    """Invoke the CLI on one workload for ``seconds``; metrics and record."""
    work = ROOT / ".bench_work" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runs: list = []
    try:
        machine = provenance(work)
        reference = check.load_reference(workload)
        start = time.monotonic()
        first_untraced = None
        while True:
            n_traced = sum(r["traced"] for r in runs)
            n_untraced = len(runs) - n_traced
            elapsed = time.monotonic() - start
            if elapsed >= RUN_CAP_S or elapsed >= seconds and (
                    min(n_traced, n_untraced) >= MIN_TRACED if trace
                    else len(runs) >= MIN_INVOCATIONS):
                break
            traced = trace and n_traced < n_untraced
            res = invoke(workload, seed, work, len(runs), traced, reference,
                         0 if trace else SETUP_SAMPLES)
            if traced and not res["problems"]:
                res["problems"] = _traced_problems(res, first_untraced)
            if not traced and first_untraced is None \
                    and not res["problems"]:
                res["out"] = res["out"].rename(work / "first")
                first_untraced = res
            runs.append(res)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = [r for r in runs if not r["problems"]]
    untraced = [r for r in ok if not r["traced"]]
    traced_ok = [r for r in ok if r["traced"]]
    used = traced_ok if trace else untraced
    metrics = {}
    if trace and untraced and traced_ok:
        worst = max(r["max_err_ratio"] for r in runs
                    if r["max_err_ratio"] is not None)
        metrics = per_layer(untraced, traced_ok,
                            min(worst, sys.float_info.max))
    elif not trace and untraced:
        metrics = end_to_end(untraced)
    summary = {"correct": len(ok) == len(runs) and bool(metrics),
               "attempted": len(runs), "failed": len(runs) - len(ok),
               "metrics": metrics}
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine, **summary,
        "invocations": [
            {k: (str(v) if isinstance(v, Path) else v)
             for k, v in r.items() if k not in ("record", "log")}
            | {"trace": r["record"].get("trace")} for r in runs],
    }
    results_dir.mkdir(exist_ok=True)
    (results_dir / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(detail, indent=1))
    samples = {"setup_s": sum(len(r["setup_samples"]) for r in untraced)}
    return summary | {"machine": machine, "runs": runs,
                      "samples": {k: samples.get(k, len(used))
                                  for k in metrics}}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _print_summary(workload: str, result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"{workload:<13} {name:<40} {m['value']:>14.6g} "
              f"{m['unit']:<6} n={result['samples'][name]}")
    gates = [r.get("gates_failed") for r in result["runs"]
             if r.get("gates_failed") is not None]
    if workload == "verify-trace" and gates:
        print(f"{workload:<13} {'gates_failed':<40} "
              f"{statistics.median(gates):>14.6g} count  n={len(gates)}")
    print(f"{workload:<13} {'failed_share':<40} "
          f"{result['failed'] / max(result['attempted'], 1):>14.6g} ratio  "
          f"n={result['attempted']}")
    for r in result["runs"]:
        for problem in r["problems"]:
            print(f"{workload:<13} invocation {r['index']}: {problem}")


def preflight() -> None:
    if not (ROOT / "src" / "toepblocks" / "cli.py").is_file():
        raise Broken(f"no toepblocks sources under {ROOT / 'src'}")
    bad = check.self_test(workloads.WORKLOADS)
    if bad:
        raise Broken("output check self-test failed: " + "; ".join(bad))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=("all",) + workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1234)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(EXIT_BROKEN))
    try:
        preflight()
        names = workloads.WORKLOADS if args.workload == "all" \
            else (args.workload,)
        results = {w: run_workload(w, args.seed, args.seconds,
                                   bool(args.trace), ROOT / ".bench_results")
                   for w in names}
    except Broken as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return EXIT_BROKEN
    machine = next(iter(results.values()))["machine"]
    print("# machine " + json.dumps(machine))
    for w, result in results.items():
        _print_summary(w, result)
    if len(results) == 1:
        final = {k: results[names[0]][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{w}.{k}": m for w, r in results.items()
                             for k, m in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
