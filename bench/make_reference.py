"""Regenerate ``bench/reference`` from the current sources.

Usage: ``python3 bench/make_reference.py`` from the checkout root.  Runs
each workload once at seed 1234 and stores the outputs the check compares.
Only regenerate when an output change is intended and stated.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 1234


def main() -> int:
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload in workloads.WORKLOADS:
        work = run.ROOT / ".bench_work" / f"reference-{workload}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        try:
            command, doc = workloads.config(workload, SEED)
            config = work / "config.json"
            config.write_text(json.dumps(doc))
            res = run.spawn({"command": command, "config": str(config),
                             "out": str(work / "out"), "trace": False},
                            work, "reference")
            if res["exit_code"] not in (0, 1):
                print(res["log"].read_text(), file=sys.stderr)
                return 1
            result = check.collect(command, work / "out", res["exit_code"])
        finally:
            shutil.rmtree(work, ignore_errors=True)
        check.save_reference(workload, result)
        print(f"{workload}: exit {result['exit_code']}, "
              f"{check.outputs(result)} outputs, "
              f"{check.gates_failed(result)} gates failed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
