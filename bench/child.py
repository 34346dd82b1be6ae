"""One CLI invocation, run in a fresh interpreter by ``bench/run.py``.

Usage: ``python3 bench/child.py <job.json>``.  The job names the checkout
root, the subcommand, the config, the output directory, whether to trace,
and the file this process writes its record to.  A ``setup_only`` job stops
once ``cli.load_config`` returns, to sample set-up time alone.  The checkout's ``src/`` is
put first on ``sys.path`` and ``toepblocks`` must resolve there.  The exit
code is the CLI's; 3 means the import resolved elsewhere and 70 that the
CLI raised.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
from pathlib import Path

EXIT_WRONG_IMPORT = 3
EXIT_CRASH = 70


def _versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(job_path: str) -> int:
    job = json.loads(Path(job_path).read_text())
    src = Path(job["root"]) / "src"
    sys.path.insert(0, str(src))
    import toepblocks
    from toepblocks import cli

    record = {"toepblocks_file": str(Path(toepblocks.__file__).resolve())}
    if not Path(record["toepblocks_file"]).is_relative_to(src.resolve()):
        record["error"] = f"toepblocks imported from outside {src}"
        Path(job["record"]).write_text(json.dumps(record))
        return EXIT_WRONG_IMPORT
    if job.get("probe"):
        record["versions"] = _versions()
        Path(job["record"]).write_text(json.dumps(record))
        return 0
    if job.get("setup_only"):
        cli.load_config(job["config"], None, job["out"])
        record["setup_done"] = time.monotonic()
        Path(job["record"]).write_text(json.dumps(record))
        return 0

    tracer = None
    if job["trace"]:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(toepblocks)
    load_config = cli.load_config

    def timed_load_config(*args, **kwargs):
        cfg = load_config(*args, **kwargs)
        record["setup_done"] = time.monotonic()
        return cfg

    cli.load_config = timed_load_config
    argv = ["--config", job["config"], "--out", job["out"], job["command"]]
    start = time.perf_counter()
    try:
        rc = cli.main(argv)
    except Exception:
        traceback.print_exc()
        rc = EXIT_CRASH
    record["main_s"] = time.perf_counter() - start
    if tracer is not None:
        record["trace"] = tracer.summary()
        record["spans"] = tracer.spans
    Path(job["record"]).write_text(json.dumps(record))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
