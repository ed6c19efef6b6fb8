"""One benchmark run in its own process: set up, run_experiment, report.

    python3 perfbench/worker.py --config CONFIG.json --out RUN_DIR [--trace SPANS.csv]

The config is a fedsynth config mapping; its `out_dir` is replaced by
RUN_DIR. The last line of standard output is a JSON object with the run's
wall time, the set-up samples, peak resident memory (and its high-water
mark just before run_experiment) and, when traced, the span summary. run.py starts this script with BLAS pinned to one thread.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import resource
import sys
import time
from pathlib import Path

from tracer import Tracer, instrument, summarize

SRC = Path(__file__).resolve().parent.parent / "src"

SETUP_REPEATS = 10


class ZeroCamCounter(logging.Handler):
    """Counts the all-zero CAM rows fedsynth.synthesis reports as warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.rows = 0

    def emit(self, record: logging.LogRecord) -> None:
        if record.name == "fedsynth.synthesis" and str(record.msg).startswith("synthesize:"):
            self.rows += int(record.args[0])


def load_fedsynth():
    """Import fedsynth from the checkout's src/ directory, never from elsewhere."""
    if not (SRC / "fedsynth" / "__init__.py").is_file():
        raise FileNotFoundError(f"fedsynth sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import fedsynth

    return fedsynth


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name", "unknown"), blas.get("version", "unknown")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads": {name: value for name, value in sorted(os.environ.items()) if name.endswith("_NUM_THREADS")},
    }


def peak_rss_mb() -> float:
    """The process's resident-memory high-water mark so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_once(fedsynth, raw: dict, out_dir: Path, tracer: Tracer | None = None) -> dict:
    """Set up SETUP_REPEATS times, then run_experiment once; optionally traced."""
    raw = {**raw, "out_dir": str(out_dir)}
    counter = ZeroCamCounter()
    logger = logging.getLogger("fedsynth")
    logger.addHandler(counter)
    restore = instrument(tracer, fedsynth) if tracer is not None else None
    try:
        setup_s = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            cfg = fedsynth.config.config_from_dict(raw)
            fedsynth.runner.build_state(cfg)
            setup_s.append(time.perf_counter() - start)
        rss_before_run_mb = peak_rss_mb()
        start = time.perf_counter()
        fedsynth.runner.run_experiment(cfg)
        run_s = time.perf_counter() - start
    finally:
        if restore is not None:
            restore()
        logger.removeHandler(counter)
    result = {"run_s": run_s, "setup_s": setup_s, "rss_before_run_mb": rss_before_run_mb, "zero_cam_rows": counter.rows}
    if tracer is not None:
        root = max(i for i, name in enumerate(tracer.names) if name == "runner.run_experiment")
        config_s = summarize(tracer)["spans"]["config"]["busy_s"] / SETUP_REPEATS
        result["trace"] = {
            **summarize(tracer, root),
            "counts": dict(tracer.counts),
            "config_s": config_s,
            "zero_cam_rows": counter.rows,
        }
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=Path, default=None, help="write the spans to this CSV and report them")
    args = parser.parse_args(argv)
    fedsynth = load_fedsynth()
    raw = json.loads(args.config.read_text(encoding="utf-8"))
    tracer = Tracer() if args.trace else None
    result = run_once(fedsynth, raw, args.out, tracer)
    if tracer is not None:
        tracer.write(args.trace)
    result["peak_rss_mb"] = peak_rss_mb()
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
