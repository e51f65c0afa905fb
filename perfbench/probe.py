"""Fresh-process probe: time ``import phasekit, phasekit.cli``, then the
workload's first op, and print both as one JSON line.

    python3 perfbench/probe.py --workload figures --seed 1

``run.py`` launches several of these per untimed run; the median import time
is ``setup_s`` and the median first-op latency is ``first_op_s``. Nothing but
the standard library is imported before the timed import.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    if not (SRC / "phasekit" / "__init__.py").is_file():
        print(f"probe: no phasekit package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import phasekit
    import phasekit.cli  # noqa: F401
    import_s = time.perf_counter() - start

    import workloads as wl

    program = wl.load_program()
    work = wl.WORK / f"probe-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        ctx = wl.Context(program, wl.load_reference(), work)
        first_op_s, failure = wl.run_op(wl.build(args.workload, ctx, args.seed).first_op)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps({"import_s": import_s, "first_op_s": first_op_s, "failure": failure}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
