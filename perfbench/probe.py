"""Set-up probe: one fresh process that imports supportlab and runs one op.

Prints {"setup_s": ...} as its last line: the time from before
``import supportlab.cli`` to the end of the workload's warm-up op, which
builds the parser and pays every lazy BLAS and scipy set-up the op touches.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time
from pathlib import Path

import workloads


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    op = workloads.warmup_op(args.workload, args.seed, args.tiny)
    sys.path.insert(0, str(Path.cwd() / "src"))

    start = time.perf_counter()
    import supportlab.cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = supportlab.cli.main(list(op.argv))
    elapsed = time.perf_counter() - start
    if rc != 0:
        print(f"error: warm-up op exited {rc}", file=sys.stderr)
        return 1
    print(json.dumps({"setup_s": elapsed}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
