"""Benchmark entry point: one workload, one seed, one result line.

Run from the root of a supportlab checkout:

    python3 perfbench/run.py --workload pairwise --seed 1 --seconds 20 --trace 0

With ``--trace 0`` it measures set-up in fresh processes, runs the workload in
a fresh process with BLAS pinned to one thread, and prints every end-to-end
metric; with ``--trace 1`` it prints the per-layer metrics of a traced run.
The last line of stdout is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Each run's full record
(environment, percentiles, failures, output digests, spans) is written under
``.perfbench_runs/``.  See README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
RUNS_DIR = ".perfbench_runs"
SETUP_PROBES = 5
DEADLINE_S = 170.0
# One BLAS thread per worker keeps the recovery workload's two worker threads
# within the two cores it was sized for.
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env(root: Path) -> dict:
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
    return env


def git_commit(root: Path) -> str | None:
    """The checked-out commit, read from .git without leaving the checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(str(path.relative_to(root)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _run(argv: list[str], env: dict, timeout: float) -> str:
    proc = subprocess.run(argv, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout,
                          check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}")
    return proc.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small op sizes and one set-up probe, for the benchmark's tests")
    args = parser.parse_args()
    if not 0 <= args.seed <= workloads.MAX_WORKLOAD_SEED:
        parser.error(f"--seed must be in [0, {workloads.MAX_WORKLOAD_SEED}]")
    if not 1 <= args.seconds <= 60:
        parser.error("--seconds must be in [1, 60]")

    root = Path.cwd()
    if not (root / "src" / "supportlab" / "__init__.py").is_file():
        print("error: run from the root of a supportlab checkout (no src/supportlab here)",
              file=sys.stderr)
        return 2
    began = time.monotonic()
    env = child_env(root)
    flags = ["--workload", args.workload, "--seed", str(args.seed)] + (
        ["--tiny"] if args.tiny else [])

    try:
        setup = []
        if args.trace == 0:
            for _ in range(1 if args.tiny else SETUP_PROBES):
                out = _run([sys.executable, str(HERE / "probe.py"), *flags], env,
                           min(60.0, DEADLINE_S - (time.monotonic() - began)))
                setup.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
        (root / RUNS_DIR).mkdir(exist_ok=True)
        out_path = root / RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
        out_path.unlink(missing_ok=True)
        _run([sys.executable, str(HERE / "measure.py"), *flags, "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--out", str(out_path)],
             env, DEADLINE_S - (time.monotonic() - began))
        record = json.loads(out_path.read_text())
    except (RuntimeError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = record["metrics"]
    if args.trace == 0:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
        record["setup_s_samples"] = setup
    record["env"].update(git_commit=git_commit(root), source_sha256=source_digest(root))
    out_path.write_text(json.dumps(record, indent=1))

    failed_frac = record["failed"] / record["attempted"]
    for name, m in sorted(metrics.items()):
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}")
    print(f"{'failed_frac':32s} {failed_frac:>16.6g} frac")
    detail = record["detail"]
    if detail.get("trials_per_s"):
        print(f"{'trials_per_s':32s} {detail['trials_per_s']:>16.6g} 1/s")
    if "op_ms_tail" in detail:
        t = detail["op_ms_tail"]
        print(f"op_ms_tail is p{t['percentile']:g} of {t['samples']} ops "
              f"({t['beyond']} beyond); op_ms_p50 of {detail['op_ms_p50_samples']} ops; "
              f"wall_s is the mean of {detail['cycles']} cycles")
    for failure in record["failures"]:
        print(f"FAILED op {failure['op']}: {failure['reason']} [{failure['argv']}]")
    print("env " + json.dumps({**record["env"], "cycle0_sha256": record["cycle0_sha256"]},
                              sort_keys=True))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
