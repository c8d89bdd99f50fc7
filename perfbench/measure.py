"""Workload process: run one workload in a closed loop and write its record.

Run from the root of a supportlab checkout, with BLAS pinned by the caller
(``run.py`` does both):

    python3 perfbench/measure.py --workload pairwise --seed 1 --seconds 36 \
        --trace 0 --out .perfbench_runs/pairwise.json

One client calls ``supportlab.cli.main(argv)`` in-process, op after op.  With
``--trace 0`` it repeats whole cycles of the workload's op list until
``--seconds`` have passed.  With ``--trace 1`` it runs a fixed number of cycles
twice, untraced and then traced, so that counts repeat exactly for a seed and
the two passes give the tracing overhead.  Outputs are checked after the timed
phase, so the checks add neither time nor memory to what is measured.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
import spans
import workloads

def load_cli(root: Path):
    sys.path.insert(0, str(root / "src"))
    import supportlab.cli

    origin = Path(supportlab.cli.__file__).resolve()
    if (root / "src").resolve() not in origin.parents:
        raise SystemExit(f"error: imported supportlab from {origin}, not from this checkout")
    return supportlab.cli


def call(cli, op) -> tuple[float, int, str]:
    """Run one op in-process; returns (seconds, exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(op.argv))
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a traceback is a failed op; the loop goes on
        rc = -1
        out.write(traceback.format_exc())
    return time.perf_counter() - start, rc, out.getvalue()


def run_cycles(cli, workload, seed, tiny, cycles=None, seconds=None,
               recorder=None) -> tuple[list, list]:
    """Whole cycles, a fixed number or until ``seconds`` have passed.

    Returns ([(op, seconds, rc, stdout)], [cycle wall seconds]).
    """
    results, walls = [], []
    begin = time.perf_counter()
    cycle = 0
    while True:
        start = time.perf_counter()
        for op in workloads.cycle_ops(workload, seed, cycle, tiny):
            if recorder is not None:
                recorder.op_id = op.index
            results.append((op, *call(cli, op)))
        walls.append(time.perf_counter() - start)
        cycle += 1
        if cycles is not None and cycle >= cycles:
            break
        if seconds is not None and time.perf_counter() - begin >= seconds:
            break
    return results, walls


def percentile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail(values: list[float], q: float) -> dict:
    value = percentile(values, q)
    return {"percentile": q, "value": value, "samples": len(values),
            "beyond": sum(v > value for v in values)}


def digest(outputs: list[str]) -> str:
    h = hashlib.sha256()
    for text in outputs:
        h.update(hashlib.sha256(text.encode()).digest())
    return h.hexdigest()


def check_all(results, seed, known: dict) -> tuple[int, list[dict]]:
    """Run every output oracle and the decoder oracle; returns (attempted, failures).

    ``known`` maps a position in ``results`` to a failure found beforehand.
    """
    failures = []
    for i, (op, _, rc, out) in enumerate(results):
        reason = known.get(i) or oracles.check_op(op, rc, out)
        if reason:
            failures.append({"op": op.index, "argv": " ".join(op.argv), "reason": reason})
    from supportlab.decoder import decode_exhaustive

    cases = oracles.decoder_instances(seed)
    for i, instance in enumerate(cases):
        reason = oracles.check_decode(instance, decode_exhaustive(instance))
        if reason:
            failures.append({"op": f"decoder-case-{i}", "argv": "", "reason": reason})
    return len(results) + len(cases), failures


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    pinned = {k: os.environ.get(k) for k in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "workload": workload, "seed": seed,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": pinned,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def untraced_metrics(workload, seconds, results, walls, rss_mb) -> tuple[dict, dict]:
    op_s = [r[1] for r in results]
    trials = sum(workloads.mc_trials(r[0]) for r in results)
    op_tail = tail([1e3 * s for s in op_s], workloads.tail_percentile(workload, seconds))
    metrics = {
        "wall_s": _metric(sum(walls) / len(walls), "s"),
        "op_ms_p50": _metric(1e3 * statistics.median(op_s), "ms"),
        "op_ms_tail": _metric(op_tail["value"], "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
    }
    detail = {
        "cycles": len(walls), "ops": len(results), "op_ms_p50_samples": len(op_s),
        "op_ms_tail": op_tail,
        "trials_per_s": trials / sum(walls) if trials else None,
    }
    return metrics, detail


def traced_metrics(rec: spans.Recorder, traced, walls, plain_walls) -> dict:
    layers = spans.layer_times(rec.spans)

    def get(name, key):
        return layers.get(name, {}).get(key, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    op_s = sum(r[1] for r in traced)
    candidates = rec.counts.get("decoder.candidates", 0)
    m = {
        "rng.stream_calls": _metric(get("rng.stream", "calls"), "count"),
        "rng.stream_s": _metric(get("rng.stream", "busy_s"), "s"),
        "rng.stream_us": _metric(1e6 * ratio(get("rng.stream", "sum_s"),
                                             get("rng.stream", "calls")), "us"),
        "model.build_projector_calls": _metric(get("model.build_projector", "calls"), "count"),
        "model.build_projector_s": _metric(get("model.build_projector", "busy_s"), "s"),
        "decoder.decode_calls": _metric(get("decoder.decode", "calls"), "count"),
        "decoder.decode_s": _metric(get("decoder.decode", "busy_s"), "s"),
        "decoder.candidates": _metric(candidates, "count"),
        "decoder.candidates_per_s": _metric(
            ratio(candidates, get("decoder.decode", "busy_s")), "1/s"),
        "decoder.score_support_calls": _metric(get("decoder.score_support", "calls"), "count"),
        "decoder.score_support_s": _metric(get("decoder.score_support", "busy_s"), "s"),
        "decoder.op_share": _metric(ratio(get("decoder.decode", "busy_s"), op_s), "frac"),
        "montecarlo.runs": _metric(get("montecarlo.run", "calls"), "count"),
        "montecarlo.trials": _metric(rec.counts.get("montecarlo.trials", 0), "count"),
        "montecarlo.errors": _metric(rec.counts.get("montecarlo.errors", 0), "count"),
        "montecarlo.run_s": _metric(get("montecarlo.run", "busy_s"), "s"),
        "montecarlo.self_s": _metric(get("montecarlo.run", "self_s"), "s"),
        "bounds.log_mgf_calls": _metric(get("bounds.log_mgf", "calls"), "count"),
        "bounds.log_mgf_s": _metric(get("bounds.log_mgf", "busy_s"), "s"),
        "bounds.projection_energy_s": _metric(get("bounds.projection_energy", "busy_s"), "s"),
        "bounds.union_s": _metric(get("bounds.union", "busy_s"), "s"),
        "bounds.regime_s": _metric(get("bounds.regime", "busy_s"), "s"),
    }
    for short in spans.VERIFY_CHECKS.values():
        m[f"verify.{short}_s"] = _metric(get(f"verify.{short}", "busy_s"), "s")
    m["verify.checks_passed"] = _metric(rec.counts.get("verify.checks_passed", 0), "count")
    m["cli.calls"] = _metric(get("cli.main", "calls"), "count")
    m["cli.self_s"] = _metric(get("cli.main", "self_s"), "s")
    m["cli.out_bytes"] = _metric(sum(len(r[3].encode()) for r in traced), "bytes")
    m["trace_overhead_frac"] = _metric(sum(walls) / sum(plain_walls) - 1.0, "frac")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    root = Path.cwd()

    start = time.perf_counter()
    cli = load_cli(root)
    warm = workloads.warmup_op(args.workload, args.seed, args.tiny)
    warm_result = (warm, *call(cli, warm))
    setup_s = time.perf_counter() - start

    record = {"env": environment(args.workload, args.seed), "child_setup_s": setup_s}
    known: dict[int, str] = {}
    if args.trace == 0:
        results, walls = run_cycles(cli, args.workload, args.seed, args.tiny,
                                    seconds=args.seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics, detail = untraced_metrics(args.workload, args.seconds, results, walls,
                                           rss_mb)
        record["detail"] = detail
    else:
        cycles = workloads.traced_cycles(args.workload, args.seconds, args.tiny)
        plain, plain_walls = run_cycles(cli, args.workload, args.seed, args.tiny, cycles=cycles)
        rec = spans.Recorder()
        rec.bind_client_thread()
        rec.install()
        try:
            traced, walls = run_cycles(cli, args.workload, args.seed, args.tiny,
                                       cycles=cycles, recorder=rec)
        finally:
            rec.restore()
        metrics = traced_metrics(rec, traced, walls, plain_walls)
        # Positions count the warm-up op, which comes first in the checked list.
        known = {1 + len(plain) + i: "output differs when traced"
                 for i, (p, t) in enumerate(zip(plain, traced)) if p[3] != t[3]}
        record["detail"] = {"cycles": cycles, "ops": len(traced), "spans": len(rec.spans),
                            "missing_layers": rec.missing,
                            "traced_outputs_sha256": digest([t[3] for t in traced])}
        results = plain + traced
        spans_path = Path(args.out).with_suffix(".spans.jsonl.gz")
        with gzip.open(spans_path, "wt", encoding="utf-8") as fh:
            for span in rec.spans:
                fh.write(json.dumps(span) + "\n")

    attempted, failures = check_all([warm_result] + results, args.seed, known)
    cycle0 = [r[3] for r in results[: workloads.cycle_length(args.workload)]]
    record.update({
        "attempted": attempted, "failed": len(failures), "failures": failures[:20],
        "metrics": metrics, "cycle0_sha256": digest(cycle0),
        "ops": [[op.index, round(1e3 * sec, 3), hashlib.sha256(out.encode()).hexdigest()[:16]]
                for op, sec, _, out in results],
    })
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
