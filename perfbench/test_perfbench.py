"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from supportlab import cli  # noqa: E402
from supportlab.bounds import union_error_bound_closed_form  # noqa: E402
from supportlab.decoder import decode_exhaustive  # noqa: E402
from supportlab.model import make_pattern  # noqa: E402

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run_benchmark(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "4",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_reports_every_metric_with_its_unit(workload, trace):
    result = _run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    expected = CONTRACT["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    assert result["failed"] / result["attempted"] == 0
    assert result["correct"] is True


def test_contract_lists_every_workload():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)


def test_inject_fault_counts_as_failed_op():
    fault = workloads.Op(0, "verify", ("verify", "--inject-fault"))
    clean = workloads.Op(1, "verify", ("verify",))
    results = [(op, *measure.call(cli, op)) for op in (fault, clean)]
    attempted, failures = measure.check_all(results, seed=1, known={})
    assert [f["op"] for f in failures] == [0]
    assert attempted == 2 + len(oracles.decoder_instances(1))


def test_decoder_oracle_accepts_the_decoder_and_rejects_tampering():
    for instance in oracles.decoder_instances(3):
        result = decode_exhaustive(instance)
        assert oracles.check_decode(instance, result) is None
        other = make_pattern([0, 1, 2][: instance.k] if result.pattern.indices[0] else
                             list(range(1, instance.k + 1)), instance.p)
        assert oracles.check_decode(instance, dataclasses.replace(result, pattern=other))
        bumped = dataclasses.replace(result, runner_up_score=result.runner_up_score * 1.01 + 1)
        assert oracles.check_decode(instance, bumped)


def test_duplicated_column_resolves_to_the_lexicographic_tie():
    instance = oracles.decoder_instances(5)[2]
    result = decode_exhaustive(instance)
    assert result.pattern.indices == (2, 6)
    assert result.runner_up_score == result.score


def test_tampered_mc_row_fails():
    op = workloads.build_op("pairwise", 2, 0, tiny=True)
    _, rc, out = measure.call(cli, op)
    assert oracles.check_op(op, rc, out) is None
    header, row = out.splitlines()
    fields = row.split(",")
    fields[oracles.MC_HEADER.index("dominated")] = "False"
    assert oracles.check_op(op, rc, header + "\n" + ",".join(fields) + "\n")
    assert oracles.check_op(op, rc, out.replace("pairwise,", "recovery,"))
    assert oracles.check_op(op, 2, out) == "exit code 2"


def test_tampered_analytic_value_fails():
    op = workloads.build_op("analytic", 2, 0, tiny=True)
    _, rc, out = measure.call(cli, op)
    assert oracles.check_op(op, rc, out) is None
    record = json.loads(out)
    record["log_mgf"] *= 1 + 1e-7
    assert oracles.check_op(op, rc, json.dumps(record))
    assert oracles.check_op(op, rc, out.replace(str(json.loads(out)["log_mgf"]), "NaN"))


def test_union_sum_oracle_handles_deficits_beyond_p_minus_k():
    # p - k = 3 < k = 4: the d = 4 term has no wrong support to count.
    argv = ("bound", "union-sum", "--n", "256", "--p", "7", "--k", "4",
            "--beta-min-sq", "2.444172")
    op = workloads.Op(0, "union-sum", argv, {"n": 256, "p": 7, "k": 4, "beta_min_sq": 2.444172})
    _, rc, out = measure.call(cli, op)
    assert oracles.check_op(op, rc, out) is None
    record = json.loads(out)
    record["log_bound"] *= 1 + 1e-7
    assert oracles.check_op(op, rc, json.dumps(record))


def test_ops_follow_the_seed():
    a = workloads.cycle_ops("analytic", 7, 0)
    assert a == workloads.cycle_ops("analytic", 7, 0)
    assert [op.argv for op in a] != [op.argv for op in workloads.cycle_ops("analytic", 8, 0)]
    seeds = {op.params["seed"] for c in range(3) for op in workloads.cycle_ops("pairwise", 7, c)}
    assert len(seeds) == 9


def test_union_closed_draws_stay_in_the_bound_domain():
    slot = 7
    for seed in range(400):
        op = workloads.build_op("analytic", seed, slot)
        assert op.kind == "union-closed"
        p = op.params
        union_error_bound_closed_form(p["n"], p["p"], p["k"], p["beta_min_sq"], 9.0)


def test_self_time_subtracts_children_on_any_thread():
    # parent 0..10 on thread 1; children 1..4 (thread 1) and 3..6 (thread 2).
    span_list = [
        (1, None, "run", 0.0, 10.0, 1, 0),
        (2, 1, "decode", 1.0, 4.0, 1, 0),
        (3, 1, "decode", 3.0, 6.0, 2, 0),
    ]
    layers = spans.layer_times(span_list)
    assert layers["run"]["self_s"] == pytest.approx(5.0)
    assert layers["decode"]["busy_s"] == pytest.approx(5.0)
    assert layers["decode"]["sum_s"] == pytest.approx(6.0)
    assert layers["decode"]["calls"] == 2


def test_recorder_is_thread_safe_and_links_worker_spans():
    rec = spans.Recorder()
    rec.bind_client_thread()
    leaf = rec.wrap("leaf", lambda: sum(range(50)), lambda _: {"leaf.calls": 1})
    calls_per_thread, threads = 2000, 8

    def work():
        for _ in range(calls_per_thread):
            leaf()

    def outer():
        pool = [threading.Thread(target=work) for _ in range(threads)]
        for t in pool:
            t.start()
        for t in pool:
            t.join(timeout=60)
        return all(not t.is_alive() for t in pool)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert rec.wrap("outer", outer)()
    finally:
        sys.setswitchinterval(interval)
    leaves = [s for s in rec.spans if s[2] == "leaf"]
    (root,) = [s for s in rec.spans if s[2] == "outer"]
    assert len(leaves) == rec.counts["leaf.calls"] == calls_per_thread * threads
    assert len({s[0] for s in rec.spans}) == len(rec.spans)
    assert all(s[1] == root[0] for s in leaves)


def test_recorder_restores_the_program():
    import supportlab.montecarlo as montecarlo

    original = montecarlo.decode_exhaustive
    rec = spans.Recorder()
    rec.install()
    try:
        assert montecarlo.decode_exhaustive is not original
        assert rec.missing == []
    finally:
        rec.restore()
    assert montecarlo.decode_exhaustive is original


def test_tail_percentile_is_fixed_per_workload_and_reports_its_samples():
    assert [workloads.tail_percentile(w, 30) for w in workloads.WORKLOADS] == [95.0, 75.0, 90.0]
    t = measure.tail([float(i) for i in range(100)], 90.0)
    assert t["beyond"] == 10 and t["samples"] == 100
