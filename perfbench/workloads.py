"""Op lists of the three workloads.

An op is one ``supportlab`` CLI call.  Each workload is a fixed cycle of ops
that the client repeats in a closed loop; every op gets its own program seed,
stepped from the workload seed, so no two ops in a run repeat an input.
Parameters that the CLI does not seed (bound sizes, regime grids) are drawn
from ``random.Random(op seed)``, so the same workload seed gives the same ops.

Cycle shapes keep the percentiles away from the edges between op groups:
``pairwise`` and ``recovery`` have two ops of one kind and one op of another
that takes about twice as long, and ``analytic`` has twelve small ops and three
large ones, so the median lands inside the small group and the tail inside the
large one.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("pairwise", "recovery", "analytic")

# Program seed of op j in a run with workload seed s: s * 2**24 + j.
_SEED_STRIDE = 1 << 24
WARMUP_INDEX = _SEED_STRIDE - 1
MAX_WORKLOAD_SEED = (1 << 32) - 1

# Wall time of one cycle on the seed commit (2 cores, OpenBLAS 0.3.31 pinned
# to one thread); the traced run sizes its fixed op list with it.
NOMINAL_CYCLE_S = {"pairwise": 0.3, "recovery": 1.1, "analytic": 1.9}

MC_LEVEL = "0.99"
RECOVERY_WORKERS = 2
REGIMES = (
    "linear_invk", "linear_logk", "linear_unit",
    "sublinear_invk", "sublinear_logk", "sublinear_unit",
)


@dataclass(frozen=True)
class Op:
    """One CLI call: ``kind`` selects the output oracle, ``params`` feeds it."""

    index: int
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


def op_seed(workload_seed: int, index: int) -> int:
    return workload_seed * _SEED_STRIDE + index


def cycle_length(workload: str) -> int:
    return {"pairwise": 3, "recovery": 3, "analytic": 15}[workload]


def build_op(workload: str, workload_seed: int, index: int, tiny: bool = False) -> Op:
    """The op at position ``index`` of the workload's endless cycle."""
    seed = op_seed(workload_seed, index)
    slot = index % cycle_length(workload)
    return _BUILDERS[workload](index, slot, seed, tiny)


def cycle_ops(workload: str, workload_seed: int, cycle: int, tiny: bool = False) -> list[Op]:
    n = cycle_length(workload)
    return [build_op(workload, workload_seed, cycle * n + j, tiny) for j in range(n)]


def warmup_op(workload: str, workload_seed: int, tiny: bool = False) -> Op:
    """The first op kind of the cycle, on a seed no timed op uses."""
    seed = op_seed(workload_seed, WARMUP_INDEX)
    return _BUILDERS[workload](WARMUP_INDEX, 0, seed, tiny)


def _mc(index, kind, seed, n, p, k, trials, extra, params) -> Op:
    argv = (
        "mc", kind, "--n", str(n), "--p", str(p), "--k", str(k),
        "--seed", str(seed), "--trials", str(trials), "--level", MC_LEVEL, *extra,
    )
    base = {"n": n, "p": p, "k": k, "seed": seed, "trials": trials, "level": float(MC_LEVEL)}
    return Op(index, "mc", argv, {**base, **params})


def _pairwise(index: int, slot: int, seed: int, tiny: bool) -> Op:
    # C06: fixed design at n=8, p=12, k=2 and deficits d=1, d=2; C07: fresh
    # design at n=12, p=6, k=1.  The fresh op costs about twice a fixed one.
    fixed_trials, fresh_trials = (200, 100) if tiny else (2000, 1000)
    if slot < 2:
        wrong = ("2,3", "3,4")[slot]
        return _mc(index, "pairwise", seed, 8, 12, 2, fixed_trials,
                   ("--wrong", wrong, "--workers", "1"),
                   {"target": "pairwise", "design_mode": "fixed", "d": slot + 1})
    return _mc(index, "pairwise", seed, 12, 6, 1, fresh_trials,
               ("--wrong", "2", "--design-mode", "fresh", "--workers", "1"),
               {"target": "pairwise", "design_mode": "fresh", "d": 1})


def _recovery(index: int, slot: int, seed: int, tiny: bool) -> Op:
    # (40,12,2) is C08 with 66 candidates per trial; (60,20,3) has 1140.  At
    # least 2 * workers trials per op, so every op takes the thread-pool path.
    workers = ("--workers", str(RECOVERY_WORKERS))
    params = {"target": "recovery", "design_mode": "fresh", "d": None}
    if slot < 2:
        return _mc(index, "recover", seed, 40, 12, 2, 8 if tiny else 30, workers, params)
    return _mc(index, "recover", seed, 60, 20, 3, 4, workers, params)


_ANALYTIC_N = (200, 800, 1500)
_ANALYTIC_N_TINY = (40, 60, 80)


def _analytic(index: int, slot: int, seed: int, tiny: bool) -> Op:
    draw = random.Random(seed)
    sizes = _ANALYTIC_N_TINY if tiny else _ANALYTIC_N
    if slot < 6:
        n = sizes[slot // 2]
        common = ("--n", str(n), "--p", "12", "--k", "2", "--seed", str(seed), "--wrong", "2,3")
        params = {"n": n, "p": 12, "k": 2, "seed": seed, "support": (0, 1), "wrong": (1, 2),
                  "beta_min": 1.0}
        if slot % 2 == 0:
            t = round(draw.uniform(0.05, 0.2), 6)
            return Op(index, "mgf", ("bound", "mgf", *common, "--t", repr(t)), {**params, "t": t})
        return Op(index, "bound-pairwise", ("bound", "pairwise", *common), params)
    if slot == 6:
        k = draw.randint(1, 4)
        p = draw.randint(k + 2, 200)
        n = draw.randint(k + 30, 400)
        b2 = round(draw.uniform(0.3, 3.0), 6)
        argv = ("bound", "union-sum", "--n", str(n), "--p", str(p), "--k", str(k),
                "--beta-min-sq", repr(b2))
        return Op(index, "union-sum", argv, {"n": n, "p": p, "k": k, "beta_min_sq": b2})
    if slot == 7:
        # k=1, p <= 150 and beta_min^2 >= 1.5 need n - k > 236 for the sample-size
        # hypothesis and n - k > 96 for convexity, so every draw is in the domain.
        p = draw.randint(50, 150)
        n = draw.randint(300, 1000)
        b2 = round(draw.uniform(1.5, 3.0), 6)
        argv = ("bound", "union-closed", "--n", str(n), "--p", str(p), "--k", "1",
                "--beta-min-sq", repr(b2), "--C", "9")
        return Op(index, "union-closed", argv, {"n": n, "p": p, "k": 1, "beta_min_sq": b2})
    if slot < 14:
        regime = REGIMES[slot - 8]
        exps = range(6, 10) if tiny else range(6, 13)
        grid = [2**e + draw.randrange(2 ** (e - 1)) for e in exps]
        argv = ("conditions", "--regime", regime, "--p-grid", ",".join(map(str, grid)))
        return Op(index, "regime", argv, {"regime": regime, "grid": grid})
    # verify runs at its default seed: its finite-difference check is seed
    # sensitive (see README.md), and the default is the documented gate.
    return Op(index, "verify", ("verify",), {})


_BUILDERS = {"pairwise": _pairwise, "recovery": _recovery, "analytic": _analytic}


def mc_trials(op: Op) -> int:
    return op.params["trials"] if op.kind == "mc" else 0


def tail_percentile(workload: str, seconds: float) -> float:
    """The highest of p50..p99.9 with at least 15 ops beyond it in a run of
    ``seconds`` at the seed commit's speed.

    Fixing it from the nominal op count, not the count a run happens to reach,
    keeps a slow stretch of the host from moving the tail to another
    percentile; 15 rather than 10 leaves room for such a stretch.
    """
    ops = seconds / NOMINAL_CYCLE_S[workload] * cycle_length(workload)
    usable = [q for q in (75.0, 90.0, 95.0, 99.0, 99.9) if ops * (1.0 - q / 100.0) >= 15]
    return usable[-1] if usable else 50.0


def traced_cycles(workload: str, seconds: float, tiny: bool) -> int:
    """Cycles in each pass of a traced run: a quarter of the run each, at least
    one, which keeps the spans of a pass to a few hundred thousand."""
    if tiny:
        return 1
    return max(1, math.floor(0.25 * seconds / NOMINAL_CYCLE_S[workload]))
