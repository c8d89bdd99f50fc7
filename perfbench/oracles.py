"""Output oracles: each returns None for a correct result, else the reason.

The references here are the benchmark's own and share no arithmetic with the
program under test: dense numpy matrices with a Cholesky solve for the exact
log-MGF, numpy QR for projection energies, brute-force ``numpy.linalg.lstsq``
for the exhaustive decoder, and the published closed forms for the union
bounds.  Inputs (the seeded design matrices) come from the program, because
the oracles check the arithmetic on them, not the random stream layout.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from statistics import NormalDist

import numpy as np
import scipy.linalg

MC_HEADER = [
    "target", "design_mode", "n", "p", "k", "beta_min", "d", "seed", "level",
    "trials", "errors", "rate", "wilson_low", "wilson_high", "bound",
    "dominated", "error",
]
REGIME_HEADER = [
    "regime", "p", "k", "beta_min_sq", "sufficient_n", "necessary_n",
    "predictor", "sufficient_ratio", "necessary_ratio", "error",
]
VERIFY_CHECK_NAMES = (
    "chernoff-constants", "rate-relaxation", "eigen-pairs", "quadratic-identities",
    "exact-mgf-vs-sampled", "chi-square-mgf", "chain-ordering", "f-curve-derivatives",
    "curvature-boundary-max",
)
CHERNOFF_C = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
REL_TOL = 1e-9


def _close(value: float, ref: float, rel: float = REL_TOL) -> bool:
    return abs(value - ref) <= rel * max(abs(ref), 1.0)


def _all_finite(obj) -> bool:
    if isinstance(obj, dict):
        return all(_all_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_all_finite(v) for v in obj)
    if isinstance(obj, float):
        return math.isfinite(obj)
    return True


def _probability(log_bound: float) -> float:
    return 1.0 if log_bound >= 0.0 else math.exp(log_bound)


def check_op(op, rc: int, out: str) -> str | None:
    """Check one CLI op's exit code and stdout against its oracle."""
    if rc != 0:
        return f"exit code {rc}"
    try:
        return _CHECKS[op.kind](op.params, out)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unparsable output: {type(exc).__name__}: {exc}"


# ------------------------------------------------------------ Monte Carlo


def _wilson_low(errors: int, trials: int, level: float) -> float:
    if errors == 0:
        return 0.0
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(phat * (1.0 - phat) / trials + z * z / (4.0 * trials**2))
    return max(0.0, center - margin)


def _check_mc(params: dict, out: str) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != MC_HEADER:
        return "MC header mismatch"
    if len(rows) != 2:
        return f"expected one MC row, got {len(rows) - 1}"
    row = dict(zip(MC_HEADER, rows[1]))
    if row["error"]:
        return f"MC row error: {row['error']}"
    expect_d = "" if params["d"] is None else str(params["d"])
    echoed = (row["target"], row["design_mode"], int(row["n"]), int(row["p"]), int(row["k"]),
              row["d"], int(row["seed"]), float(row["level"]), int(row["trials"]))
    wanted = (params["target"], params["design_mode"], params["n"], params["p"], params["k"],
              expect_d, params["seed"], params["level"], params["trials"])
    if echoed != wanted:
        return f"MC row echoes {echoed}, expected {wanted}"
    errors, trials = int(row["errors"]), int(row["trials"])
    if not 0 <= errors <= trials:
        return f"errors {errors} outside [0, {trials}]"
    bound = float(row["bound"])
    if not 0.0 <= bound <= 1.0:
        return f"bound {bound} outside [0, 1]"
    if not _close(float(row["rate"]), errors / trials, 1e-12):
        return "rate != errors / trials"
    low = _wilson_low(errors, trials, params["level"])
    if not _close(float(row["wilson_low"]), low, 1e-9):
        return f"wilson_low {row['wilson_low']} != reference {low}"
    if row["dominated"] != "True" or not low <= bound:
        return f"bound {bound} not dominating at the Wilson edge {low} (dominated={row['dominated']})"
    return None


# ------------------------------------------------------------ bounds


def _design(params: dict) -> np.ndarray:
    from supportlab.model import gaussian_design

    return gaussian_design(params["n"], params["p"], params["seed"]).entries


def _basis(cols: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(cols)
    return q


def reference_log_mgf(x: np.ndarray, support, wrong, beta_min: float, t: float) -> float:
    """Dense log E[exp(t y^T Psi y)], y ~ N(mu, I), by Cholesky of I - 2t Psi."""
    qt = _basis(x[:, list(support)])
    qf = _basis(x[:, list(wrong)])
    psi = qf @ qf.T - qt @ qt.T
    mu = x[:, list(support)].sum(axis=1) * beta_min
    a = np.eye(x.shape[0]) - 2.0 * t * psi
    factor = scipy.linalg.cho_factor(a)
    psi_mu = psi @ mu
    quad = 2.0 * t * t * float(psi_mu @ scipy.linalg.cho_solve(factor, psi_mu))
    logdet = 2.0 * float(np.sum(np.log(np.diag(factor[0]))))
    return quad + t * float(mu @ psi_mu) - 0.5 * logdet


def reference_energy(x: np.ndarray, support, wrong, beta_min: float) -> tuple[float, int]:
    """g = ||(I - Pi_F) X_{T-F} beta_{T-F}||^2 and the deficit d = |T - F|."""
    missed = sorted(set(support) - set(wrong))
    v = x[:, missed].sum(axis=1) * beta_min
    qf = _basis(x[:, list(wrong)])
    resid = v - qf @ (qf.T @ v)
    return float(resid @ resid), len(missed)


def _echo(record: dict, params: dict, keys) -> str | None:
    for key in keys:
        if record.get(key) != params[key]:
            return f"{key}={record.get(key)!r}, expected {params[key]!r}"
    return None


def _check_mgf(params: dict, out: str) -> str | None:
    record = json.loads(out)
    if not _all_finite(record):
        return "non-finite value in JSON"
    bad = _echo(record, params, ("n", "p", "k", "seed", "t"))
    if bad:
        return bad
    ref = reference_log_mgf(_design(params), params["support"], params["wrong"],
                            params["beta_min"], params["t"])
    if not _close(record["log_mgf"], ref):
        return f"log_mgf {record['log_mgf']!r} != reference {ref!r}"
    return None


def _check_bound_pairwise(params: dict, out: str) -> str | None:
    record = json.loads(out)
    if not _all_finite(record):
        return "non-finite value in JSON"
    bad = _echo(record, params, ("n", "p", "k", "seed"))
    if bad:
        return bad
    g, d = reference_energy(_design(params), params["support"], params["wrong"],
                            params["beta_min"])
    log_bound = -CHERNOFF_C * g + 0.5 * d
    if record["d"] != d:
        return f"d={record['d']}, expected {d}"
    if not _close(record["projection_energy"], g):
        return f"projection_energy {record['projection_energy']!r} != reference {g!r}"
    if not _close(record["log_bound"], log_bound):
        return f"log_bound {record['log_bound']!r} != reference {log_bound!r}"
    if not _close(record["probability"], _probability(log_bound)):
        return "probability != min(1, exp(log_bound))"
    return None


def _check_union_sum(params: dict, out: str) -> str | None:
    record = json.loads(out)
    if not _all_finite(record):
        return "non-finite value in JSON"
    n, p, k, b2 = params["n"], params["p"], params["k"], params["beta_min_sq"]

    def log_comb(a: int, b: int) -> float:
        return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)

    # A deficit d > p - k has no wrong support (C(p - k, d) = 0), so no term.
    terms = [
        log_comb(k, d) + log_comb(p - k, d)
        - 0.5 * (n - k) * math.log1p(2.0 * CHERNOFF_C * d * b2) + 0.5 * d
        for d in range(1, min(k, p - k) + 1)
    ]
    top = max(terms)
    ref = top + math.log(sum(math.exp(t - top) for t in terms))
    if not _close(record["log_bound"], ref):
        return f"log_bound {record['log_bound']!r} != reference {ref!r}"
    if not _close(record["probability"], _probability(ref)):
        return "probability != min(1, exp(log_bound))"
    return None


def _check_union_closed(params: dict, out: str) -> str | None:
    record = json.loads(out)
    if not _all_finite(record):
        return "non-finite value in JSON"
    p, k, big_b = params["p"], params["k"], (9.0 - 5.0) / 2.0
    ref = math.log(k) + 2.5 + max(-big_b * math.log(p - k),
                                  -k * big_b * (1.0 + math.log((p - k) / k)))
    if not _close(record["log_bound"], ref):
        return f"log_bound {record['log_bound']!r} != reference {ref!r}"
    if not _close(record["probability"], _probability(ref)):
        return "probability != min(1, exp(log_bound))"
    return None


def _check_regime(params: dict, out: str) -> str | None:
    rows = list(csv.reader(io.StringIO(out)))
    if not rows or rows[0] != REGIME_HEADER:
        return "regime header mismatch"
    body = [dict(zip(REGIME_HEADER, r)) for r in rows[1:]]
    if [r["regime"] for r in body] != [params["regime"]] * len(params["grid"]):
        return "regime rows do not match the p grid"
    for r, p in zip(body, params["grid"]):
        if r["error"] or int(r["p"]) != p:
            return f"row for p={p} has p={r['p']} error={r['error']!r}"
        vals = {key: float(r[key]) for key in REGIME_HEADER[3:9]}
        if not all(math.isfinite(v) and v > 0 for v in vals.values()):
            return f"non-finite or non-positive value in row p={p}"
        if not (_close(vals["sufficient_ratio"], vals["sufficient_n"] / vals["predictor"], 1e-12)
                and _close(vals["necessary_ratio"], vals["necessary_n"] / vals["predictor"], 1e-12)):
            return f"ratio columns inconsistent in row p={p}"
    return None


def _check_verify(params: dict, out: str) -> str | None:
    expected = [f"PASS {name}" for name in VERIFY_CHECK_NAMES]
    expected.append(f"{len(VERIFY_CHECK_NAMES)}/{len(VERIFY_CHECK_NAMES)} checks passed")
    if out.splitlines() != expected:
        return "verify output is not all checks passing"
    return None


_CHECKS = {
    "mc": _check_mc,
    "mgf": _check_mgf,
    "bound-pairwise": _check_bound_pairwise,
    "union-sum": _check_union_sum,
    "union-closed": _check_union_closed,
    "regime": _check_regime,
    "verify": _check_verify,
}


# ------------------------------------------------------------ decoder


def decoder_instances(seed: int):
    """Instances for the decoder oracle, including rank-deficient designs."""
    from supportlab.model import DesignMatrix, ProblemInstance, SparseSignal, make_pattern

    gen = np.random.default_rng([seed, 7])
    cases = []
    for n, p, k, support, noise, dup in [
        (10, 8, 2, (1, 4), 0.5, None),
        (14, 9, 3, (0, 3, 7), 0.5, None),
        (12, 8, 2, (2, 6), 0.3, (2, 5)),  # truth ties with {5, 6}: lexicographic pick
        (12, 8, 2, (0, 6), 0.3, (3, 4)),  # candidate {3, 4} has rank 1
        (9, 7, 2, (2, 5), 0.0, None),     # noiseless: the best score is ~0
    ]:
        x = gen.standard_normal((n, p))
        if dup is not None:
            x[:, dup[1]] = x[:, dup[0]]
        values = gen.uniform(1.0, 2.0, size=k) * gen.choice([-1.0, 1.0], size=k)
        y = x[:, list(support)] @ values + noise * gen.standard_normal(n)
        signal = SparseSignal(pattern=make_pattern(list(support), p), values=values)
        cases.append(ProblemInstance(design=DesignMatrix(entries=x), signal=signal,
                                     observation=y))
    return cases


def brute_force_decode(x: np.ndarray, y: np.ndarray, k: int):
    """(support, score, runner-up score) by lstsq over every k-subset in order."""
    scores = []
    for combo in itertools.combinations(range(x.shape[1]), k):
        sub = x[:, list(combo)]
        theta = np.linalg.lstsq(sub, y, rcond=None)[0]
        resid = y - sub @ theta
        scores.append((float(resid @ resid), combo))
    best = min(s for s, _ in scores)
    winner = next(c for s, c in scores if _close(s, best))
    ordered = sorted(s for s, _ in scores)
    return winner, ordered[0], ordered[1]


def check_decode(instance, result) -> str | None:
    """Declared support, tie-break and runner-up score against brute force."""
    x, y = instance.design.entries, instance.observation
    winner, best, runner_up = brute_force_decode(x, y, instance.k)
    if tuple(result.pattern.indices) != winner:
        return f"declared {result.pattern.indices}, brute force {winner}"
    if not _close(result.score, best):
        return f"score {result.score!r} != brute force {best!r}"
    if not _close(result.runner_up_score, runner_up):
        return f"runner_up_score {result.runner_up_score!r} != brute force {runner_up!r}"
    if result.candidates_scored != math.comb(x.shape[1], instance.k):
        return f"candidates_scored {result.candidates_scored}"
    return None
