"""The optimal exhaustive decoder and its pairwise decision statistic.

The decoder scores every size-k support F by the residual sum of squares
left after projecting y onto col(X_F) and declares the minimizer.  Ties
(probability zero under the model, reachable with crafted inputs) go to the
lexicographically smallest pattern, so results are deterministic.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

from .errors import BudgetError, ValidationError
from .model import ProblemInstance, SparsityPattern, column_space_basis, pattern_count

#: Desk-scale guardrail: exhaustive decoding is exponential in k.
DEFAULT_CANDIDATE_BUDGET = 5_000_000


@dataclass(frozen=True)
class DecodeResult:
    pattern: SparsityPattern
    score: float
    runner_up_score: float
    candidates_scored: int


def score_support(instance: ProblemInstance, pattern: SparsityPattern) -> float:
    """Residual sum of squares min_theta ||y - X_F theta||^2 = ||y - Pi_F y||^2."""
    if len(pattern) != instance.k:
        raise ValidationError(
            f"candidate support size {len(pattern)} != k={instance.k}"
        )
    if pattern.p != instance.p:
        raise ValidationError(f"pattern ambient {pattern.p} != design p {instance.p}")
    return _score_columns(instance.design.entries, pattern.indices, instance.observation)


def decode_exhaustive(
    instance: ProblemInstance,
    max_candidates: int = DEFAULT_CANDIDATE_BUDGET,
) -> DecodeResult:
    """Score every k-subset in lexicographic order and return the best.

    The minimum is taken with strict comparison, so the first (lexicographically
    smallest) pattern wins ties.  Raises BudgetError when C(p, k) exceeds
    ``max_candidates``.
    """
    p, k = instance.p, instance.k
    total = pattern_count(p, k)
    if total > max_candidates:
        raise BudgetError(
            f"exhaustive decode needs C({p},{k}) = {total} candidates, "
            f"exceeding the budget of {max_candidates}"
        )
    if k > instance.n:
        warnings.warn(
            f"k={k} exceeds n={instance.n}: candidate subspaces can absorb y entirely",
            stacklevel=2,
        )
    entries = instance.design.entries
    y = instance.observation
    best_combo = None
    best = math.inf
    runner_up = math.inf
    for combo in itertools.combinations(range(p), k):
        s = _score_columns(entries, combo, y)
        if s < best:
            runner_up = best
            best = s
            best_combo = combo
        elif s < runner_up:
            runner_up = s
    assert best_combo is not None
    return DecodeResult(
        pattern=SparsityPattern(indices=best_combo, p=p),
        score=best,
        runner_up_score=runner_up,
        candidates_scored=total,
    )


def _score_columns(entries, combo, y) -> float:
    """Residual energy ||y - Pi y||^2 against the span of columns ``combo``:
    the one scoring kernel, shared by the decoder loop and score_support."""
    basis = column_space_basis(entries[:, list(combo)])
    resid = y - basis @ (basis.T @ y)
    return float(resid @ resid)


def pairwise_statistic(instance: ProblemInstance, f: SparsityPattern) -> float:
    """Z_F = ||y - Pi_T y||^2 - ||y - Pi_F y||^2 = y^T (Pi_F - Pi_T) y.

    Strictly positive exactly when the decoder prefers F to the true support.
    Returns exactly 0.0 for f equal to the true support.
    """
    if len(f) != instance.k:
        raise ValidationError(f"candidate support size {len(f)} != k={instance.k}")
    if f.indices == instance.true_pattern.indices:
        return 0.0
    return score_support(instance, instance.true_pattern) - score_support(instance, f)
