"""The optimal exhaustive decoder.

The decoder scores every size-k support F by the residual sum of squares
left after projecting y onto col(X_F) and declares the minimizer.  Ties
(probability zero under the model, reachable with crafted inputs) go to the
lexicographically smallest pattern, so results are deterministic.

Candidates are filtered, not declared, by a batched Gram score: with
G = X^T X, b = X^T y formed once per instance, each lexicographic chunk of
candidates gets RSS ~ y^T y - ||L_F^{-1} b_F||^2 from a k-step Cholesky
vectorised over the chunk.  Only candidates that could still be the best or
the runner-up (approximate score within a margin of the running runner-up)
and ill-conditioned ones (small Cholesky pivot) are re-scored on the exact
``column_space_basis`` route, in lexicographic order with strict
comparison.  The declared pattern, score and runner-up score therefore
always come from the exact route, bit for bit as if every candidate had
been scored on it.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .model import (
    ProblemInstance,
    SparsityPattern,
    column_space_basis,
    pattern_count,
    residual_energy,
)

#: Desk-scale guardrail: exhaustive decoding is exponential in k.
DEFAULT_CANDIDATE_BUDGET = 5_000_000

#: Candidates scored per batched Gram step.
CHUNK_SIZE = 4096
#: A candidate whose smallest squared Cholesky pivot, relative to its largest
#: column norm squared, falls below this is ill-conditioned (duplicate,
#: collinear or zero columns, k > n) and is always scored on the exact route.
PIVOT_FLOOR = 1e-4
#: Slack, relative to y^T y, allowed between a Gram score and the exact score
#: of a well-conditioned candidate.  Rounding in the Gram route is of order
#: n k eps / PIVOT_FLOOR relative to y^T y, far below this.
SCORE_MARGIN = 1e-6


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
    """Return the best k-subset exactly as scoring every one on the exact
    route, in lexicographic order, would.

    Batched Gram scores only pick the candidates the exact route re-scores
    (see the module docstring).  The minimum is taken over exact scores with
    strict comparison, so the first (lexicographically smallest) pattern wins
    ties.  Raises BudgetError when C(p, k) exceeds ``max_candidates``.
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
    gram = _GramScorer(entries, y)
    if not math.isfinite(gram.yty):
        raise ValidationError("observation energy y.y overflows double precision",
                              params=("observation",))
    if not np.isfinite(gram.norm_sq).all():
        raise ValidationError("design column energy overflows double precision")
    best_combo = None
    best = math.inf
    runner_up = math.inf
    for chunk in _lex_chunks(p, k):
        approx, exact_only = gram.scores(chunk)
        # A well-conditioned Gram score is within one slack of the exact
        # score, so each entry below is at least the exact score of a
        # distinct candidate and the second smallest bounds the final
        # runner-up from above.  Every candidate whose exact score can reach
        # that bound has a Gram score within one more slack of it.
        ceiling = np.partition(np.append(approx[~exact_only] + gram.slack,
                                         (best, runner_up)), 1)[1]
        keep = exact_only | ~(approx > ceiling + gram.slack)
        for row in np.flatnonzero(keep):
            combo = tuple(int(i) for i in chunk[row])
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


def _lex_chunks(p: int, k: int):
    """All k-subsets of range(p) in lexicographic order, as (m, k) index
    arrays of at most CHUNK_SIZE rows."""
    combos = itertools.combinations(range(p), k)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, CHUNK_SIZE)),
            dtype=np.intp,
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, k)


class _GramScorer:
    """Approximate residual energies of many candidates from one Gram matrix.

    Columns are normalised to unit norm (zero columns stay zero), so the
    Cholesky pivots measure collinearity; scaling each squared pivot by the
    column's norm squared over the candidate's largest matches the relative
    rank cutoff of ``column_space_basis``.
    """

    def __init__(self, entries: np.ndarray, y: np.ndarray):
        with np.errstate(all="ignore"):
            norms = np.linalg.norm(entries, axis=0)
            inv = np.where(norms > 0.0, 1.0 / norms, 0.0)
            self.gram = (entries.T @ entries) * inv[:, None] * inv[None, :]
            self.proj = (entries.T @ y) * inv
            self.yty = float(y @ y)  # inf when y is finite but y.y overflows
        self.norm_sq = norms * norms
        self.slack = SCORE_MARGIN * self.yty

    def scores(self, chunk: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(approximate RSS, ill-conditioned mask) for each row of ``chunk``."""
        k = chunk.shape[1]
        cols = [chunk[:, j] for j in range(k)]
        low: dict[tuple[int, int], np.ndarray] = {}
        z: list[np.ndarray] = []
        with np.errstate(all="ignore"):
            col_sq = self.norm_sq[chunk]
            rel_sq = col_sq / col_sq.max(axis=1, keepdims=True)
            bad = np.zeros(chunk.shape[0], dtype=bool)
            for j in range(k):
                pivot_sq = self.gram[cols[j], cols[j]]
                for i in range(j):
                    pivot_sq = pivot_sq - low[j, i] * low[j, i]
                # NaN-safe: anything not provably above the floor is bad.
                bad |= ~(pivot_sq * rel_sq[:, j] >= PIVOT_FLOOR)
                pivot = np.sqrt(np.where(bad, 1.0, pivot_sq))
                for r in range(j + 1, k):
                    entry = self.gram[cols[r], cols[j]]
                    for i in range(j):
                        entry = entry - low[r, i] * low[j, i]
                    low[r, j] = entry / pivot
                zj = self.proj[cols[j]]
                for i in range(j):
                    zj = zj - low[j, i] * z[i]
                z.append(zj / pivot)
            approx = self.yty - sum(zj * zj for zj in z)
        return approx, bad


def _score_columns(entries, combo, y) -> float:
    """Residual energy ||y - Pi y||^2 against the span of columns ``combo``:
    the one exact scoring route, shared by the decoder and score_support."""
    return residual_energy(column_space_basis(entries[:, list(combo)]), y)

