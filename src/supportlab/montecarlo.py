"""Deterministic Monte Carlo estimation of decoder error probabilities.

Each trial draws its noise (and, in fresh-design mode, its matrix) from its
own counter-based stream keyed by (master_seed, kind, trial index), so the
per-trial outcome is a pure function of the experiment spec.  Trials run
serially, in index order, in fixed-size blocks: a block draws its trials'
streams through one re-keyed generator (``rng.streams``).  Pairwise runs of
every design mode, noiseless ones included, go through one block loop that
forms the pairwise statistic Z_F for the whole block in one expression.
Block edges never change a draw, so a run of N trials is a prefix of a run
of N + M trials.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from statistics import NormalDist
from typing import Iterator, Optional, Sequence

import numpy as np

from . import rng
from .bounds import averaged_pairwise_bound, pairwise_conditional_bound, union_error_bound_sum
from .decoder import DEFAULT_CANDIDATE_BUDGET, decode_exhaustive
from .errors import BudgetError, ValidationError
from .model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    SparsityPattern,
    build_projector,
    column_space_basis,
    flat_signal,
    gaussian_design,
    make_pattern,
    observe,
    pattern_count,
    pattern_difference,
)

TARGET_PAIRWISE = "pairwise"
TARGET_RECOVERY = "recovery"
DESIGN_FIXED = "fixed"
DESIGN_FRESH = "fresh"

#: Most trials in one block, and most random numbers one block may draw; a
#: block of large trials (n * p numbers each in fresh-design mode) holds fewer.
#: Larger blocks measured no faster at the benchmark's sizes and held more
#: memory.
BLOCK = 256
BLOCK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one batch of trials bit-exactly."""

    n: int
    p: int
    k: int
    trials: int
    master_seed: int
    target: str = TARGET_PAIRWISE
    design_mode: str = DESIGN_FIXED
    beta_min: float = 1.0
    beta_values: Optional[tuple[float, ...]] = None
    true_pattern: Optional[tuple[int, ...]] = None  # None -> {0..k-1}
    random_true_pattern: bool = False
    wrong_pattern: Optional[tuple[int, ...]] = None  # pairwise target only
    noiseless: bool = False
    level: float = 0.95

    def validate(self) -> None:
        """Raise ``ValidationError`` for an inconsistent spec; its ``params``
        name the fields the failed condition compares."""
        # Recovery admits the degenerate p == k (a single candidate support,
        # which the decoder always declares); pairwise needs room for F != T.
        if not (self.p >= self.k >= 1):
            raise ValidationError(f"need p >= k >= 1, got p={self.p}, k={self.k}",
                                  params=("p", "k"))
        if self.target == TARGET_PAIRWISE and self.p <= self.k:
            raise ValidationError(f"pairwise target needs p > k, got p={self.p}, k={self.k}",
                                  params=("p", "k"))
        if self.n < 1:
            raise ValidationError(f"need n >= 1, got n={self.n}", params=("n",))
        if self.trials < 1:
            raise ValidationError(f"need trials >= 1, got {self.trials}", params=("trials",))
        if not 0.0 < self.level < 1.0:
            raise ValidationError(f"confidence level must be in (0,1), got {self.level}",
                                  params=("level",))
        if self.target not in (TARGET_PAIRWISE, TARGET_RECOVERY):
            raise ValidationError(f"unknown target {self.target!r}", params=("target",))
        if self.design_mode not in (DESIGN_FIXED, DESIGN_FRESH):
            raise ValidationError(f"unknown design mode {self.design_mode!r}",
                                  params=("design_mode",))
        if self.beta_values is not None and len(self.beta_values) != self.k:
            raise ValidationError(
                f"explicit beta has {len(self.beta_values)} entries, need k={self.k}",
                params=("beta_values", "k"),
            )
        if self.true_pattern is not None and len(self.true_pattern) != self.k:
            raise ValidationError(
                f"true pattern has {len(self.true_pattern)} indices, need k={self.k}",
                params=("true_pattern", "k"),
            )
        if self.beta_values is None and self.beta_min <= 0:
            raise ValidationError(f"beta_min must be positive, got {self.beta_min}",
                                  params=("beta_min",))
        if self.target == TARGET_PAIRWISE:
            if self.wrong_pattern is None:
                raise ValidationError("pairwise target needs a wrong pattern F",
                                      params=("wrong_pattern",))
            if self.random_true_pattern:
                raise ValidationError(
                    "pairwise target needs a fixed true pattern (d must be well defined)",
                    params=("random_true_pattern",),
                )
            if len(self.wrong_pattern) != self.k:
                raise ValidationError(
                    f"wrong pattern has {len(self.wrong_pattern)} indices, need k={self.k}",
                    params=("wrong_pattern", "k"),
                )
        if self.target == TARGET_RECOVERY and self.design_mode != DESIGN_FRESH:
            raise ValidationError(
                "full-recovery experiments average over the design: use design_mode='fresh'",
                params=("design_mode",),
            )
        if self.n <= self.k and self._bound_needs_n_above_k():
            raise ValidationError(f"need n > k, got n={self.n}, k={self.k}", params=("n", "k"))
        # The checks make_pattern and SparseSignal make when the trials build T,
        # F and beta, run here so that their errors name the fields compared.
        if self.true_pattern is not None:
            self._check_pattern("true_pattern")
        if self.target == TARGET_PAIRWISE:
            self._check_pattern("wrong_pattern")
        if self.beta_values is not None and 0.0 in self.beta_values:
            raise ValidationError("signal values must be exactly nonzero on the support",
                                  params=("beta_values",))
        # Only the union bound, attached to recovery with p > k, squares beta;
        # test |beta| < 1 first, as squaring a |beta| above ~1e154 raises.
        smallest = self.beta_min if self.beta_values is None else min(map(abs, self.beta_values))
        if self.target == TARGET_RECOVERY and self.p > self.k and smallest < 1 and smallest**2 == 0:
            field = "beta_min" if self.beta_values is None else "beta_values"
            raise ValidationError(f"{field} too small: beta_min^2 underflows to 0", params=(field,))

    def _check_pattern(self, field: str) -> None:
        """The indices in ``field`` form a pattern in [0, p); a failure is
        ``make_pattern``'s, naming ``field`` and p."""
        try:
            make_pattern(getattr(self, field), self.p)
        except ValidationError as exc:
            exc.params = (field, "p")
            raise

    def _bound_needs_n_above_k(self) -> bool:
        """Whether the bound ``_attach_bound`` will evaluate is the union bound
        (recovery with a wrong support to miss) or the design-averaged bound
        (fresh-design pairwise with F != T); both need n > k."""
        if self.target == TARGET_RECOVERY:
            return self.p > self.k
        if self.design_mode != DESIGN_FRESH:
            return False
        truth = self.true_pattern if self.true_pattern is not None else range(self.k)
        return not set(truth) <= set(self.wrong_pattern)

    def true_support(self) -> SparsityPattern:
        idx = self.true_pattern if self.true_pattern is not None else tuple(range(self.k))
        return make_pattern(idx, self.p)

    def wrong_support(self) -> SparsityPattern:
        assert self.wrong_pattern is not None
        return make_pattern(self.wrong_pattern, self.p)

    def signal_on(self, support: SparsityPattern) -> SparseSignal:
        if self.beta_values is not None:
            return SparseSignal(pattern=support, values=np.array(self.beta_values))
        return flat_signal(support, self.beta_min)

    def beta_min_sq(self) -> float:
        if self.beta_values is not None:
            return float(min(abs(v) for v in self.beta_values)) ** 2
        return self.beta_min**2

    def digest(self) -> str:
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class TrialBatchResult:
    error_count: int
    trials: int
    rate: float
    wilson_low: float
    wilson_high: float
    bound_value: float
    spec_digest: str


def wilson_interval(errors: int, trials: int, level: float = 0.95) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials < 1 or errors < 0 or errors > trials:
        raise ValidationError(f"need 0 <= errors <= trials, got {errors}/{trials}")
    if not 0.0 < level < 1.0:
        raise ValidationError(f"confidence level must be in (0,1), got {level}")
    z = NormalDist().inv_cdf(0.5 * (1.0 + level))
    phat = errors / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2.0 * trials)) / denom
    margin = (z / denom) * math.sqrt(
        phat * (1.0 - phat) / trials + z * z / (4.0 * trials * trials)
    )
    # The score interval's endpoints are exactly 0 and 1 at the extremes;
    # computing them from center/margin loses that to cancellation.
    low = 0.0 if errors == 0 else max(0.0, center - margin)
    high = 1.0 if errors == trials else min(1.0, center + margin)
    return low, high


def _blocks(trials: int, per_trial: int) -> Iterator[tuple[int, int]]:
    """Consecutive trial ranges [start, stop) covering ``trials`` trials.

    A block holds at most ``BLOCK`` trials and, when one trial draws
    ``per_trial`` numbers, at most ``BLOCK_ELEMENTS`` numbers (but never
    fewer than one trial).
    """
    size = max(1, min(BLOCK, BLOCK_ELEMENTS // max(1, per_trial)))
    for start in range(0, trials, size):
        yield start, min(start + size, trials)


def _normal_block(
    spec: ExperimentSpec, kind: int, start: int, stop: int, shape: tuple[int, ...]
) -> np.ndarray:
    """Standard normals of shape ``shape`` for each trial in [start, stop),
    trial i's drawn from its own stream (master_seed, kind, i)."""
    out = np.empty((stop - start, *shape))
    for row, gen in zip(out, rng.streams(spec.master_seed, kind, start, stop)):
        gen.standard_normal(out=row)
    return out


def _noise_block(spec: ExperimentSpec, start: int, stop: int) -> np.ndarray:
    """One noise row per trial in [start, stop).  Noiseless runs get a single
    zero row, which broadcasts over the block: every trial observes the same
    y, so a fixed design forms its Z_F once, with the arithmetic of one trial."""
    if spec.noiseless:
        return np.zeros((1, spec.n))
    return _normal_block(spec, rng.KIND_NOISE, start, stop, (spec.n,))


def _support_block(spec: ExperimentSpec, start: int, stop: int) -> list[SparsityPattern]:
    if not spec.random_true_pattern:
        return [spec.true_support()] * (stop - start)
    return [
        make_pattern([int(i) for i in gen.choice(spec.p, size=spec.k, replace=False)], spec.p)
        for gen in rng.streams(spec.master_seed, rng.KIND_PATTERN, start, stop)
    ]


def pairwise_trial_outcomes(spec: ExperimentSpec) -> np.ndarray:
    """Boolean error indicator per trial: Z_F > 0 (decoder strictly prefers F).

    Z_F = ||Q_F^T y||^2 - ||Q_T^T y||^2, with Q_T and Q_F orthonormal bases of
    col(X_T) and col(X_F): fixed-design mode builds them once, from design 0,
    and fresh-design mode per trial, with one batched SVD per block.  When the
    fixed design's two column spaces coincide Z_F is identically zero, so no
    trial errs (the computed Z_F would be rounding noise of either sign).
    """
    spec.validate()
    if spec.target != TARGET_PAIRWISE:
        raise ValidationError("spec target is not pairwise")
    t_patt = spec.true_support()
    f_patt = spec.wrong_support()
    values = spec.signal_on(t_patt).values
    fresh = spec.design_mode == DESIGN_FRESH
    out = np.zeros(spec.trials, dtype=bool)
    if not fresh:
        design = gaussian_design(spec.n, spec.p, spec.master_seed)
        qt = build_projector(design, t_patt)
        qf = build_projector(design, f_patt)
        if column_space_basis(np.hstack([qt, qf])).shape[1] == qt.shape[1] == qf.shape[1]:
            return out
        xt = design.submatrix(t_patt)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed Z_F is named below
        for start, stop in _blocks(spec.trials, spec.n * spec.p if fresh else spec.n):
            if fresh:
                designs = _normal_block(spec, rng.KIND_DESIGN, start, stop, (spec.n, spec.p))
                xt = designs[:, :, list(t_patt.indices)]
                qt, qf = column_space_basis(np.stack([xt, designs[:, :, list(f_patt.indices)]]))
            y = xt @ values + _noise_block(spec, start, stop)
            if fresh:
                y = y[:, None, :]  # each trial's row vector meets its own bases
            z = np.sum((y @ qf) ** 2, axis=-1) - np.sum((y @ qt) ** 2, axis=-1)
            # Finite inputs can overflow Z_F to inf or NaN, which > 0 would read
            # as a trial with or without an error: one check per block.
            if not np.isfinite(z).all():
                raise ValidationError("pairwise statistic Z_F overflows double precision",
                                      params=("beta_values", "beta_min"))
            out[start:stop] = (z > 0.0).reshape(-1)
    return out


def recovery_trial_outcomes(
    spec: ExperimentSpec, max_candidates: int = DEFAULT_CANDIDATE_BUDGET
) -> np.ndarray:
    """Boolean error indicator per trial: declared support differs from the truth."""
    spec.validate()
    if spec.target != TARGET_RECOVERY:
        raise ValidationError("spec target is not recovery")
    total = pattern_count(spec.p, spec.k)
    if total > max_candidates:
        raise BudgetError(
            f"each decode scores C({spec.p},{spec.k}) = {total} candidates, "
            f"exceeding the budget of {max_candidates}"
        )
    out = np.zeros(spec.trials, dtype=bool)
    for start, stop in _blocks(spec.trials, spec.n * spec.p):
        draws = zip(
            _support_block(spec, start, stop),
            _normal_block(spec, rng.KIND_DESIGN, start, stop, (spec.n, spec.p)),
            np.broadcast_to(_noise_block(spec, start, stop), (stop - start, spec.n)),
        )
        for i, (t_patt, entries, noise) in enumerate(draws, start):
            signal = spec.signal_on(t_patt)
            design = DesignMatrix(entries=entries)
            inst = ProblemInstance(design=design, signal=signal,
                                   observation=observe(design, signal, noise))
            decoded = decode_exhaustive(inst, max_candidates)
            out[i] = decoded.pattern.indices != t_patt.indices
    return out


def _attach_bound(spec: ExperimentSpec) -> float:
    if spec.target == TARGET_PAIRWISE:
        t_patt = spec.true_support()
        f_patt = spec.wrong_support()
        if spec.design_mode == DESIGN_FIXED:
            design = gaussian_design(spec.n, spec.p, spec.master_seed)
            report = pairwise_conditional_bound(design, spec.signal_on(t_patt), t_patt, f_patt)
        else:
            diff = pattern_difference(t_patt, f_patt)
            if len(diff) == 0:
                return 1.0
            miss = float(np.sum(spec.signal_on(t_patt).values_on(diff) ** 2))
            report = averaged_pairwise_bound(spec.n, spec.k, len(diff), miss)
        return report.probability
    if spec.p == spec.k:
        return 0.0  # no wrong support exists
    return union_error_bound_sum(spec.n, spec.p, spec.k, spec.beta_min_sq()).probability


def _finish(spec: ExperimentSpec, outcomes: np.ndarray) -> TrialBatchResult:
    errors = int(np.sum(outcomes))
    low, high = wilson_interval(errors, spec.trials, spec.level)
    return TrialBatchResult(
        error_count=errors,
        trials=spec.trials,
        rate=errors / spec.trials,
        wilson_low=low,
        wilson_high=high,
        bound_value=_attach_bound(spec),
        spec_digest=spec.digest(),
    )


def run_pairwise(spec: ExperimentSpec) -> TrialBatchResult:
    """Count trials with Z_F > 0; attach the matching analytic bound.

    Fixed-design mode reuses one seeded matrix (the bound is conditional on
    it); fresh-design mode draws a new matrix per trial (the bound is the
    design-averaged one).
    """
    return _finish(spec, pairwise_trial_outcomes(spec))


def run_full_recovery(
    spec: ExperimentSpec, max_candidates: int = DEFAULT_CANDIDATE_BUDGET
) -> TrialBatchResult:
    """Decode exhaustively per trial and count declared != true support."""
    return _finish(spec, recovery_trial_outcomes(spec, max_candidates))


@dataclass(frozen=True)
class SweepRow:
    spec: ExperimentSpec
    result: Optional[TrialBatchResult]
    error: Optional[str]


def sweep(specs: Sequence[ExperimentSpec]) -> list[SweepRow]:
    """One result row per grid point, in grid order; invalid points are
    reported per-row and the sweep continues."""
    rows: list[SweepRow] = []
    for spec in specs:
        try:
            if spec.target == TARGET_PAIRWISE:
                res = run_pairwise(spec)
            else:
                res = run_full_recovery(spec)
            rows.append(SweepRow(spec=spec, result=res, error=None))
        except (ValidationError, BudgetError) as exc:
            rows.append(SweepRow(spec=spec, result=None, error=str(exc)))
    return rows
