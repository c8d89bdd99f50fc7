"""Analytic error bounds and sample-size conditions for exhaustive support recovery.

Everything here is a closed-form function of the problem parameters; the Monte
Carlo machinery lives elsewhere and is used only to check these expressions.
Bounds are computed and stored in the natural-log domain (exponents reach
-1e3 at modest parameters) and clamped to [0, 1] only at the report boundary.

Conventions: T is the true support, F a candidate support, d = |T - F| the
overlap deficit, g = ||(I - Pi_F) X_{T-F} beta_{T-F}||^2 the signal energy
invisible to the wrong subspace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, PreconditionError, ValidationError
from .model import (
    DesignMatrix,
    SparseSignal,
    SparsityPattern,
    build_projector,
    column_space_basis,
    pattern_difference,
    residual_energy,
)

# Optimal constants for the quadratic-form Chernoff exponent: the rate
# 2t^2/(1-2t) - t over |t| < 1/2 is minimized at t* with value sqrt(2) - 3/2,
# and the bound's decay constant is c = -min = (3 - 2 sqrt 2)/2.
CHERNOFF_C = (3.0 - 2.0 * math.sqrt(2.0)) / 2.0
CHERNOFF_T_STAR = (1.0 - math.sqrt(2.0) / 2.0) / 2.0
CHERNOFF_MIN = math.sqrt(2.0) - 1.5


@dataclass(frozen=True)
class BoundReport:
    """One bound evaluation; ``probability`` is always min(1, exp(log_bound))."""

    log_bound: float
    probability: float
    d: Optional[int] = None
    projection_energy: Optional[float] = None

    @classmethod
    def from_log(
        cls,
        log_bound: float,
        d: Optional[int] = None,
        projection_energy: Optional[float] = None,
    ) -> "BoundReport":
        prob = 1.0 if log_bound >= 0.0 else math.exp(log_bound)
        return cls(log_bound=float(log_bound), probability=prob, d=d,
                   projection_energy=projection_energy)


def chernoff_rate(t: float) -> float:
    """2t^2/(1-2t) - t, the rate whose infimum over |t|<1/2 is sqrt(2)-3/2."""
    if abs(t) >= 0.5:
        raise DomainError(f"rate requires |t| < 1/2, got t={t}")
    return 2.0 * t * t / (1.0 - 2.0 * t) - t


def projection_energy(
    design: DesignMatrix,
    signal: SparseSignal,
    t_pattern: SparsityPattern,
    f_pattern: SparsityPattern,
) -> float:
    """g = ||(I - Pi_F) X_{T-F} beta_{T-F}||^2, the energy F's subspace cannot absorb."""
    _check_support_pair(design, signal, t_pattern, f_pattern)
    diff = pattern_difference(t_pattern, f_pattern)
    if len(diff) == 0:
        return 0.0
    basis = build_projector(design, f_pattern)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflowed g is named below
        g = residual_energy(basis, design.submatrix(diff) @ signal.values_on(diff))
    if not math.isfinite(g):
        raise ValidationError("projection energy g overflows double precision")
    return g


def _check_support_pair(design, signal, t_pattern, f_pattern):
    if signal.pattern.indices != t_pattern.indices or signal.pattern.p != t_pattern.p:
        raise ValidationError("signal support must equal the true pattern")
    if t_pattern.p != design.p or f_pattern.p != design.p:
        raise ValidationError("pattern ambient dimension does not match the design")
    if len(f_pattern) != len(t_pattern):
        raise ValidationError(
            f"candidate size {len(f_pattern)} != true support size {len(t_pattern)}"
        )


def exact_quadratic_log_mgf(
    design: DesignMatrix,
    signal: SparseSignal,
    t_pattern: SparsityPattern,
    f_pattern: SparsityPattern,
    t: float | np.ndarray,
) -> float | np.ndarray:
    """Exact log E[exp(t Z)] for Z = y^T Psi y, y ~ N(X_T beta_T, I).

    Equal to 2t^2 mu^T Psi (I-2tPsi)^{-1} Psi mu + t mu^T Psi mu
    - (1/2) log det(I - 2tPsi).  Psi = Pi_F - Pi_T lives in the span of
    [X_T, X_F], so it is compressed to the r x r matrix Q^T Psi Q on an
    orthonormal basis Q of that span (r <= 2k) and only that matrix is
    eigendecomposed, at O(n k^2) cost; the eigenvalues Psi has outside the
    span are 0 and add nothing.  All eigenvalues lie in [-1, 1], so
    I - 2tPsi is positive definite for |t| < 1/2.

    ``t`` is a scalar (returns a float) or a 1-d array (returns an array of
    the same length, every entry equal to the scalar call at that t): one
    spectrum serves every t.
    """
    ts = np.asarray(t, dtype=float)
    outside = ~(np.abs(ts) < 0.5)  # NaN is outside too
    if np.any(outside):
        bad = t if ts.ndim == 0 else ts[outside][0]
        raise DomainError(f"log-MGF defined for |t| < 1/2, got t={bad}", params=("t",))
    _check_support_pair(design, signal, t_pattern, f_pattern)
    if f_pattern.indices == t_pattern.indices:
        return 0.0 if ts.ndim == 0 else np.zeros(ts.shape)
    qt = build_projector(design, t_pattern)
    qf = build_projector(design, f_pattern)
    q = column_space_basis(np.hstack([qt, qf]))
    at, af = q.T @ qt, q.T @ qf
    lam, vecs = np.linalg.eigh(af @ af.T - at @ at.T)
    denom = 1.0 - 2.0 * np.multiply.outer(ts, lam)
    singular = np.any(denom <= 0.0, axis=-1)
    if np.any(singular):
        bad = t if ts.ndim == 0 else ts[singular][0]
        raise DomainError(f"I - 2t*Psi not positive definite at t={bad}", params=("t",))
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is named below
        mu = design.submatrix(t_pattern) @ signal.values
        w_sq = (vecs.T @ (q.T @ mu)) ** 2
        quad = 2.0 * ts * ts * np.sum(lam**2 * w_sq / denom, axis=-1)
        linear = ts * np.sum(lam * w_sq)
        logdet = np.sum(np.log(denom), axis=-1)
        out = quad + linear - 0.5 * logdet
    if not np.isfinite(out).all():
        raise ValidationError("log-MGF overflows double precision")
    return float(out) if ts.ndim == 0 else out


def chain_log_bound(g: float, d: int, t: float) -> float:
    """Operator-norm/eigen-pair relaxation of the exact log-MGF at parameter t.

    [2t^2/(1 - 2|t|) - t] * g - (d/2) log(1 - 4t^2).  The |t| in the
    denominator keeps the operator-norm step valid on both signs of t; for
    t >= 0 (including the optimal t*) it coincides with 2t^2/(1-2t) - t.
    """
    if abs(t) >= 0.5:
        raise DomainError(f"chain bound requires |t| < 1/2, got t={t}")
    if g < 0:
        raise ValidationError(f"projection energy must be nonnegative, got {g}")
    if d < 0:
        raise ValidationError(f"overlap deficit must be nonnegative, got {d}")
    rate = 2.0 * t * t / (1.0 - 2.0 * abs(t)) - t
    return rate * g - 0.5 * d * math.log1p(-4.0 * t * t)


def pairwise_conditional_bound(
    design: DesignMatrix,
    signal: SparseSignal,
    t_pattern: SparsityPattern,
    f_pattern: SparsityPattern,
) -> BoundReport:
    """Bound on Pr[decoder declares F | X, beta, T]: exp(-c*g + d/2).

    Vacuous (probability 1) when F = T.
    """
    _check_support_pair(design, signal, t_pattern, f_pattern)
    d = len(pattern_difference(t_pattern, f_pattern))
    g = projection_energy(design, signal, t_pattern, f_pattern)
    log_bound = -CHERNOFF_C * g + 0.5 * d
    return BoundReport.from_log(log_bound, d=d, projection_energy=g)


def chi_square_log_mgf(t: float, dof: int) -> float:
    """log E[exp(t W)] = -(dof/2) log(1 - 2t) for W chi-square with dof degrees."""
    if dof < 1:
        raise ValidationError(f"degrees of freedom must be >= 1, got {dof}")
    if 2.0 * t >= 1.0:
        raise DomainError(f"chi-square MGF requires 2t < 1, got t={t}")
    return -0.5 * dof * math.log1p(-2.0 * t)


def averaged_pairwise_bound(n: int, k: int, d: int, miss_energy: float) -> BoundReport:
    """Design-averaged bound on declaring a fixed F at deficit d.

    exp(-((n-k)/2) log(1 + 2c ||beta_{T-F}||^2) + d/2): the conditional
    exponent's energy is ||beta_{T-F}||^2 times a chi-square with n-k degrees
    of freedom, and its MGF gives the log term.
    """
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}", params=("n", "k"))
    if not 1 <= d <= k:
        raise ValidationError(f"need 1 <= d <= k, got d={d}, k={k}", params=("d", "k"))
    if miss_energy < 0:
        raise ValidationError(f"miss energy must be nonnegative, got {miss_energy}",
                              params=("miss_energy",))
    log_bound = -0.5 * (n - k) * math.log1p(2.0 * CHERNOFF_C * miss_energy) + 0.5 * d
    return BoundReport.from_log(log_bound, d=d)


def union_error_bound_sum(n: int, p: int, k: int, beta_min_sq: float) -> BoundReport:
    """Union bound over all wrong supports, grouped by overlap deficit.

    sum_{d=1..k} C(k,d) C(p-k,d) exp(-((n-k)/2) log(1+2c d beta_min^2) + d/2),
    accumulated with log-sum-exp; the total is clamped to 1 only at the end.
    """
    _check_union_params(n, p, k, beta_min_sq)
    terms = []
    for d in range(1, k + 1):
        log_count = _log_comb(k, d) + _log_comb(p - k, d)
        log_term = log_count - 0.5 * (n - k) * math.log1p(
            2.0 * CHERNOFF_C * d * beta_min_sq
        ) + 0.5 * d
        terms.append(log_term)
    log_bound = _log_sum_exp(terms)
    return BoundReport.from_log(log_bound)


def _check_union_params(n: int, p: int, k: int, beta_min_sq: float) -> None:
    if k < 1 or p <= k:
        raise ValidationError(f"need p > k >= 1, got p={p}, k={k}", params=("p", "k"))
    if n <= k:
        raise ValidationError(f"need n > k, got n={n}, k={k}", params=("n", "k"))
    if beta_min_sq <= 0:
        raise ValidationError(f"beta_min^2 must be positive, got {beta_min_sq}",
                              params=("beta_min_sq",))


def _log_comb(a: int, b: int) -> float:
    """log C(a, b); -inf (an empty count) when b lies outside [0, a]."""
    if b < 0 or b > a:
        return -math.inf
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _log_sum_exp(terms: Sequence[float]) -> float:
    """log sum exp(terms), shifted by the largest term so nothing overflows."""
    t = np.asarray(terms, dtype=float)
    top_at = int(np.argmax(t))
    top = float(t[top_at])
    if top == -math.inf:
        return top
    return top + math.log1p(float(np.sum(np.exp(np.delete(t, top_at) - top))))


def convexity_condition(n: int, k: int, beta_min_sq: float) -> bool:
    """(n-k) beta_min^2 > 4 (1 + k beta_min^2)^2 / (k beta_min^2).

    This is the condition as published.  It is NOT sufficient for the
    deficit curve f to be convex with the actual constant c = (3-2sqrt2)/2
    (the 4 corresponds to c = 1/2); use ``curvature_condition`` for the exact
    requirement.
    """
    if k < 1:
        raise ValidationError(f"need k >= 1, got k={k}")
    if beta_min_sq <= 0:
        raise ValidationError(f"beta_min^2 must be positive, got {beta_min_sq}")
    # Both sides divided by beta_min^2, so that no finite beta_min^2 overflows.
    w = 1.0 / beta_min_sq + k
    return n - k > 4.0 * w * w / k


def curvature_condition(n: int, k: int, beta_min_sq: float) -> bool:
    """Exact convexity of the deficit curve on [1, k]: f''(1) > 0 and f''(k) > 0.

    f''(d) > 0 holds on an interval in d (its sign condition is a concave
    quadratic), so positivity at both endpoints gives convexity on [1, k]
    and hence a boundary maximum.  Strictly stronger than
    ``convexity_condition`` for every parameter.
    """
    if k < 1:
        raise ValidationError(f"need k >= 1, got k={k}")
    if beta_min_sq <= 0:
        raise ValidationError(f"beta_min^2 must be positive, got {beta_min_sq}")
    return _f_second(1.0, n, k, beta_min_sq) > 0 and _f_second(float(k), n, k, beta_min_sq) > 0


def _f_second(d: float, n: int, k: int, beta_min_sq: float) -> float:
    # The fraction's terms divided by beta_min^4, so that no finite
    # beta_min^2 overflows.
    w = 1.0 / beta_min_sq + 2.0 * CHERNOFF_C * d
    return -2.0 / d + 2.0 * CHERNOFF_C**2 * (n - k) / (w * w)


def f_curve(
    d: float, n: int, p: int, k: int, beta_min_sq: float
) -> tuple[float, float, float]:
    """The deficit curve f(d) and its first two derivatives.

    f(d) = d [5/2 + log(k(p-k)/d^2)] - ((n-k)/2) log(1 + 2c d beta_min^2)
    f'(d) = 1/2 + log(k(p-k)/d^2) - c beta_min^2 (n-k) / (1 + 2c d beta_min^2)
    f''(d) = -2/d + 2 c^2 beta_min^4 (n-k) / (1 + 2c d beta_min^2)^2

    The 1/2 in f' is the calculus-correct constant (the published display's
    5/2 drops the -2 from differentiating d*log(1/d^2)); both derivatives
    match central finite differences of f.
    """
    if d <= 0:
        raise DomainError(f"deficit must be positive, got d={d}")
    if k < 1 or p <= k:
        raise ValidationError(f"need p > k >= 1, got p={p}, k={k}")
    if beta_min_sq <= 0:
        raise ValidationError(f"beta_min^2 must be positive, got {beta_min_sq}")
    b2 = beta_min_sq
    c = CHERNOFF_C
    log_ratio = math.log(k * (p - k) / (d * d))
    f = d * (2.5 + log_ratio) - 0.5 * (n - k) * math.log1p(2.0 * c * d * b2)
    fp = 0.5 + log_ratio - c * b2 * (n - k) / (1.0 + 2.0 * c * d * b2)
    fpp = _f_second(d, n, k, b2)
    return f, fp, fpp


def union_error_bound_closed_form(
    n: int, p: int, k: int, beta_min_sq: float, C: float
) -> BoundReport:
    """Closed form k e^{5/2} max{(p-k)^{-B}, [e(p-k)/k]^{-kB}}, B = (C-5)/2.

    Preconditions are the ones under which this expression provably majorizes
    ``union_error_bound_sum``:

    - p > 2k;
    - exact convexity of the deficit curve (``curvature_condition``), which
      puts the integer maximum at d in {1, k};
    - the sample-size display with the 2c the exponent actually carries:
      n - k > C max{log(p-k)/log(1+2c b^2), (k log((p-k)/k) + k)/log(1+2c k b^2)}.
      The published display uses log(1+b^2)/log(1+k b^2) and absorbs the 2c
      into "large enough C"; at finite size with explicit C that version does
      not majorize the sum.
    """
    _check_union_params(n, p, k, beta_min_sq)
    if C <= 0:
        raise ValidationError(f"C must be positive, got {C}", params=("C",))
    if p <= 2 * k:
        raise PreconditionError("p > 2k", f"p={p}, k={k}", params=("p", "k"))
    if not curvature_condition(n, k, beta_min_sq):
        raise PreconditionError(
            "deficit-curve convexity: f''(1) > 0 and f''(k) > 0",
            f"n={n}, k={k}, beta_min_sq={beta_min_sq}", params=("n", "k", "beta_min_sq"),
        )
    b2 = beta_min_sq
    c = CHERNOFF_C
    term1 = math.log(p - k) / math.log1p(2.0 * c * b2)
    term2 = (k * math.log((p - k) / k) + k) / math.log1p(2.0 * c * k * b2)
    required = C * max(term1, term2)
    if n - k <= required:
        raise PreconditionError(
            "n - k > C max{log(p-k)/log(1+2c b^2), (k log((p-k)/k)+k)/log(1+2c k b^2)}",
            f"n-k={n - k}, required > {required:.6g}", params=("n", "p", "k", "beta_min_sq", "C"),
        )
    B = (C - 5.0) / 2.0
    branch1 = -B * math.log(p - k)
    branch2 = -k * B * (1.0 + math.log((p - k) / k))
    log_bound = math.log(k) + 2.5 + max(branch1, branch2)
    return BoundReport.from_log(log_bound)


_SUFFICIENT_VARIANTS = ("proof", "statement", "corollary")


def sufficient_sample_size(
    p: int, k: int, beta_min_sq: float, C: float, variant: str = "proof"
) -> float:
    """Sample-size threshold above which the error bound decays.

    variant="proof":      k + C max{log(p-k)/log(1+b^2), (k log((p-k)/k) + k)/log(1+k b^2)}
    variant="statement":  k + C max{log(k(p-k))/log(1+b^2), (k log((p-k)/k) + log k)/log(1+k b^2)}
    variant="corollary":  C max{log(p-k)/log(1+b^2), k log(p/k)/log(1+k b^2), k}

    The proof and statement variants differ in the published text (grouping of
    log k(p-k), +k vs +log k); the proof form is the default.  The corollary
    variant thresholds n itself (not n - k) and includes the bare k term.
    """
    if variant not in _SUFFICIENT_VARIANTS:
        raise ValidationError(f"unknown variant {variant!r}; pick from {_SUFFICIENT_VARIANTS}")
    if k < 1 or p <= 2 * k:
        raise ValidationError(f"need p > 2k and k >= 1, got p={p}, k={k}")
    if beta_min_sq <= 0:
        raise ValidationError(f"beta_min^2 must be positive, got {beta_min_sq}")
    if C <= 0:
        raise ValidationError(f"C must be positive, got {C}")
    b2 = beta_min_sq
    denom1 = math.log1p(b2)
    denomk = math.log1p(k * b2)
    if variant == "proof":
        term1 = math.log(p - k) / denom1
        term2 = (k * math.log((p - k) / k) + k) / denomk
        threshold = k + C * max(term1, term2)
    elif variant == "statement":
        term1 = math.log(k * (p - k)) / denom1
        term2 = (k * math.log((p - k) / k) + math.log(k)) / denomk
        threshold = k + C * max(term1, term2)
    else:
        term1 = math.log(p - k) / denom1
        term2 = k * math.log(p / k) / denomk
        threshold = C * max(term1, term2, float(k))
    if not math.isfinite(threshold):
        raise ValidationError("sufficient sample size overflows double precision")
    return threshold


def necessary_sample_size(p: int, k: int, beta_min_sq: float) -> float:
    """Information-theoretic threshold below which reliable recovery fails.

    max{f1, f2, k-1} with
      f1 = (log C(p,k) - 1) / ((1/2) log(1 + k b^2 (1 - k/p)))
      f2 = (log(p-k+1) - 1) / ((1/2) log(1 + b^2 (1 - 1/(p-k+1))))
    """
    if k < 1 or p <= k:
        raise ValidationError(f"need p > k >= 1, got p={p}, k={k}")
    if beta_min_sq <= 0:
        raise DomainError(f"beta_min^2 must be positive, got {beta_min_sq}")
    b2 = beta_min_sq
    denom1 = 0.5 * math.log1p(k * b2 * (1.0 - k / p))
    denom2 = 0.5 * math.log1p(b2 * (1.0 - 1.0 / (p - k + 1)))
    if denom1 <= 0 or denom2 <= 0:
        raise DomainError(
            f"degenerate denominator at p={p}, k={k}, beta_min_sq={beta_min_sq}"
        )
    f1 = (_log_comb(p, k) - 1.0) / denom1
    f2 = (math.log(p - k + 1) - 1.0) / denom2
    if not math.isfinite(max(f1, f2)):
        raise ValidationError("necessary sample size overflows double precision")
    return max(f1, f2, float(k - 1))


@dataclass(frozen=True)
class RegimeRow:
    p: int
    k: int
    beta_min_sq: float
    sufficient_n: float
    necessary_n: float
    predictor: float
    sufficient_ratio: float
    necessary_ratio: float


@dataclass(frozen=True)
class Regime:
    """One scaling row: maps p -> (k, beta_min^2) plus the predicted growth rate."""

    k_of_p: Callable[[int], int]
    beta_sq_of: Callable[[int, int], float]
    predictor_of: Callable[[int, int], float]


def _k_linear(p: int) -> int:
    return math.ceil(p / 4)


def _k_sublinear(p: int) -> int:
    return math.ceil(math.sqrt(p))


REGIMES: dict[str, Regime] = {
    "linear_invk": Regime(_k_linear, lambda p, k: 1.0 / k, lambda p, k: p * math.log(p)),
    "linear_logk": Regime(_k_linear, lambda p, k: math.log(k) / k, lambda p, k: float(p)),
    "linear_unit": Regime(_k_linear, lambda p, k: 1.0, lambda p, k: float(p)),
    "sublinear_invk": Regime(
        _k_sublinear, lambda p, k: 1.0 / k, lambda p, k: k * math.log(p - k)
    ),
    "sublinear_logk": Regime(
        _k_sublinear, lambda p, k: math.log(k) / k,
        lambda p, k: k * math.log(p / k) / math.log(math.log(k)),
    ),
    "sublinear_unit": Regime(
        _k_sublinear, lambda p, k: 1.0,
        lambda p, k: max(k * math.log(p / k) / math.log(k), float(k)),
    ),
}


def regime_table(
    regime: str,
    p_grid: Sequence[int],
    C: float = 9.0,
    variant: str = "proof",
) -> list[RegimeRow]:
    """Evaluate sufficient and necessary thresholds along one scaling row.

    Each row reports the ratio of both thresholds to the row's predicted
    growth expression (the order constants are not published, so only the
    flatness of the ratios is meaningful).
    """
    if regime not in REGIMES:
        raise ValidationError(f"unknown regime {regime!r}; pick from {sorted(REGIMES)}")
    grid = list(p_grid)
    if not grid:
        raise ValidationError("p grid must be nonempty")
    if any(b >= a for a, b in zip(grid[1:], grid)):
        raise ValidationError("p grid must be strictly increasing")
    reg = REGIMES[regime]
    rows = []
    for p in grid:
        k = reg.k_of_p(p)
        if p <= 2 * k:
            raise ValidationError(f"regime {regime} needs p > 2k, got p={p}, k={k}")
        b2 = reg.beta_sq_of(p, k)
        suff = sufficient_sample_size(p, k, b2, C, variant=variant)
        nec = necessary_sample_size(p, k, b2)
        pred = reg.predictor_of(p, k)
        rows.append(
            RegimeRow(
                p=p, k=k, beta_min_sq=b2,
                sufficient_n=suff, necessary_n=nec, predictor=pred,
                sufficient_ratio=suff / pred, necessary_ratio=nec / pred,
            )
        )
    return rows
