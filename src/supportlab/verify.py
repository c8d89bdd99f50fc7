"""Self-contained oracle suite for the analytic machinery.

Every check pits a closed-form quantity against an independent route:
grid minimization for the Chernoff constants, dense symmetric eigensolves
for the spectrum of Pi_F - Pi_T, Gauss-Hermite quadrature for the exact and
chi-square log-MGFs, and five-point central differences for the deficit-curve
derivatives.  The CLI ``verify`` command runs these and exits nonzero on
any failure.

The quadrature oracles rotate the dense n x n Psi by its own eigenvectors, so
Z = sum_i lam_i (nu_i + e_i)^2 with independent standard-normal e_i, and the
log-MGF is a sum of one-dimensional Gaussian integrals; they draw no samples,
and ``run_all`` runs the nine checks one after another on the calling thread.

The Chernoff grid is built and scanned ``SAMPLE_BLOCK`` points at a time,
never as one array, so working memory stays bounded whatever the grid size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .bounds import (
    CHERNOFF_C,
    CHERNOFF_MIN,
    CHERNOFF_T_STAR,
    chain_log_bound,
    chernoff_rate,
    chi_square_log_mgf,
    curvature_condition,
    exact_quadratic_log_mgf,
    f_curve,
    projection_energy,
)
from .errors import DomainError
from .model import (
    DesignMatrix,
    SparseSignal,
    SparsityPattern,
    build_projector,
    make_pattern,
    pattern_difference,
)

DEFAULT_VERIFY_SEED = 20260811

#: Points per slice of the Chernoff grid; the minimum is accumulated slice by
#: slice, so memory stays bounded whatever the grid size.
SAMPLE_BLOCK = 1 << 13

#: The Chernoff grid: ``np.linspace(*CHERNOFF_GRID)``, open at both ends of
#: the rate's domain (-1/2, 1/2).
CHERNOFF_GRID = (-0.5 + 1e-6, 0.5 - 1e-6, 1_000_000)

#: Validity range of the quadrature oracle.  Up to a constant, the weight
#: exp(-x^2/2) times exp(a (nu + x)^2) is a normal density with mean
#: 2 a nu / (1 - 2a) and sd (1 - 2a)^{-1/2}; the 80 nodes reach out to ~16.8.
#: Against the closed form over |a| <= 0.4, 0 <= nu <= 40, the rule is within
#: 1.2e-11 (relative, floor 1) wherever |mean| + 4 sd <= 12, but 1.3e-6 off at
#: a = 0.4, nu = 2 and 3e-8 off at a = 0.45, nu = 0.  The checks keep |a| <= t*.
QUADRATURE_MAX_A = 0.4
QUADRATURE_REACH = 12.0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def quadratic_form_matrix(
    design: DesignMatrix,
    t_pattern: SparsityPattern,
    f_pattern: SparsityPattern,
) -> np.ndarray:
    """Dense n x n Psi = Pi_F - Pi_T, the oracle for the compressed spectrum in ``bounds``."""
    qt = build_projector(design, t_pattern)
    qf = build_projector(design, f_pattern)
    return qf @ qf.T - qt @ qt.T


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """The 80 nodes and the log of the weights over sqrt(2 pi), read-only; built
    on first use, as the rule takes ~7 ms and its import ~4 ms."""
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(80)
    log_weights = np.log(weights) - 0.5 * math.log(2.0 * math.pi)
    nodes.flags.writeable = log_weights.flags.writeable = False
    return nodes, log_weights


def quadrature_log_mgf(a: np.ndarray, nu: np.ndarray) -> np.ndarray:
    """sum_i log E exp(a_i (nu_i + e)^2), e ~ N(0, 1), by 80-node
    Gauss-Hermite quadrature, each term summed in log space.

    The sum runs over the last axis of ``a`` (shape (..., m)) against ``nu``
    (shape (m,)); the result has ``a``'s leading shape.  Raises ``DomainError``
    outside the range where the rule is accurate: some |a_i| above
    ``QUADRATURE_MAX_A``, or some term's tilted normal law reaching past
    ``QUADRATURE_REACH`` (see there).
    """
    a = np.asarray(a, dtype=float)
    nu = np.asarray(nu, dtype=float)
    # NaN fails the first test, and the reach is computed only for |a| < 1/2.
    if not (np.all(np.abs(a) <= QUADRATURE_MAX_A) and np.all(
            np.abs(2.0 * a * nu / (1.0 - 2.0 * a)) + 4.0 / np.sqrt(1.0 - 2.0 * a)
            <= QUADRATURE_REACH)):
        raise DomainError(f"quadrature needs |a| <= {QUADRATURE_MAX_A} and "
                          f"|mean| + 4 sd <= {QUADRATURE_REACH} in every term")
    nodes, log_weights = _hermite_rule()
    expo = a[..., None] * (nu[:, None] + nodes) ** 2 + log_weights
    top = np.max(expo, axis=-1)
    terms = top + np.log(np.sum(np.exp(expo - top[..., None]), axis=-1))
    return np.sum(terms, axis=-1)


def _random_instance(gen: np.random.Generator, n_max: int = 32, k_max: int = 4):
    """A random (design, signal, T, F) tuple with F != T."""
    k = int(gen.integers(1, k_max + 1))
    n = int(gen.integers(max(4, 2 * k), n_max + 1))
    p = int(gen.integers(k + 2, 2 * k + 6))
    design = DesignMatrix(entries=gen.standard_normal((n, p)))
    t_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
    while True:
        f_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
        if f_idx != t_idx:
            break
    t_patt = make_pattern(t_idx, p)
    f_patt = make_pattern(f_idx, p)
    values = gen.uniform(0.5, 3.0, size=k) * gen.choice([-1.0, 1.0], size=k)
    signal = SparseSignal(pattern=t_patt, values=values)
    return design, signal, t_patt, f_patt


def _grid_slice(lo: float, hi: float, num: int, start: int, stop: int) -> np.ndarray:
    """Points ``start:stop`` of ``np.linspace(lo, hi, num)``, bit for bit, built
    with linspace's own arithmetic (index times step, plus ``lo``; the last
    point is ``hi``) without the rest of the grid."""
    step = np.subtract(hi, lo, dtype=float) / (num - 1)
    ts = np.arange(start, stop, dtype=float) * step + lo
    if stop == num:
        ts[-1] = hi
    return ts


def check_chernoff_constants(c_override: float | None = None) -> CheckResult:
    """Grid-minimize 2t^2/(1-2t) - t over (-0.5, 0.5) and compare the constants.

    The grid is built and evaluated ``SAMPLE_BLOCK`` points at a time; the
    strict ``<`` across slices keeps the first minimum, as one ``argmin`` over
    the grid would, and t at that minimum is read from the slice holding it.
    """
    c = CHERNOFF_C if c_override is None else c_override
    lo, hi, num = CHERNOFF_GRID
    t_best, best = math.nan, math.inf
    for start in range(0, num, SAMPLE_BLOCK):
        ts = _grid_slice(lo, hi, num, start, min(start + SAMPLE_BLOCK, num))
        vals = 2.0 * ts * ts / (1.0 - 2.0 * ts) - ts
        j = int(np.argmin(vals))
        if vals[j] < best:
            t_best, best = ts[j], float(vals[j])
    min_err = abs(best - CHERNOFF_MIN)
    t_err = abs(t_best - CHERNOFF_T_STAR)
    c_err = abs(c + CHERNOFF_MIN)
    ok = min_err < 1e-9 and t_err < 1e-4 and c_err < 1e-14
    return CheckResult(
        "chernoff-constants",
        ok,
        f"min_err={min_err:.3e} t_err={t_err:.3e} c_err={c_err:.3e}",
    )


def check_eigen_pairs(seed: int = DEFAULT_VERIFY_SEED, instances: int = 100) -> CheckResult:
    """Nonzero eigenvalues of Pi_F - Pi_T come in +/- pairs, at most d, inside [-1, 1]."""
    gen = rng.stream(seed, 101)
    worst_pair = 0.0
    worst_mag = 0.0
    for _ in range(instances):
        design, _, t_patt, f_patt = _random_instance(gen)
        d = len(pattern_difference(t_patt, f_patt))
        lam = np.linalg.eigvalsh(quadratic_form_matrix(design, t_patt, f_patt))
        pos = np.sort(lam[lam > 1e-8])[::-1]
        neg = np.sort(-lam[lam < -1e-8])[::-1]
        if len(pos) != len(neg) or len(pos) > d:
            return CheckResult(
                "eigen-pairs", False,
                f"pair count mismatch: {len(pos)} pos, {len(neg)} neg, d={d}",
            )
        if len(pos):
            worst_pair = max(worst_pair, float(np.max(np.abs(pos - neg))))
        worst_mag = max(worst_mag, float(np.max(np.abs(lam))))
    ok = worst_pair < 1e-8 and worst_mag <= 1.0 + 1e-10
    return CheckResult(
        "eigen-pairs", ok, f"worst_pair_gap={worst_pair:.3e} max_abs_eig={worst_mag:.12f}"
    )


def check_quadratic_identities(
    seed: int = DEFAULT_VERIFY_SEED, instances: int = 100
) -> CheckResult:
    """mu^T Psi mu = -g and mu^T Psi^2 mu = +g against the projector route."""
    gen = rng.stream(seed, 102)
    worst = 0.0
    for _ in range(instances):
        design, signal, t_patt, f_patt = _random_instance(gen)
        psi = quadratic_form_matrix(design, t_patt, f_patt)
        mu = design.submatrix(t_patt) @ signal.values
        g = projection_energy(design, signal, t_patt, f_patt)
        scale = max(g, 1e-12)
        err1 = abs(float(mu @ psi @ mu) + g) / scale
        err2 = abs(float(mu @ psi @ psi @ mu) - g) / scale
        worst = max(worst, err1, err2)
    ok = worst < 1e-9
    return CheckResult("quadratic-identities", ok, f"worst_rel_err={worst:.3e}")


def check_exact_mgf_sampling(
    seed: int = DEFAULT_VERIFY_SEED, instances: int = 100
) -> CheckResult:
    """Exact log-MGF at t* and -c against quadrature on the dense Psi's own
    eigenbasis, 1e-10 relative (floor 1 on |exact|), over random instances.
    The names are those of the sampled check this replaced, as both are published.
    """
    gen = rng.stream(seed, 103)
    ts = np.array([CHERNOFF_T_STAR, -CHERNOFF_C])
    worst = 0.0
    for _ in range(instances):
        design, signal, t_patt, f_patt = _random_instance(gen)
        lam, vecs = np.linalg.eigh(quadratic_form_matrix(design, t_patt, f_patt))
        nu = vecs.T @ (design.submatrix(t_patt) @ signal.values)
        exact = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, ts)
        quad = quadrature_log_mgf(np.multiply.outer(ts, lam), nu)
        rel = np.abs(quad - exact) / np.maximum(np.abs(exact), 1.0)
        worst = max(worst, float(np.max(rel)))
    ok = worst < 1e-10
    return CheckResult("exact-mgf-vs-sampled", ok, f"worst_rel_err={worst:.3e}")


def check_chi_square_mgf(dof: int = 11) -> CheckResult:
    """Chi-square log-MGF at t = -c against dof quadrature terms with lam = 1
    and nu = 0, 1e-10 relative."""
    t = -CHERNOFF_C
    exact = chi_square_log_mgf(t, dof)
    quad = float(quadrature_log_mgf(np.full(dof, t), np.zeros(dof)))
    rel = abs(quad - exact) / abs(exact)
    ok = rel < 1e-10
    return CheckResult(
        "chi-square-mgf", ok, f"exact={exact:.6f} quadrature={quad:.6f} rel={rel:.3e}"
    )


def check_chain_ordering(
    seed: int = DEFAULT_VERIFY_SEED, instances: int = 100, t_points: int = 25
) -> CheckResult:
    """exact <= chain(t) on a t grid, and chain(t*) <= -c g + d/2, slack 1e-9."""
    gen = rng.stream(seed, 106)
    ts = np.linspace(-0.49, 0.49, t_points)
    worst = -math.inf
    for _ in range(instances):
        design, signal, t_patt, f_patt = _random_instance(gen)
        d = len(pattern_difference(t_patt, f_patt))
        g = projection_energy(design, signal, t_patt, f_patt)
        exact = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, ts)
        for t, exact_t in zip(ts, exact):
            worst = max(worst, float(exact_t) - chain_log_bound(g, d, float(t)))
        final = -CHERNOFF_C * g + 0.5 * d
        worst = max(worst, chain_log_bound(g, d, CHERNOFF_T_STAR) - final)
    ok = worst <= 1e-9
    return CheckResult("chain-ordering", ok, f"worst_excess={worst:.3e}")


def check_f_curve_derivatives(
    seed: int = DEFAULT_VERIFY_SEED, points: int = 100
) -> CheckResult:
    """f' and f'' against five-point central differences, 1e-6 relative.

    The five-point stencil's O(h^4) truncation error lets h be large enough
    that rounding in f (|f| up to ~1e2 beside |f'| down to ~1e-4) stays far
    below the tolerance.
    """
    gen = rng.stream(seed, 107)
    h = 1e-3
    stencil = ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0))
    worst = 0.0
    for _ in range(points):
        k = int(gen.integers(1, 33))
        p = int(gen.integers(2 * k + 1, 6 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.1), math.log(10.0))))
        n = k + int(gen.integers(8, 2000))
        d = float(gen.uniform(1.0, max(1.0, float(k))))
        _, fp_mid, fpp_mid = f_curve(d, n, p, k, b2)
        near = [(w, f_curve(d + j * h, n, p, k, b2)) for j, w in stencil]
        fd1 = sum(w * f for w, (f, _, _) in near) / (12 * h)
        fd2 = sum(w * fp for w, (_, fp, _) in near) / (12 * h)
        worst = max(
            worst,
            abs(fd1 - fp_mid) / max(abs(fp_mid), 1e-6),
            abs(fd2 - fpp_mid) / max(abs(fpp_mid), 1e-6),
        )
    ok = worst < 1e-6
    return CheckResult("f-curve-derivatives", ok, f"worst_rel_err={worst:.3e}")


def check_curvature_boundary_max(
    seed: int = DEFAULT_VERIFY_SEED, points: int = 200
) -> CheckResult:
    """Under the exact curvature condition, the integer maximum of f is at d in {1, k}."""
    gen = rng.stream(seed, 108)
    tried = 0
    for _ in range(points * 20):
        if tried >= points:
            break
        k = int(gen.integers(2, 65))
        p = int(gen.integers(2 * k + 1, 6 * k + 50))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(10.0))))
        lo = (1.0 + 2.0 * CHERNOFF_C * b2) ** 2 / (CHERNOFF_C**2 * b2 * b2)
        lo = max(lo, (1.0 + 2.0 * CHERNOFF_C * k * b2) ** 2 / (k * CHERNOFF_C**2 * b2 * b2))
        n = k + int(math.ceil(lo * float(gen.uniform(1.001, 5.0))))
        if not curvature_condition(n, k, b2):
            continue
        tried += 1
        vals = [f_curve(float(d), n, p, k, b2)[0] for d in range(1, k + 1)]
        arg = int(np.argmax(vals)) + 1
        if arg not in (1, k):
            return CheckResult(
                "curvature-boundary-max", False,
                f"interior argmax d={arg} at n={n}, p={p}, k={k}, b2={b2:.4f}",
            )
        if any(f_curve(float(d), n, p, k, b2)[2] <= 0 for d in np.linspace(1, k, 64)):
            return CheckResult(
                "curvature-boundary-max", False,
                f"negative curvature inside [1,k] at n={n}, k={k}, b2={b2:.4f}",
            )
    ok = tried >= points
    return CheckResult("curvature-boundary-max", ok, f"checked {tried} qualifying points")


def check_rate_relaxation() -> CheckResult:
    """-log(sqrt(2) - 1/2) <= 1, the step replacing the det term by d/2 at t*."""
    val = -math.log(math.sqrt(2.0) - 0.5)
    at_tstar = chernoff_rate(CHERNOFF_T_STAR)
    ok = val <= 1.0 and abs(at_tstar - CHERNOFF_MIN) < 1e-14
    return CheckResult(
        "rate-relaxation", ok, f"-log(sqrt2-1/2)={val:.6f} rate(t*)-min={at_tstar - CHERNOFF_MIN:.2e}"
    )


def run_all(
    seed: int = DEFAULT_VERIFY_SEED,
    fault_c_sign: bool = False,
) -> list[CheckResult]:
    """Run the full suite in published order; ``fault_c_sign`` flips the sign
    of c as a negative control.  The seed is checked before any check runs."""
    rng.check_seed(seed)
    c_override = -CHERNOFF_C if fault_c_sign else None
    return [
        check_chernoff_constants(c_override=c_override),
        check_rate_relaxation(),
        check_eigen_pairs(seed),
        check_quadratic_identities(seed),
        check_exact_mgf_sampling(seed),
        check_chi_square_mgf(),
        check_chain_ordering(seed),
        check_f_curve_derivatives(seed),
        check_curvature_boundary_max(seed),
    ]
