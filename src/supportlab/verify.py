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

The four instance-based checks draw their 100 instances in order, as plain
arrays (design entries, sorted T and F, beta_T), ``BLOCK`` at a time.  Each
block zero-pads X_T, X_F, the mean X_T beta_T and the missed mean X_{T-F}
beta_{T-F} to its largest n and k and stacks them, and takes each quantity
from one call per block: the dense Psi from ``quadratic_form_matrices``
(with one batched eigensolve), g from ``bounds.projection_energies`` and the
exact log-MGFs from ``bounds.pair_spectra``.  The padding adds only zero
rows, columns and eigenvalues.  Only the quadrature runs per instance.  The
two deficit-curve checks likewise draw their points in order and evaluate
each block of them in one ``f_curve`` call.  Blocks keep working memory
small: each holds a few hundred kilobytes.

The 10^6-point Chernoff grid is never built: a coarse pass over every
``CHERNOFF_STRIDE``-th point and a fine pass over the <= 2001 points around
its minimum find numpy's first argmin over the grid, as the rate is convex.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple

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
    f_curve,
    pair_spectra,
    projection_energies,
    spectral_log_mgf,
)
from .errors import DomainError
from .model import DesignMatrix, SparsityPattern, column_space_basis

DEFAULT_VERIFY_SEED = 20260811

#: The Chernoff grid: ``np.linspace(*CHERNOFF_GRID)``, open at both ends of
#: the rate's domain (-1/2, 1/2).
CHERNOFF_GRID = (-0.5 + 1e-6, 0.5 - 1e-6, 1_000_000)

#: Stride of the coarse pass over the Chernoff grid.
CHERNOFF_STRIDE = 1000

#: Validity range of the quadrature oracle.  Up to a constant, the weight
#: exp(-x^2/2) times exp(a (nu + x)^2) is a normal density with mean
#: 2 a nu / (1 - 2a) and sd (1 - 2a)^{-1/2}; the 80 nodes reach out to ~16.8.
#: Against the closed form over |a| <= 0.4, 0 <= nu <= 40, the rule is within
#: 1.2e-11 (relative, floor 1) wherever |mean| + 4 sd <= 12, but 1.3e-6 off at
#: a = 0.4, nu = 2 and 3e-8 off at a = 0.45, nu = 0.  The checks keep |a| <= t*.
QUADRATURE_MAX_A = 0.4
QUADRATURE_REACH = 12.0

#: Random instances drawn by each instance-based check.
INSTANCES = 100

#: Instances, or deficit-curve points, per stacked block.
BLOCK = 25


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def quadratic_form_matrices(xt: np.ndarray, xf: np.ndarray) -> np.ndarray:
    """Dense n x n Psi = Pi_F - Pi_T, the oracle for the compressed spectrum in
    ``bounds``, for one pair or a stack of them.

    ``xt`` and ``xf`` are X_T and X_F of one shape, (n, k) or (..., n, k).
    One stacked ``column_space_basis`` call gives Q_T and Q_F, and Psi is
    Q_F Q_F^T - Q_T Q_T^T.  Pairs zero-padded to a common n and k get zero
    rows and columns beyond their own n.
    """
    qt, qf = column_space_basis(np.stack([xt, xf]))
    psi = qf @ np.swapaxes(qf, -1, -2)
    psi -= qt @ np.swapaxes(qt, -1, -2)
    return psi


def quadratic_form_matrix(
    design: DesignMatrix,
    t_pattern: SparsityPattern,
    f_pattern: SparsityPattern,
) -> np.ndarray:
    """Dense Psi of one pair (|T| = |F|): a one-pair ``quadratic_form_matrices`` call."""
    return quadratic_form_matrices(design.submatrix(t_pattern), design.submatrix(f_pattern))


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


def _random_instance(gen: np.random.Generator):
    """The raw draws of a random instance with F != T, k <= 4 and n <= 32: the
    n x p design entries, sorted T and F, and beta_T with |beta_i| >= 0.5."""
    k = int(gen.integers(1, 5))
    n = int(gen.integers(max(4, 2 * k), 33))
    p = int(gen.integers(k + 2, 2 * k + 6))
    entries = gen.standard_normal((n, p))
    t = gen.choice(p, size=k, replace=False)
    t.sort()
    while True:
        f = gen.choice(p, size=k, replace=False)
        f.sort()
        if (f != t).any():
            break
    beta = gen.uniform(0.5, 3.0, size=k) * gen.choice([-1.0, 1.0], size=k)
    return entries, t, f, beta


class _Block(NamedTuple):
    """A block of instances, zero-padded to its largest n and k and stacked:
    X_T and X_F (..., n, k), the mean X_T beta_T and the missed mean
    X_{T-F} beta_{T-F} (..., n), and the deficit d = |T - F|."""

    xt: np.ndarray
    xf: np.ndarray
    mu: np.ndarray
    miss: np.ndarray
    d: np.ndarray


def _blocks(count: int, draw: Callable[[], tuple]) -> Iterator[list[tuple]]:
    """``count`` results of ``draw()``, drawn in order and yielded ``BLOCK`` at a time."""
    for start in range(0, count, BLOCK):
        yield [draw() for _ in range(min(BLOCK, count - start))]


def _instance_blocks(gen: np.random.Generator) -> Iterator[_Block]:
    """The ``INSTANCES`` random instances of ``gen``, drawn in order and
    stacked ``BLOCK`` at a time.  The missed mean is X_{T-F} beta_{T-F}, the
    v of ``projection_energy``, with T - F in increasing order."""
    for instances in _blocks(INSTANCES, lambda: _random_instance(gen)):
        n = max(entries.shape[0] for entries, *_ in instances)
        k = max(len(t) for _, t, _, _ in instances)
        xt, xf = np.zeros((2, len(instances), n, k))
        mu, miss = np.zeros((2, len(instances), n))
        d = np.empty(len(instances), dtype=int)
        for i, (entries, t, f, beta) in enumerate(instances):
            missed = (t[:, None] != f).all(axis=1)
            sub_t = entries[:, t]
            rows, cols = sub_t.shape
            xt[i, :rows, :cols] = sub_t
            xf[i, :rows, :cols] = entries[:, f]
            mu[i, :rows] = sub_t @ beta
            miss[i, :rows] = entries[:, t[missed]] @ beta[missed]
            d[i] = np.count_nonzero(missed)
        yield _Block(xt, xf, mu, miss, d)


def _grid_slice(lo: float, hi: float | np.ndarray, num: int, start: int, stop: int,
                stride: int = 1) -> np.ndarray:
    """Points ``start:stop:stride`` of ``np.linspace(lo, hi, num)``, bit for
    bit, built with linspace's own arithmetic (index times step, plus ``lo``;
    the last point is ``hi``) without the rest of the grid.  A column of
    endpoints ``hi``, shaped (m, 1), gives one such row per endpoint."""
    step = np.subtract(hi, lo, dtype=float) / (num - 1)
    index = np.arange(start, stop, stride)
    ts = index * step + lo
    if index[-1] == num - 1:
        ts[..., -1:] = hi
    return ts


def _chernoff_grid_minimum() -> tuple[float, float]:
    """(t, rate) at numpy's first argmin of the rate over ``np.linspace(*CHERNOFF_GRID)``.
    The rate is convex (r'' = 4/(1 - 2t)^3 > 1/2) and rises far above its
    rounding between coarse points, so that argmin lies within one
    ``CHERNOFF_STRIDE`` of the coarse one, and the fine pass scans around it."""
    lo, hi, num = CHERNOFF_GRID
    start, stop = 0, num
    for stride in (CHERNOFF_STRIDE, 1):
        ts = _grid_slice(lo, hi, num, start, stop, stride)
        vals = 2.0 * ts * ts / (1.0 - 2.0 * ts) - ts
        j = int(np.argmin(vals))
        i = start + j * stride
        start, stop = max(i - stride, 0), min(i + stride + 1, num)
    return float(ts[j]), float(vals[j])


def check_chernoff_constants(c_override: float | None = None) -> CheckResult:
    """Grid-minimize 2t^2/(1-2t) - t over (-0.5, 0.5) and compare the constants."""
    c = CHERNOFF_C if c_override is None else c_override
    t_best, best = _chernoff_grid_minimum()
    min_err = abs(best - CHERNOFF_MIN)
    t_err = abs(t_best - CHERNOFF_T_STAR)
    c_err = abs(c + CHERNOFF_MIN)
    ok = min_err < 1e-9 and t_err < 1e-4 and c_err < 1e-14
    return CheckResult("chernoff-constants", ok,
                       f"min_err={min_err:.3e} t_err={t_err:.3e} c_err={c_err:.3e}")


def check_eigen_pairs(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """Nonzero eigenvalues of Pi_F - Pi_T come in +/- pairs, at most d, inside [-1, 1].

    Eigenvalues beyond 1e-8 in magnitude count as nonzero.  In each sorted
    spectrum the j-th largest positive one pairs with the j-th most negative.
    """
    gen = rng.stream(seed, 101)
    worst_pair = 0.0
    worst_mag = 0.0
    for block in _instance_blocks(gen):
        lam = np.linalg.eigvalsh(quadratic_form_matrices(block.xt, block.xf))
        pos = np.sum(lam > 1e-8, axis=-1)
        neg = np.sum(lam < -1e-8, axis=-1)
        bad = (pos != neg) | (pos > block.d)
        if np.any(bad):
            i = int(np.argmax(bad))
            return CheckResult(
                "eigen-pairs", False,
                f"pair count mismatch: {pos[i]} pos, {neg[i]} neg, d={block.d[i]}",
            )
        half = lam.shape[-1] // 2
        gaps = np.abs(lam[:, ::-1][:, :half] + lam[:, :half])
        paired = np.arange(half) < pos[:, None]
        worst_pair = max(worst_pair, float(np.max(gaps, where=paired, initial=0.0)))
        worst_mag = max(worst_mag, float(np.max(np.abs(lam))))
    ok = worst_pair < 1e-8 and worst_mag <= 1.0 + 1e-10
    return CheckResult("eigen-pairs", ok,
                       f"worst_pair_gap={worst_pair:.3e} max_abs_eig={worst_mag:.12f}")


def check_quadratic_identities(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """mu^T Psi mu = -g and mu^T Psi^2 mu = +g, Psi dense and g from the projector route."""
    gen = rng.stream(seed, 102)
    worst = 0.0
    for block in _instance_blocks(gen):
        psi = quadratic_form_matrices(block.xt, block.xf)
        g = projection_energies(block.xf, block.miss)
        mu_psi = block.mu[:, None, :] @ psi
        once = (mu_psi @ block.mu[..., None])[:, 0, 0]
        twice = (mu_psi @ psi @ block.mu[..., None])[:, 0, 0]
        scale = np.maximum(g, 1e-12)
        worst = max(worst, float(np.max(np.abs(once + g) / scale)),
                    float(np.max(np.abs(twice - g) / scale)))
    ok = worst < 1e-9
    return CheckResult("quadratic-identities", ok, f"worst_rel_err={worst:.3e}")


def check_exact_mgf_sampling(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """Exact log-MGF at t* and -c against quadrature on the dense Psi's own
    eigenbasis, 1e-10 relative (floor 1 on |exact|), over random instances.
    The names are those of the sampled check this replaced, as both are published.
    """
    gen = rng.stream(seed, 103)
    ts = np.array([CHERNOFF_T_STAR, -CHERNOFF_C])
    worst = 0.0
    for block in _instance_blocks(gen):
        lam, vecs = np.linalg.eigh(quadratic_form_matrices(block.xt, block.xf))
        nu = (np.swapaxes(vecs, -1, -2) @ block.mu[..., None])[..., 0]
        quad = np.stack([quadrature_log_mgf(np.multiply.outer(ts, one_lam), one_nu)
                         for one_lam, one_nu in zip(lam, nu)])
        exact = spectral_log_mgf(*pair_spectra(block.xt, block.xf, block.mu), ts)
        worst = max(worst, float(np.max(np.abs(quad - exact) / np.maximum(np.abs(exact), 1.0))))
    ok = worst < 1e-10
    return CheckResult("exact-mgf-vs-sampled", ok, f"worst_rel_err={worst:.3e}")


def check_chi_square_mgf() -> CheckResult:
    """Chi-square log-MGF at t = -c and 11 degrees of freedom against 11
    quadrature terms with lam = 1 and nu = 0, 1e-10 relative."""
    t, dof = -CHERNOFF_C, 11
    exact = chi_square_log_mgf(t, dof)
    quad = float(quadrature_log_mgf(np.full(dof, t), np.zeros(dof)))
    rel = abs(quad - exact) / abs(exact)
    ok = rel < 1e-10
    return CheckResult("chi-square-mgf", ok,
                       f"exact={exact:.6f} quadrature={quad:.6f} rel={rel:.3e}")


def check_chain_ordering(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """exact <= chain(t) on a 25-point t grid, and chain(t*) <= -c g + d/2,
    slack 1e-9."""
    gen = rng.stream(seed, 106)
    ts = np.linspace(-0.49, 0.49, 25)
    worst = -math.inf
    for block in _instance_blocks(gen):
        exact = spectral_log_mgf(*pair_spectra(block.xt, block.xf, block.mu), ts)
        g = projection_energies(block.xf, block.miss)
        chain = chain_log_bound(g[:, None], block.d[:, None], ts)
        final = -CHERNOFF_C * g + 0.5 * block.d
        worst = max(worst, float(np.max(exact - chain)),
                    float(np.max(chain_log_bound(g, block.d, CHERNOFF_T_STAR) - final)))
    ok = worst <= 1e-9
    return CheckResult("chain-ordering", ok, f"worst_excess={worst:.3e}")


def check_f_curve_derivatives(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """f' and f'' against five-point central differences at 100 random
    points, 1e-6 relative.

    The five-point stencil's O(h^4) truncation error lets h be large enough
    that rounding in f (|f| up to ~1e2 beside |f'| down to ~1e-4) stays far
    below the tolerance.  The points are drawn in order and each block of
    ``BLOCK`` is evaluated in one ``f_curve`` call.
    """
    gen = rng.stream(seed, 107)
    h = 1e-3
    offsets = np.arange(-2, 3) * h
    weights = (1.0, -8.0, 0.0, 8.0, -1.0)

    def draw():
        k = int(gen.integers(1, 33))
        p = int(gen.integers(2 * k + 1, 6 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.1), math.log(10.0))))
        n = k + int(gen.integers(8, 2000))
        return float(gen.uniform(1.0, max(1.0, float(k)))), n, p, k, b2

    worst = 0.0
    for drawn in _blocks(100, draw):
        d, n, p, k, b2 = (np.array(column)[:, None] for column in zip(*drawn))
        f, fp, fpp = f_curve(d + offsets, n, p, k, b2)
        fd1 = sum(w * f[:, j] for j, w in enumerate(weights)) / (12 * h)
        fd2 = sum(w * fp[:, j] for j, w in enumerate(weights)) / (12 * h)
        worst = max(worst,
                    float(np.max(np.abs(fd1 - fp[:, 2]) / np.maximum(np.abs(fp[:, 2]), 1e-6))),
                    float(np.max(np.abs(fd2 - fpp[:, 2]) / np.maximum(np.abs(fpp[:, 2]), 1e-6))))
    ok = bool(worst < 1e-6)
    return CheckResult("f-curve-derivatives", ok, f"worst_rel_err={worst:.3e}")


def check_curvature_boundary_max(seed: int = DEFAULT_VERIFY_SEED) -> CheckResult:
    """Under the exact curvature condition, the integer maximum of f is at d in {1, k}.

    Each of the 200 points takes n - k at least 1.001 times the larger of the
    two endpoint thresholds of f'' > 0, so the condition is the premise of
    every point: a point where it fails fails the check.  The points are
    drawn in order, and each block of ``BLOCK`` evaluates f over d = 1..k
    and f'' over a 64-point grid on [1, k] in one ``f_curve`` call.  The
    first failing point in draw order is named, with its first failure.
    """
    gen = rng.stream(seed, 108)
    points, grid = 200, 64

    def draw():
        k = int(gen.integers(2, 65))
        p = int(gen.integers(2 * k + 1, 6 * k + 50))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(10.0))))
        lo = (1.0 + 2.0 * CHERNOFF_C * b2) ** 2 / (CHERNOFF_C**2 * b2 * b2)
        lo = max(lo, (1.0 + 2.0 * CHERNOFF_C * k * b2) ** 2 / (k * CHERNOFF_C**2 * b2 * b2))
        return k + int(math.ceil(lo * float(gen.uniform(1.001, 5.0)))), p, k, b2

    for drawn in _blocks(points, draw):
        n, p, k, b2 = (np.array(column)[:, None] for column in zip(*drawn))
        integers = np.arange(1.0, k.max() + 1)
        ds = np.concatenate([np.broadcast_to(integers, (len(drawn), len(integers))),
                             _grid_slice(1.0, k, grid, 0, grid)], axis=1)
        f, _, fpp = f_curve(ds, n, p, k, b2)
        on_curve = np.where(integers <= k, f[:, : len(integers)], -np.inf)
        argmax = np.argmax(on_curve, axis=1) + 1
        concave = np.any(fpp[:, len(integers):] <= 0, axis=1)
        for i, (n_i, p_i, k_i, b2_i) in enumerate(drawn):
            at = f"n={n_i}, p={p_i}, k={k_i}, b2={b2_i:.4f}"
            if not curvature_condition(n_i, k_i, b2_i):
                return CheckResult("curvature-boundary-max", False,
                                   f"curvature condition fails at {at}")
            if argmax[i] not in (1, k_i):
                return CheckResult("curvature-boundary-max", False,
                                   f"interior argmax d={argmax[i]} at {at}")
            if concave[i]:
                return CheckResult("curvature-boundary-max", False,
                                   f"negative curvature inside [1,k] at {at}")
    return CheckResult("curvature-boundary-max", True, f"checked {points} qualifying points")


def check_rate_relaxation() -> CheckResult:
    """-log(sqrt(2) - 1/2) <= 1, the step replacing the det term by d/2 at t*."""
    val = -math.log(math.sqrt(2.0) - 0.5)
    at_tstar = chernoff_rate(CHERNOFF_T_STAR)
    ok = val <= 1.0 and abs(at_tstar - CHERNOFF_MIN) < 1e-14
    return CheckResult("rate-relaxation", ok,
                       f"-log(sqrt2-1/2)={val:.6f} rate(t*)-min={at_tstar - CHERNOFF_MIN:.2e}")


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
