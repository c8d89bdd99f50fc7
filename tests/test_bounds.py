import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportlab.bounds import (
    CHERNOFF_C,
    CHERNOFF_MIN,
    CHERNOFF_T_STAR,
    REGIMES,
    averaged_pairwise_bound,
    chain_log_bound,
    chernoff_rate,
    chi_square_log_mgf,
    convexity_condition,
    curvature_condition,
    exact_quadratic_log_mgf,
    f_curve,
    necessary_sample_size,
    pairwise_conditional_bound,
    projection_energy,
    regime_table,
    sufficient_sample_size,
    union_error_bound_closed_form,
    union_error_bound_sum,
)
from supportlab.errors import DomainError, PreconditionError, ValidationError
from supportlab.model import (
    DesignMatrix,
    SparseSignal,
    build_projector,
    gaussian_design,
    make_pattern,
    pattern_difference,
)
from supportlab.verify import quadratic_form_matrix
from supportlab import rng

SEED = 20260811


def random_pair(gen, n_max=24, k_max=3):
    k = int(gen.integers(1, k_max + 1))
    n = int(gen.integers(2 * k + 2, n_max + 1))
    p = int(gen.integers(k + 2, 2 * k + 5))
    design = DesignMatrix(entries=gen.standard_normal((n, p)))
    t_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
    while True:
        f_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
        if f_idx != t_idx:
            break
    t_patt = make_pattern(t_idx, p)
    f_patt = make_pattern(f_idx, p)
    signal = SparseSignal(pattern=t_patt, values=gen.uniform(0.5, 2.5, size=k))
    return design, signal, t_patt, f_patt


# ------------------------------------------------------------------ constants


def test_chernoff_constants_identities():
    t = CHERNOFF_T_STAR
    assert abs(2 * t * t / (1 - 2 * t) - t - CHERNOFF_MIN) < 1e-14
    assert abs(CHERNOFF_C + CHERNOFF_MIN) < 1e-14
    assert abs(CHERNOFF_C - (3 - 2 * math.sqrt(2)) / 2) < 1e-16


def test_chernoff_rate_domain():
    with pytest.raises(DomainError):
        chernoff_rate(0.5)


# -------------------------------------------------------------- exact log-MGF


MGF_TS = np.array([-0.49, -0.4899, -0.3, 0.1, 0.45, 0.4899, 0.49])


def test_exact_mgf_at_zero_and_at_truth():
    gen = rng.stream(SEED, 1)
    design, signal, t_patt, f_patt = random_pair(gen)
    assert exact_quadratic_log_mgf(design, signal, t_patt, f_patt, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert exact_quadratic_log_mgf(design, signal, t_patt, t_patt, 0.3) == 0.0
    at_truth = exact_quadratic_log_mgf(design, signal, t_patt, t_patt, MGF_TS)
    assert isinstance(at_truth, np.ndarray)
    assert np.array_equal(at_truth, np.zeros(len(MGF_TS)))


def test_exact_mgf_domain_error():
    gen = rng.stream(SEED, 2)
    design, signal, t_patt, f_patt = random_pair(gen)
    with pytest.raises(DomainError):
        exact_quadratic_log_mgf(design, signal, t_patt, f_patt, 0.5)
    # One t outside |t| < 1/2 anywhere in an array rejects the whole call.
    with pytest.raises(DomainError):
        exact_quadratic_log_mgf(design, signal, t_patt, f_patt, math.nan)
    for ts in ([0.1, 0.5], [-0.5], [0.2, -0.7, 0.0], [0.3, np.inf], [0.1, np.nan]):
        with pytest.raises(DomainError, match=r"\|t\| < 1/2"):
            exact_quadratic_log_mgf(design, signal, t_patt, f_patt, np.array(ts))


def test_exact_mgf_against_sampled_mean():
    # Monte Carlo MGF oracle at the fixed seeded instance (n=6, p=4, k=2).
    gen = rng.stream(SEED, 3)
    n, p = 6, 4
    design = DesignMatrix(entries=gen.standard_normal((n, p)))
    t_patt = make_pattern([0, 1], p)
    f_patt = make_pattern([1, 2], p)
    signal = SparseSignal(pattern=t_patt, values=np.array([1.5, -2.0]))
    t = CHERNOFF_T_STAR
    exact = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, t)
    qt = build_projector(design, t_patt)
    qf = build_projector(design, f_patt)
    mu = design.submatrix(t_patt) @ signal.values
    noise = rng.stream(SEED, 4).standard_normal((200_000, n))
    ys = mu[None, :] + noise
    z = np.sum((ys @ qf) ** 2, axis=1) - np.sum((ys @ qt) ** 2, axis=1)
    sampled = math.log(float(np.mean(np.exp(t * z))))
    assert abs(sampled - exact) <= 0.02 * abs(exact)


def test_exact_mgf_chain_and_final_bound_order():
    # exact <= chain(t) on a t grid; chain(t*) <= -c g + d/2, slack 1e-9.
    gen = rng.stream(SEED, 5)
    ts = np.linspace(-0.49, 0.49, 13)
    for _ in range(20):
        design, signal, t_patt, f_patt = random_pair(gen)
        d = len(pattern_difference(t_patt, f_patt))
        g = projection_energy(design, signal, t_patt, f_patt)
        for t in ts:
            exact = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, float(t))
            assert exact <= chain_log_bound(g, d, float(t)) + 1e-9
        assert chain_log_bound(g, d, CHERNOFF_T_STAR) <= -CHERNOFF_C * g + 0.5 * d + 1e-9


def _dense_log_mgf(design, signal, t_patt, f_patt, t):
    """log E[exp(tZ)] from the dense n x n Psi, by a Cholesky of I - 2t Psi."""
    psi = quadratic_form_matrix(design, t_patt, f_patt)
    mu = design.submatrix(t_patt) @ signal.values
    chol = np.linalg.cholesky(np.eye(design.n) - 2.0 * t * psi)
    psi_mu = psi @ mu
    z = np.linalg.solve(chol, psi_mu)
    logdet = 2.0 * float(np.sum(np.log(np.diag(chol))))
    return 2.0 * t * t * float(z @ z) + t * float(mu @ psi_mu) - 0.5 * logdet


def degenerate_pair(gen):
    """(design, signal, T, F) with T and F sharing a column, n log-uniform up to
    300, and one of: a column duplicated across T and F or inside either, a
    collinear column in F or in T, a zero column in F or in T, or an F column
    close to (but not on) a T column, which puts a small principal angle
    between the two spans."""
    k = int(gen.integers(2, 5))
    p = 2 * k + 2
    n = int(np.exp(gen.uniform(math.log(2 * k + 2), math.log(301))))
    x = gen.standard_normal((n, p))
    cols = gen.permutation(p)
    shared = int(cols[0])
    t_idx = sorted([shared, *cols[1:k].tolist()])
    f_idx = sorted([shared, *cols[k:2 * k - 1].tolist()])
    a, b = int(cols[1]), int(cols[k])  # a in T only, b in F only
    kind = int(gen.integers(0, 8))
    if kind == 0:
        x[:, b] = x[:, a]
    elif kind == 1:
        x[:, b] = x[:, shared]
    elif kind == 2:
        x[:, a] = x[:, shared]
    elif kind == 3:
        x[:, b] = 0.5 * x[:, shared] - 2.0 * x[:, a]
    elif kind == 4:
        x[:, a] = 3.0 * x[:, shared] + x[:, int(cols[2])] if k > 2 else -x[:, shared]
    elif kind == 5:
        x[:, b] = 0.0
    elif kind == 6:
        x[:, a] = 0.0
    else:
        x[:, b] = x[:, a] + 0.05 * gen.standard_normal(n)
    t_patt = make_pattern(t_idx, p)
    f_patt = make_pattern(f_idx, p)
    values = gen.uniform(0.5, 2.5, size=k) * gen.choice([-1.0, 1.0], size=k)
    return DesignMatrix(entries=x), SparseSignal(pattern=t_patt, values=values), t_patt, f_patt


def test_exact_mgf_matches_dense_cholesky_oracle():
    # The r x r compression against the dense n x n route at 1e-10 relative,
    # plain and degenerate pairs, T and F overlapping.  The tolerance turns
    # absolute below 1: where col(X_T) = col(X_F) the exact value is 0 and
    # both routes return rounding noise.
    gen = rng.stream(SEED, 8)
    for i in range(80):
        if i % 2:
            design, signal, t_patt, f_patt = degenerate_pair(gen)
        else:
            design, signal, t_patt, f_patt = random_pair(gen, n_max=300, k_max=4)
        got = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, MGF_TS)
        for t, value in zip(MGF_TS, got):
            ref = _dense_log_mgf(design, signal, t_patt, f_patt, float(t))
            assert abs(value - ref) <= 1e-10 * max(abs(ref), 1.0), (i, t, value, ref)


def test_exact_mgf_array_t_equals_scalar_calls():
    gen = rng.stream(SEED, 9)
    for _ in range(20):
        design, signal, t_patt, f_patt = degenerate_pair(gen)
        got = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, MGF_TS)
        assert isinstance(got, np.ndarray) and got.shape == MGF_TS.shape
        for t, value in zip(MGF_TS, got):
            scalar = exact_quadratic_log_mgf(design, signal, t_patt, f_patt, float(t))
            assert isinstance(scalar, float)
            assert value == scalar


def test_eigen_pairs_and_identities_via_dense_solver():
    gen = rng.stream(SEED, 6)
    for _ in range(30):
        design, signal, t_patt, f_patt = random_pair(gen)
        d = len(pattern_difference(t_patt, f_patt))
        psi = quadratic_form_matrix(design, t_patt, f_patt)
        lam = np.linalg.eigvalsh(psi)
        pos = np.sort(lam[lam > 1e-8])[::-1]
        neg = np.sort(-lam[lam < -1e-8])[::-1]
        assert len(pos) == len(neg) <= d
        if len(pos):
            assert np.max(np.abs(pos - neg)) < 1e-8
        assert np.max(np.abs(lam)) <= 1.0 + 1e-10
        mu = design.submatrix(t_patt) @ signal.values
        g = projection_energy(design, signal, t_patt, f_patt)
        assert abs(float(mu @ psi @ mu) + g) <= 1e-9 * max(g, 1e-9)
        assert abs(float(mu @ psi @ psi @ mu) - g) <= 1e-9 * max(g, 1e-9)


# ------------------------------------------------------------ pairwise bound


def test_pairwise_bound_vacuous_at_truth():
    gen = rng.stream(SEED, 7)
    design, signal, t_patt, _ = random_pair(gen)
    rep = pairwise_conditional_bound(design, signal, t_patt, t_patt)
    assert rep.d == 0
    assert rep.projection_energy == pytest.approx(0.0, abs=1e-12)
    assert rep.probability == 1.0


@pytest.mark.parametrize("bound, args, message", [
    (projection_energy, (), "projection energy g overflows double precision"),
    (pairwise_conditional_bound, (), "projection energy g overflows double precision"),
    (exact_quadratic_log_mgf, (0.3,), "log-MGF overflows double precision"),
    (exact_quadratic_log_mgf, (np.array([-0.2, 0.3]),), "log-MGF overflows double precision"),
], ids=["projection-energy", "pairwise-bound", "exact-mgf", "exact-mgf-array"])
def test_finite_inputs_that_overflow_are_validation_errors(bound, args, message):
    # Every value is finite but the squared energies overflow.  Under the
    # test config a numpy warning would surface here as an error instead.
    t_patt, f_patt = make_pattern([0, 1], 10), make_pattern([2, 3], 10)
    signal = SparseSignal(pattern=t_patt, values=np.array([1e155, 1.0]))
    with pytest.raises(ValidationError, match=message):
        bound(gaussian_design(8, 10, SEED), signal, t_patt, f_patt, *args)


def test_pairwise_bound_orthonormal_columns():
    # Orthonormal two-column design, T={0}, F={1}, beta=(4): g = 16 exactly.
    design = DesignMatrix(entries=np.eye(5)[:, :2])
    t_patt = make_pattern([0], 2)
    f_patt = make_pattern([1], 2)
    signal = SparseSignal(pattern=t_patt, values=np.array([4.0]))
    rep = pairwise_conditional_bound(design, signal, t_patt, f_patt)
    assert rep.d == 1
    assert rep.projection_energy == pytest.approx(16.0, abs=1e-12)
    assert rep.log_bound == pytest.approx(-16 * CHERNOFF_C + 0.5, abs=1e-12)
    assert rep.log_bound == pytest.approx(-0.8725830020304777, abs=1e-12)
    assert rep.probability == pytest.approx(0.4178707929440153, rel=1e-12)


def test_pairwise_bound_dominates_sampled_frequency():
    # Empirical Pr[Z_F > 0] at a fixed seeded design, 1e5 noise draws; the
    # bound must exceed even the upper 99% Wilson edge.
    from supportlab.montecarlo import ExperimentSpec, run_pairwise

    spec = ExperimentSpec(
        n=8, p=12, k=2, trials=100_000, master_seed=SEED, target="pairwise",
        design_mode="fixed", beta_min=1.0, wrong_pattern=(1, 2), level=0.99,
    )
    result = run_pairwise(spec)
    assert result.wilson_high <= result.bound_value


def test_pairwise_bound_cardinality_mismatch():
    gen = rng.stream(SEED, 8)
    design, signal, t_patt, _ = random_pair(gen, k_max=2)
    with pytest.raises(ValidationError):
        pairwise_conditional_bound(design, signal, t_patt, make_pattern([0], t_patt.p))


# ---------------------------------------------------------- chi-square MGF


def test_chi_square_mgf_values():
    assert chi_square_log_mgf(0.0, 7) == 0.0
    assert chi_square_log_mgf(0.25, 2) == pytest.approx(math.log(2.0), abs=1e-12)
    with pytest.raises(DomainError):
        chi_square_log_mgf(0.5, 3)
    with pytest.raises(ValidationError):
        chi_square_log_mgf(0.1, 0)


def test_chi_square_mgf_sampling_oracle():
    t = -CHERNOFF_C * 1.0
    dof = 6
    w = rng.stream(SEED, 9).standard_normal((400_000, dof))
    sampled = math.log(float(np.mean(np.exp(t * np.sum(w**2, axis=1)))))
    assert abs(sampled - chi_square_log_mgf(t, dof)) <= 0.01 * abs(chi_square_log_mgf(t, dof))


# ------------------------------------------------------------ averaged bound


def test_averaged_bound_frozen_value():
    rep = averaged_pairwise_bound(10, 1, 1, 1.0)
    # High-precision evaluation of -(9/2) log(1+2c) + 1/2.
    assert rep.log_bound == pytest.approx(-0.2125623271916872, abs=1e-12)
    assert rep.probability == pytest.approx(0.8085099225980924, rel=1e-12)


def test_averaged_bound_vacuous_at_zero_energy():
    rep = averaged_pairwise_bound(12, 2, 2, 0.0)
    assert rep.log_bound == pytest.approx(1.0)
    assert rep.probability == 1.0


def test_averaged_bound_validation():
    with pytest.raises(ValidationError):
        averaged_pairwise_bound(3, 3, 1, 1.0)
    with pytest.raises(ValidationError):
        averaged_pairwise_bound(10, 2, 3, 1.0)


def test_averaged_bound_equals_design_ensemble_average():
    # The averaged bound is the exact design-ensemble mean of the conditional
    # bound exp(-c g + d/2): g/||beta_miss||^2 is chi-square with n-k degrees
    # of freedom.  The sampled mean must agree within Monte Carlo error and in
    # particular must not exceed the bound by more than a few standard errors.
    n, p, k = 12, 6, 1
    t_patt = make_pattern([0], p)
    f_patt = make_pattern([1], p)
    signal = SparseSignal(pattern=t_patt, values=np.array([1.5]))
    gen = rng.stream(SEED, 10)
    draws = 10_000
    vals = np.empty(draws)
    for i in range(draws):
        design = DesignMatrix(entries=gen.standard_normal((n, p)))
        g = projection_energy(design, signal, t_patt, f_patt)
        vals[i] = math.exp(-CHERNOFF_C * g + 0.5)
    bound = averaged_pairwise_bound(n, k, 1, float(np.sum(signal.values**2))).probability
    se = float(np.std(vals)) / math.sqrt(draws)
    assert vals.mean() <= bound + 4 * se
    assert abs(vals.mean() - bound) <= 5 * se


# ---------------------------------------------------------------- union sum


def test_union_sum_single_term_when_k_is_one():
    rep = union_error_bound_sum(10, 5, 1, 2.0)
    direct = 4 * math.exp(-4.5 * math.log1p(2 * CHERNOFF_C * 2.0) + 0.5)
    assert rep.log_bound == pytest.approx(math.log(direct), abs=1e-12)
    assert rep.log_bound == pytest.approx(0.5587293913830238, abs=1e-12)


def test_union_sum_monotonicity():
    base = union_error_bound_sum(40, 12, 2, 1.0).log_bound
    for b2 in (2.0, 4.0, 8.0):
        nxt = union_error_bound_sum(40, 12, 2, b2).log_bound
        assert nxt <= base
        base = nxt
    base = union_error_bound_sum(40, 12, 2, 1.0).log_bound
    for n in (50, 60, 80):
        nxt = union_error_bound_sum(n, 12, 2, 1.0).log_bound
        assert nxt < base
        base = nxt
    base = union_error_bound_sum(40, 12, 2, 1.0).log_bound
    for p in (14, 20, 30):
        nxt = union_error_bound_sum(40, p, 2, 1.0).log_bound
        assert nxt > base
        base = nxt


def test_union_sum_dominates_each_averaged_term():
    for (n, p, k, b2) in [(40, 12, 2, 1.0), (30, 21, 4, 0.5), (25, 9, 3, 2.0)]:
        total = union_error_bound_sum(n, p, k, b2).log_bound
        for d in range(1, k + 1):
            single = averaged_pairwise_bound(n, k, d, d * b2).log_bound
            assert total >= single - 1e-12


def test_union_sum_skips_empty_deficit_terms():
    # p - k = 3 < k = 4: the d = 4 term counts C(3, 4) = 0 supports.
    rep = union_error_bound_sum(20, 7, 4, 0.5)
    direct = sum(
        math.comb(4, d) * math.comb(3, d)
        * math.exp(-8.0 * math.log1p(2 * CHERNOFF_C * d * 0.5) + 0.5 * d)
        for d in range(1, 4)
    )
    assert rep.log_bound == pytest.approx(math.log(direct), rel=1e-13)


def test_union_sum_validation():
    with pytest.raises(ValidationError):
        union_error_bound_sum(10, 2, 2, 1.0)
    with pytest.raises(ValidationError):
        union_error_bound_sum(2, 5, 2, 1.0)
    with pytest.raises(ValidationError):
        union_error_bound_sum(10, 5, 2, 0.0)


# --------------------------------------------------------------- closed form


def test_closed_form_vacuous_at_C5():
    rep = union_error_bound_closed_form(4000, 101, 1, math.e - 1.0, 5.0)
    assert rep.probability == 1.0


def test_closed_form_frozen_value():
    rep = union_error_bound_closed_form(200, 101, 1, math.e - 1.0, 9.0)
    assert rep.log_bound == pytest.approx(2.5 - 2 * math.log(100), abs=1e-12)
    assert rep.probability == pytest.approx(1.2182493960703462e-3, rel=1e-12)


def test_closed_form_preconditions():
    with pytest.raises(PreconditionError, match="p > 2k"):
        union_error_bound_closed_form(100, 4, 2, 1.0, 9.0)
    with pytest.raises(PreconditionError, match="convexity"):
        union_error_bound_closed_form(20, 101, 1, 1.0, 9.0)
    with pytest.raises(PreconditionError, match="n - k >"):
        union_error_bound_closed_form(200, 101, 1, 1.0, 9.0)


def test_closed_form_majorizes_union_sum_on_grid():
    # 200 parameter points satisfying the closed form's hypotheses.
    gen = rng.stream(SEED, 11)
    checked = 0
    while checked < 200:
        k = int(gen.integers(1, 9))
        p = int(gen.integers(2 * k + 1, 8 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.2), math.log(8.0))))
        C = float(gen.uniform(5.5, 12.0))
        n = k + int(gen.integers(1, 4000))
        try:
            closed = union_error_bound_closed_form(n, p, k, b2, C)
        except PreconditionError:
            continue
        checked += 1
        total = union_error_bound_sum(n, p, k, b2)
        assert total.log_bound <= closed.log_bound + 1e-12
        assert total.probability <= closed.probability + 1e-15


# ------------------------------------------------- convexity and the f curve


def test_convexity_condition_direct_substitution():
    assert convexity_condition(18, 1, 1.0) is True  # n-k = 17 > 16
    assert convexity_condition(17, 1, 1.0) is False  # boundary: strict inequality


def _exact_convexity(n, k, b2):
    b = Fraction(b2)
    return (n - k) * b > 4 * (1 + k * b) ** 2 / (k * b)


def _exact_curvature(n, k, b2):
    b, c = Fraction(b2), Fraction(CHERNOFF_C)
    return all(-Fraction(2, d) + 2 * c**2 * b**2 * (n - k) / (1 + 2 * c * d * b) ** 2 > 0
               for d in (1, k))


@pytest.mark.parametrize("b2", [1e154, 1e160, 1e300])
def test_conditions_at_large_finite_beta_min_sq_match_exact_arithmetic(b2):
    # (1 + k b^2)^2 overflows a float here; both conditions still agree with
    # rational arithmetic on the same n, k and b^2, on both sides of the edge.
    for k in (1, 2, 5):
        for n in range(k + 1, 80):
            assert convexity_condition(n, k, b2) == _exact_convexity(n, k, b2)
            assert curvature_condition(n, k, b2) == _exact_curvature(n, k, b2)
    assert not convexity_condition(4 * 5 + 5, 5, b2) and convexity_condition(4 * 5 + 6, 5, b2)
    assert not curvature_condition(4 * 5 + 5, 5, b2) and curvature_condition(4 * 5 + 6, 5, b2)


def test_published_convexity_condition_does_not_imply_positive_curvature():
    # Negative control for the published constant: at k=1, beta^2=1, n-k=17
    # the published inequality holds but f''(1) < 0; the exact requirement
    # there is n-k > (1+2c)^2/c^2 ~ 186.5.
    assert convexity_condition(18, 1, 1.0)
    assert f_curve(1.0, 18, 11, 1, 1.0)[2] < 0
    assert not curvature_condition(18, 1, 1.0)
    assert curvature_condition(1 + 188, 1, 1.0)
    assert f_curve(1.0, 189, 11, 1, 1.0)[2] > 0


def test_curvature_condition_implies_published_condition():
    gen = rng.stream(SEED, 12)
    tried = 0
    while tried < 300:
        k = int(gen.integers(1, 65))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(20.0))))
        n = k + int(gen.integers(1, 200_000))
        if not curvature_condition(n, k, b2):
            continue
        tried += 1
        assert convexity_condition(n, k, b2)


def test_f_curve_matches_finite_differences():
    gen = rng.stream(SEED, 13)
    h = 1e-5
    for _ in range(40):
        k = int(gen.integers(1, 33))
        p = int(gen.integers(2 * k + 1, 6 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.1), math.log(10.0))))
        n = k + int(gen.integers(8, 2000))
        d = float(gen.uniform(1.0, max(1.0, float(k))))
        f0, fp, fpp = f_curve(d, n, p, k, b2)
        f_hi, fp_hi, _ = f_curve(d + h, n, p, k, b2)
        f_lo, fp_lo, _ = f_curve(d - h, n, p, k, b2)
        assert (f_hi - f_lo) / (2 * h) == pytest.approx(fp, rel=1e-6, abs=1e-8)
        assert (fp_hi - fp_lo) / (2 * h) == pytest.approx(fpp, rel=1e-6, abs=1e-8)


def test_f_curve_k1_reduces_to_single_endpoint():
    n, p, k, b2 = 60, 31, 1, 1.7
    f1 = f_curve(1.0, n, p, k, b2)[0]
    endpoint = 2.5 + math.log(k * (p - k)) - 0.5 * (n - k) * math.log1p(2 * CHERNOFF_C * b2)
    assert f1 == pytest.approx(endpoint, abs=1e-12)


def test_f_curve_domain_error():
    with pytest.raises(DomainError):
        f_curve(0.0, 30, 10, 2, 1.0)


def test_boundary_max_under_curvature_condition():
    gen = rng.stream(SEED, 14)
    tried = 0
    while tried < 150:
        k = int(gen.integers(2, 65))
        p = int(gen.integers(2 * k + 1, 6 * k + 50))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(10.0))))
        lo = (1.0 + 2.0 * CHERNOFF_C * b2) ** 2 / (CHERNOFF_C**2 * b2 * b2)
        lo = max(lo, (1.0 + 2.0 * CHERNOFF_C * k * b2) ** 2 / (k * CHERNOFF_C**2 * b2 * b2))
        n = k + int(math.ceil(lo * float(gen.uniform(1.001, 4.0))))
        if not curvature_condition(n, k, b2):
            continue
        tried += 1
        vals = [f_curve(float(d), n, p, k, b2)[0] for d in range(1, k + 1)]
        assert int(np.argmax(vals)) + 1 in (1, k)


# ------------------------------------------------------ sample-size conditions


def test_sufficient_sample_size_frozen_value():
    got = sufficient_sample_size(101, 1, math.e - 1.0, 9.0)
    assert got == pytest.approx(1 + 9 * (math.log(100) + 1), abs=1e-12)
    assert got == pytest.approx(51.44653167389283, abs=1e-10)


def test_sufficient_sample_size_high_snr_limit():
    # Both terms decay like 1/log(beta^2): the threshold drops toward k.
    gaps = [sufficient_sample_size(101, 3, b2, 9.0) - 3 for b2 in (1e3, 1e12, 1e100, 1e300)]
    assert all(a > b > 0 for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] < 0.2


def test_sufficient_sample_size_linear_in_C():
    base = sufficient_sample_size(101, 2, 0.7, 4.0)
    double = sufficient_sample_size(101, 2, 0.7, 8.0)
    assert double - 2 == pytest.approx(2 * (base - 2), rel=1e-12)


def test_sufficient_sample_size_variants():
    p, k, b2 = 101, 4, 0.9
    proof = sufficient_sample_size(p, k, b2, 9.0, variant="proof")
    statement = sufficient_sample_size(p, k, b2, 9.0, variant="statement")
    denom1 = math.log1p(b2)
    denomk = math.log1p(k * b2)
    expect_statement = k + 9.0 * max(
        math.log(k * (p - k)) / denom1,
        (k * math.log((p - k) / k) + math.log(k)) / denomk,
    )
    assert statement == pytest.approx(expect_statement, abs=1e-12)
    assert proof != statement
    # corollary variant keeps the bare k term: dominant at huge SNR
    assert sufficient_sample_size(p, k, 1e12, 9.0, variant="corollary") == pytest.approx(9.0 * k)
    with pytest.raises(ValidationError):
        sufficient_sample_size(p, k, b2, 9.0, variant="folklore")


def test_necessary_sample_size_lgamma_oracle():
    got = necessary_sample_size(100, 2, 1.0)
    log_comb = math.lgamma(101) - math.lgamma(3) - math.lgamma(99)
    f1 = (log_comb - 1) / (0.5 * math.log1p(2 * (1 - 2 / 100)))
    f2 = (math.log(99) - 1) / (0.5 * math.log1p(1 - 1 / 99))
    assert got == pytest.approx(max(f1, f2, 1.0), rel=1e-12)
    assert got == pytest.approx(13.835637846058212, rel=1e-10)


def test_necessary_sample_size_k_minus_one_limit():
    # k = p-1 with huge SNR: both f terms vanish, k-1 dominates.
    assert necessary_sample_size(10, 9, 1e9) == pytest.approx(8.0)


def test_necessary_sample_size_domain_errors():
    with pytest.raises(ValidationError):
        necessary_sample_size(5, 5, 1.0)
    with pytest.raises(DomainError):
        necessary_sample_size(10, 2, 0.0)


def test_sample_size_thresholds_that_overflow_are_validation_errors():
    with pytest.raises(ValidationError, match="sufficient sample size overflows"):
        sufficient_sample_size(100, 2, 1.0, 1e308)
    for variant in ("proof", "statement", "corollary"):
        with pytest.raises(ValidationError, match="sufficient sample size overflows"):
            sufficient_sample_size(100, 2, 1e-320, 9.0, variant=variant)
    with pytest.raises(ValidationError, match="necessary sample size overflows"):
        necessary_sample_size(100, 2, 1e-320)


def test_necessary_below_sufficient_trend():
    # Checked as a trend on a seeded 500-point valid grid.
    gen = rng.stream(SEED, 15)
    ratios = []
    while len(ratios) < 500:
        k = int(gen.integers(1, 33))
        p = int(gen.integers(2 * k + 1, 10 * k + 60))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(20.0))))
        ratios.append(
            sufficient_sample_size(p, k, b2, 9.0) / necessary_sample_size(p, k, b2)
        )
    ratios = np.array(ratios)
    assert float(np.median(ratios)) > 1.0
    assert float(np.mean(ratios > 1.0)) >= 0.99


# ------------------------------------------------------------------- regimes


def test_regime_table_validation():
    with pytest.raises(ValidationError):
        regime_table("linear_invk", [])
    with pytest.raises(ValidationError):
        regime_table("linear_invk", [64, 64])
    with pytest.raises(ValidationError):
        regime_table("nonsense", [64, 128])


def test_regime_predictor_sublinear_unit_formula():
    reg = REGIMES["sublinear_unit"]
    for p in (256, 1024, 4096):
        k = reg.k_of_p(p)
        expected = max(k * math.log(p / k) / math.log(k), float(k))
        assert reg.predictor_of(p, k) == pytest.approx(expected, rel=1e-12)


def test_regime_thresholds_monotone_in_p():
    grid = [2**e for e in range(6, 13)]
    for name in REGIMES:
        rows = regime_table(name, grid)
        for a, b in zip(rows, rows[1:]):
            assert a.sufficient_n <= b.sufficient_n
            assert a.necessary_n <= b.necessary_n


# ------------------------------------------------------- evaluator monotonicity


@settings(max_examples=200, deadline=None)
@given(
    k=st.integers(1, 8),
    extra_p=st.integers(1, 60),
    extra_n=st.integers(1, 3000),
    dn=st.integers(0, 3000),
    b2=st.floats(1e-4, 1e3),
    scale=st.floats(1.0, 1e3),
)
def test_log_domain_bounds_do_not_increase_in_n_or_beta(k, extra_p, extra_n, dn, b2, scale):
    p, n = k + extra_p, k + extra_n
    base = union_error_bound_sum(n, p, k, b2).log_bound
    assert union_error_bound_sum(n + dn, p, k, b2).log_bound <= base
    assert union_error_bound_sum(n, p, k, b2 * scale).log_bound <= base
    for d in range(1, k + 1):
        base = averaged_pairwise_bound(n, k, d, d * b2).log_bound
        assert averaged_pairwise_bound(n + dn, k, d, d * b2).log_bound <= base
        assert averaged_pairwise_bound(n, k, d, d * b2 * scale).log_bound <= base


def test_averaged_bound_monotone():
    logs = [averaged_pairwise_bound(12, 2, 1, e).log_bound for e in (0.5, 1.0, 2.0, 4.0)]
    assert all(a >= b for a, b in zip(logs, logs[1:]))
    logs = [averaged_pairwise_bound(n, 2, 1, 1.0).log_bound for n in (8, 12, 20, 40)]
    assert all(a >= b for a, b in zip(logs, logs[1:]))
