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
    pair_spectra,
    pairwise_conditional_bound,
    projection_energies,
    projection_energy,
    regime_table,
    spectral_log_mgf,
    sufficient_sample_size,
    union_error_bound_closed_form,
    union_error_bound_sum,
)
from supportlab.bounds import _log_comb
from supportlab.errors import DomainError, PreconditionError, ValidationError
from supportlab.model import (
    DesignMatrix,
    SparseSignal,
    build_projector,
    gaussian_design,
    make_pattern,
    pattern_difference,
    residual_energy,
)
from supportlab.verify import quadratic_form_matrices, quadratic_form_matrix
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


def _equal_column_spaces(gen):
    """(design, signal, T, F) with col(X_F) = col(X_T): F shares one column
    with T and spans the rest from T's columns, so Psi = 0."""
    k = int(gen.integers(2, 5))
    p = 2 * k
    n = int(gen.integers(2 * k + 2, 40))
    x = gen.standard_normal((n, p))
    x[:, k:2 * k - 1] = x[:, :k] @ gen.standard_normal((k, k - 1))
    t_patt = make_pattern(range(k), p)
    f_patt = make_pattern([k - 1, *range(k, 2 * k - 1)], p)
    values = gen.uniform(0.5, 2.5, size=k)
    return DesignMatrix(entries=x), SparseSignal(pattern=t_patt, values=values), t_patt, f_patt


def _zero_padded(pairs):
    """X_T, X_F and mu of each pair, zero-padded to the largest n and k and stacked."""
    n = max(design.n for design, *_ in pairs)
    k = max(len(t_patt) for _, _, t_patt, _ in pairs)
    xt, xf = np.zeros((2, len(pairs), n, k))
    mu = np.zeros((len(pairs), n))
    for i, (design, signal, t_patt, f_patt) in enumerate(pairs):
        rows, cols = design.n, len(t_patt)
        xt[i, :rows, :cols] = design.submatrix(t_patt)
        xf[i, :rows, :cols] = design.submatrix(f_patt)
        mu[i, :rows] = design.submatrix(t_patt) @ signal.values
    return xt, xf, mu


def test_padded_pair_stack_equals_one_pair_calls():
    # Mixed n (up to 300) and k (1 to 4) in one stack: plain pairs, pairs with
    # duplicated, zero or collinear columns (T and F always overlap there),
    # and pairs with col(X_F) = col(X_T).
    gen = rng.stream(SEED, 12)
    pairs = []
    for i in range(60):
        make = (lambda g: random_pair(g, n_max=60, k_max=4), degenerate_pair,
                _equal_column_spaces)[i % 3]
        pairs.append(make(gen))
    lam, w_sq = pair_spectra(*_zero_padded(pairs))
    assert lam.shape == w_sq.shape == (60, 8)
    stacked = spectral_log_mgf(lam, w_sq, MGF_TS)
    assert stacked.shape == (60, len(MGF_TS))
    for pair, spectrum, row in zip(pairs, lam, stacked):
        one = exact_quadratic_log_mgf(*pair, MGF_TS)
        assert np.all(np.abs(row - one) <= 1e-13 * np.maximum(np.abs(one), 1.0)), pair[2:]
        # The padding's eigenvalues are exact zeros, beside the pair's own r.
        design, signal, t_patt, f_patt = pair
        xt = design.submatrix(t_patt)
        own, _ = pair_spectra(xt, design.submatrix(f_patt), xt @ signal.values)
        assert np.sum(spectrum == 0.0) >= lam.shape[-1] - len(own)


def test_stacked_dense_psi_and_g_equal_one_pair_calls():
    # The dense oracle's stacked route and the stacked energy kernel, on a
    # zero-padded stack of mixed n (up to 300) and k (1 to 4): plain pairs,
    # pairs with duplicated, zero or collinear columns (T and F overlap
    # there), and pairs with col(X_F) = col(X_T), where g is rounding noise.
    gen = rng.stream(SEED, 14)
    pairs = []
    for i in range(24):
        make = (lambda g: random_pair(g, n_max=60, k_max=4), degenerate_pair,
                _equal_column_spaces)[i % 3]
        pairs.append(make(gen))
    xt, xf, _ = _zero_padded(pairs)
    miss = np.zeros(xt.shape[:2])
    for i, (design, signal, t_patt, f_patt) in enumerate(pairs):
        diff = pattern_difference(t_patt, f_patt)
        miss[i, :design.n] = design.submatrix(diff) @ signal.values_on(diff)
    psi = quadratic_form_matrices(xt, xf)
    g = projection_energies(xf, miss)
    assert psi.shape == (24, xt.shape[1], xt.shape[1]) and g.shape == (24,)
    for pair, stacked_psi, stacked_g in zip(pairs, psi, g):
        design, _, t_patt, f_patt = pair
        one = quadratic_form_matrix(design, t_patt, f_patt)
        n = design.n
        assert np.all(np.abs(stacked_psi[:n, :n] - one) <= 1e-12 * np.maximum(np.abs(one), 1.0))
        assert not stacked_psi[n:].any() and not stacked_psi[:, n:].any()
        ref = projection_energy(*pair)
        assert abs(stacked_g - ref) <= 1e-12 * max(abs(ref), 1.0), pair[2:]


def test_projection_energy_is_the_decoders_residual_kernel_bit_for_bit():
    # A one-pair call of the stacked kernel takes the BLAS routes of
    # model.residual_energy, so the pairwise bound's golden g cannot move.
    gen = rng.stream(SEED, 15)
    for i in range(60):
        pair = random_pair(gen, n_max=60, k_max=4) if i % 2 else degenerate_pair(gen)
        design, signal, t_patt, f_patt = pair
        diff = pattern_difference(t_patt, f_patt)
        v = design.submatrix(diff) @ signal.values_on(diff)
        assert projection_energy(*pair) == residual_energy(build_projector(design, f_patt), v)


def test_pair_spectra_of_equal_column_spaces_is_zero():
    gen = rng.stream(SEED, 13)
    for _ in range(10):
        design, signal, t_patt, f_patt = _equal_column_spaces(gen)
        xt = design.submatrix(t_patt)
        lam, _ = pair_spectra(xt, design.submatrix(f_patt), xt @ signal.values)
        assert np.max(np.abs(lam)) < 1e-12
        assert abs(exact_quadratic_log_mgf(design, signal, t_patt, f_patt, 0.3)) < 1e-12


def test_spectral_log_mgf_shapes():
    lam = np.array([[-0.5, 0.0, 0.5], [0.2, -0.2, 0.0]])
    w_sq = np.array([[1.0, 2.0, 3.0], [0.5, 0.0, 4.0]])
    closed = np.sum(2 * 0.1**2 * lam**2 * w_sq / (1 - 0.2 * lam) + 0.1 * lam * w_sq
                    - 0.5 * np.log(1 - 0.2 * lam), axis=-1)
    assert np.allclose(spectral_log_mgf(lam, w_sq, 0.1), closed, rtol=1e-15, atol=0)
    assert spectral_log_mgf(lam, w_sq, np.array([0.1, -0.3])).shape == (2, 2)
    assert isinstance(spectral_log_mgf(lam[0], w_sq[0], 0.1), float)
    assert spectral_log_mgf(lam[0], w_sq[0], np.array([0.1]))[0] == spectral_log_mgf(
        lam[0], w_sq[0], 0.1)


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


# ------------------------------------------------------------- log C(a, b)


def _mp_log_comb(a: int, b: int) -> float:
    """log C(a, b) by mpmath, at 25 digits beyond the size of lgamma(a + 1),
    so that the difference of log-gammas keeps about 25 of them."""
    import mpmath  # imported here: without mpmath these tests fail, not skip

    digits = 25 + max(1, math.ceil(math.log10(math.lgamma(a + 1) + 1.0)))
    with mpmath.workdps(digits):
        a_, b_ = mpmath.mpf(a), mpmath.mpf(b)
        return float(mpmath.loggamma(a_ + 1) - mpmath.loggamma(b_ + 1)
                     - mpmath.loggamma(a_ - b_ + 1))


def _comb_grid():
    """Every (a, b) with a <= 40, then log-spaced a up to 1e300 (four per
    decade) with small b, b around the route switch at 16, b ~ sqrt(a), and
    b near a/4, a/2 and a."""
    yield from ((a, b) for a in range(1, 41) for b in range(a + 1))
    for e in range(6, 1201):
        a = int(10 ** (e / 4)) if e < 60 else 10 ** (e // 4) * (1, 2, 3, 5)[e % 4]
        for b in (1, 2, 3, 7, 15, 16, 17, math.isqrt(a), a // 4, a // 2, a - 1):
            if 0 <= b <= a:
                yield a, b


def test_log_comb_matches_mpmath_up_to_a_1e300():
    # A count of one (b = 0 or b = a) must come out exactly 0.
    for a, b in _comb_grid():
        ref = _mp_log_comb(a, b)
        got = _log_comb(a, b)
        assert abs(got - ref) <= 1e-13 * abs(ref), (a, b, got, ref)


def test_log_comb_is_exact_where_the_count_is_one_and_empty_outside():
    for a in (0, 1, 5, 10**17, 10**300):
        assert _log_comb(a, 0) == _log_comb(a, a) == 0.0
        assert _log_comb(a, -1) == _log_comb(a, a + 1) == -math.inf


def test_union_sum_at_huge_p_is_vacuous():
    # At p = 1e17 the lgamma difference read -6.565 (probability 0.0014); the
    # sum is exp(64.139), so the bound is 1.
    rep = union_error_bound_sum(100, 10**17, 2, 1.0)
    assert rep.log_bound == pytest.approx(64.139, abs=1e-3)
    assert rep.probability == 1.0
    # At p = 1e307 lgamma overflowed.  The d = 2 term, with log C(p - 2, 2) =
    # 2 log p - log 2 to double precision, outweighs d = 1 by e^680.
    d2_term = 2 * 307 * math.log(10) - math.log(2) - 49 * math.log1p(4 * CHERNOFF_C) + 1
    assert union_error_bound_sum(100, 10**307, 2, 1.0).log_bound == pytest.approx(
        d2_term, rel=1e-13)


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
    for ds in ([1.0, 0.0], [[2.0], [-1.0]], [1.0, math.nan]):
        with pytest.raises(DomainError, match="deficit must be positive"):
            f_curve(np.array(ds), 30, 10, 2, 1.0)


@pytest.mark.parametrize("shape", [(5,), (2, 3)])
def test_f_curve_array_d_equals_scalar_calls(shape):
    gen = rng.stream(SEED, 15)
    for _ in range(20):
        k = int(gen.integers(1, 33))
        p = int(gen.integers(2 * k + 1, 6 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.1), math.log(10.0))))
        n = k + int(gen.integers(8, 2000))
        ds = gen.uniform(0.5, k + 1.0, size=shape)
        for column, curve in enumerate(f_curve(ds, n, p, k, b2)):
            assert isinstance(curve, np.ndarray) and curve.shape == shape
            for d, value in zip(ds.ravel(), curve.ravel()):
                scalar = f_curve(float(d), n, p, k, b2)[column]
                assert type(scalar) is float
                assert value == scalar


def test_chain_bound_array_t_equals_scalar_calls():
    gen = rng.stream(SEED, 16)
    ts = np.concatenate([np.linspace(-0.49, 0.49, 25), [CHERNOFF_T_STAR, -CHERNOFF_C]])
    for _ in range(20):
        g, d = float(gen.uniform(0.0, 50.0)), int(gen.integers(0, 5))
        got = chain_log_bound(g, d, ts)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        for t, value in zip(ts, got):
            scalar = chain_log_bound(g, d, float(t))
            assert type(scalar) is float
            assert value == scalar
    assert chain_log_bound(1.0, 1, ts.reshape(3, 9)).shape == (3, 9)


@pytest.mark.parametrize("t", [0.5, -0.5, math.nan, np.array([0.1, 0.5]),
                               np.array([[0.0], [math.nan]])])
def test_chain_bound_domain_error(t):
    with pytest.raises(DomainError, match=r"chain bound requires \|t\| < 1/2"):
        chain_log_bound(1.0, 1, t)


def _curve_points(gen, size):
    """n, p, k and beta_min^2 of ``size`` random deficit-curve points."""
    k = gen.integers(1, 33, size=size)
    p = 2 * k + 1 + gen.integers(0, 40, size=size)
    n = k + gen.integers(8, 2000, size=size)
    b2 = np.exp(gen.uniform(math.log(0.1), math.log(10.0), size=size))
    return n, p, k, b2


def test_f_curve_broadcasts_over_every_argument_bit_for_bit():
    # A column of (n, p, k, beta^2) points against a row of d per point, and
    # a scalar d against the column: every entry is the scalar call's.
    gen = rng.stream(SEED, 17)
    n, p, k, b2 = _curve_points(gen, 40)
    ds = gen.uniform(0.5, 40.0, size=(40, 6))
    grid = f_curve(ds, n[:, None], p[:, None], k[:, None], b2[:, None])
    at_two = f_curve(2.0, n, p, k, b2)
    for column in range(3):
        assert grid[column].shape == (40, 6) and at_two[column].shape == (40,)
        scalar = np.array([[f_curve(float(d), int(n[i]), int(p[i]), int(k[i]), float(b2[i]))[column]
                            for d in (*ds[i], 2.0)] for i in range(40)])
        assert np.array_equal(grid[column], scalar[:, :6])
        assert np.array_equal(at_two[column], scalar[:, 6])


def test_chain_bound_broadcasts_over_every_argument_bit_for_bit():
    gen = rng.stream(SEED, 18)
    g = gen.uniform(0.0, 50.0, size=30)
    d = gen.integers(0, 5, size=30)
    ts = np.concatenate([np.linspace(-0.49, 0.49, 25), [CHERNOFF_T_STAR, -CHERNOFF_C]])
    got = chain_log_bound(g[:, None], d[:, None], ts)
    assert got.shape == (30, len(ts))
    scalar = np.array([[chain_log_bound(float(g[i]), int(d[i]), float(t)) for t in ts]
                       for i in range(30)])
    assert np.array_equal(got, scalar)
    assert np.array_equal(chain_log_bound(g, d, CHERNOFF_T_STAR), scalar[:, -2])


def test_scalar_curve_calls_return_python_floats():
    for args in [(2.0, 30, 10, 2, 1.0), (np.float64(2.0), np.int64(30), np.int64(10),
                                         np.int64(2), np.float64(1.0))]:
        assert [type(v) for v in f_curve(*args)] == [float] * 3
    assert type(chain_log_bound(3.0, 2, 0.1)) is float
    assert type(chain_log_bound(np.float64(3.0), np.int64(2), np.float64(0.1))) is float


# One bad entry per case: (function, valid arguments, position of the bad
# argument, bad value).
BAD_ENTRIES = [
    (f_curve, (2.0, 30, 10, 2, 1.0), 0, math.nan),
    (f_curve, (2.0, 30, 10, 2, 1.0), 0, -1.0),
    (f_curve, (2.0, 30, 10, 2, 1.0), 3, 0),
    (f_curve, (2.0, 30, 10, 2, 1.0), 2, 2),
    (f_curve, (2.0, 30, 10, 2, 1.0), 4, 0.0),
    (f_curve, (2.0, 30, 10, 2, 1.0), 4, -1.5),
    (chain_log_bound, (3.0, 2, 0.1), 0, -1.0),
    (chain_log_bound, (3.0, 2, 0.1), 1, -1),
    (chain_log_bound, (3.0, 2, 0.1), 2, 0.5),
    (chain_log_bound, (3.0, 2, 0.1), 2, -0.7),
    (chain_log_bound, (3.0, 2, 0.1), 2, math.nan),
]


@pytest.mark.parametrize("fn, valid, at, bad", BAD_ENTRIES,
                         ids=[f"{fn.__name__}-{at}-{bad}" for fn, _, at, bad in BAD_ENTRIES])
def test_one_bad_entry_anywhere_raises_the_scalar_calls_error(fn, valid, at, bad):
    args = list(valid)
    args[at] = bad
    with pytest.raises((DomainError, ValidationError)) as scalar:
        fn(*args)
    # The bad entry sits at (1, 2) of a 3 x 4 array, the others are scalars;
    # then a column of 3 beside a row of 4 for every argument, so the bad
    # entry reaches several broadcast entries and the first is reported.
    for shape, others in (((3, 4), None), ((3, 1), (1, 4))):
        arrays = [v if others is None else np.full(others, v) for v in valid]
        column = np.full(shape, valid[at])
        column[1, -1] = bad
        arrays[at] = column
        with pytest.raises(type(scalar.value)) as broadcast:
            fn(*arrays)
        assert str(broadcast.value) == str(scalar.value)


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


@pytest.mark.parametrize("bound, args, name", [
    (union_error_bound_sum, (10**320, 100, 2, 1.0), "n"),
    (union_error_bound_sum, (100, 10**320, 2, 1.0), "p"),
    (union_error_bound_closed_form, (10**320, 100, 2, 1.0, 9.0), "n"),
    (union_error_bound_closed_form, (1000, 10**320, 2, 1.0, 9.0), "p"),
    (averaged_pairwise_bound, (10**320, 2, 1, 1.0), "n"),
    (sufficient_sample_size, (10**320, 2, 1.0, 9.0), "p"),
    (necessary_sample_size, (10**320, 2, 1.0), "p"),
], ids=["union-sum-n", "union-sum-p", "union-closed-n", "union-closed-p", "averaged-n",
        "sufficient-p", "necessary-p"])
def test_integers_beyond_double_range_are_validation_errors(bound, args, name):
    # float() of such an integer raises OverflowError; the bound names it instead.
    message = f"^{name} is too large for double precision$"
    with pytest.raises(ValidationError, match=message) as info:
        bound(*args)
    assert info.value.params == (name,)


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
