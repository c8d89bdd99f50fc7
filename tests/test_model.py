import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportlab import bounds, decoder, rng
from supportlab.errors import ValidationError
from supportlab.model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    build_projector,
    column_space_basis,
    flat_signal,
    gaussian_design,
    make_pattern,
    pattern_count,
    pattern_difference,
    residual_energy,
    synthesize_observation,
)

SEED = 20260811


# ------------------------------------------------------------------ patterns


def test_make_pattern_sorts():
    patt = make_pattern([2, 0], p=5)
    assert patt.indices == (0, 2)


def test_make_pattern_empty():
    patt = make_pattern([], p=5)
    assert len(patt) == 0


@pytest.mark.parametrize("bad", [[0, 0], [5], [-1]])
def test_make_pattern_rejects(bad):
    with pytest.raises(ValidationError):
        make_pattern(bad, p=5)


def test_pattern_difference_examples():
    a = make_pattern([1, 3, 5], 8)
    b = make_pattern([3, 5, 7], 8)
    assert pattern_difference(a, b).indices == (1,)
    assert pattern_difference(a, a).indices == ()
    c = make_pattern([0, 1], 8)
    d = make_pattern([2, 3], 8)
    assert pattern_difference(c, d).indices == (0, 1)


def test_pattern_difference_mismatched_p():
    with pytest.raises(ValidationError):
        pattern_difference(make_pattern([0], 4), make_pattern([0], 5))


@given(
    a=st.sets(st.integers(0, 11), max_size=12),
    b=st.sets(st.integers(0, 11), max_size=12),
)
@settings(max_examples=200, deadline=None)
def test_pattern_difference_is_set_difference(a, b):
    pa = make_pattern(sorted(a), 12)
    pb = make_pattern(sorted(b), 12)
    assert set(pattern_difference(pa, pb).indices) == a - b


# The exhaustive decoder enumerates its candidate patterns with
# ``decoder._lex_chunks``: every size-k pattern once, in lexicographic order
# (the order that fixes its tie-break), in chunks of at most CHUNK_SIZE rows.


def _enumerated(p, k):
    chunks = list(decoder._lex_chunks(p, k))
    assert all(len(c) <= decoder.CHUNK_SIZE for c in chunks)
    return [tuple(int(i) for i in row) for c in chunks for row in c]


def test_enumerate_patterns_small():
    patterns = _enumerated(4, 2)
    assert len(patterns) == 6
    assert patterns[0] == (0, 1)
    assert patterns[-1] == (2, 3)
    assert patterns == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]


def test_enumerate_patterns_k_zero():
    # Exactly one size-0 pattern, the empty one; it is a valid pattern.
    assert pattern_count(3, 0) == 1
    assert list(itertools.combinations(range(3), 0)) == [()]
    assert make_pattern([], 3).indices == ()


def test_enumerate_patterns_count_factorial_oracle():
    # Independent count: 20! / (3! 17!)
    expected = math.factorial(20) // (math.factorial(3) * math.factorial(17))
    assert expected == 1140
    patterns = _enumerated(20, 3)
    assert len(patterns) == expected
    assert len(set(patterns)) == expected


def test_enumerate_patterns_counts_up_to_p16():
    # C(16, 8) = 12870 spans several chunks.
    assert pattern_count(16, 8) > 2 * decoder.CHUNK_SIZE
    for p in range(1, 17):
        for k in range(1, p + 1):
            patterns = _enumerated(p, k)
            assert len(set(patterns)) == len(patterns) == pattern_count(p, k)
            assert patterns == list(itertools.combinations(range(p), k))


def test_pattern_count_factorial_oracle():
    # Independent count: 20! / (3! 17!)
    expected = math.factorial(20) // (math.factorial(3) * math.factorial(17))
    assert expected == 1140
    assert pattern_count(20, 3) == expected
    assert pattern_count(3, 0) == pattern_count(3, 3) == 1


def test_pattern_count_rejects_k_above_p():
    for k in (4, -1):
        with pytest.raises(ValidationError, match="need 0 <= k <= p"):
            pattern_count(3, k)


# ------------------------------------------------------------------- signals


def test_signal_rejects_zero_values():
    with pytest.raises(ValidationError):
        SparseSignal(pattern=make_pattern([0, 1], 4), values=np.array([1.0, 0.0]))


def test_signal_rejects_empty_support():
    with pytest.raises(ValidationError):
        SparseSignal(pattern=make_pattern([], 4), values=np.array([]))


def test_signal_stats():
    sig = SparseSignal(pattern=make_pattern([0, 2, 3], 6), values=np.array([-2.0, 0.5, 1.0]))
    assert np.allclose(sig.values_on(make_pattern([0, 3], 6)), [-2.0, 1.0])


# ------------------------------------------------------------------- designs


def test_gaussian_design_deterministic():
    a = gaussian_design(2, 2, seed=SEED)
    b = gaussian_design(2, 2, seed=SEED)
    assert a.entries.tobytes() == b.entries.tobytes()


def test_gaussian_design_seed_separation():
    a = gaussian_design(2, 2, seed=SEED)
    b = gaussian_design(2, 2, seed=SEED + 1)
    assert a.entries.tobytes() != b.entries.tobytes()


def test_gaussian_design_law_of_large_numbers():
    entries = gaussian_design(1000, 1, seed=SEED).entries.ravel()
    assert abs(entries.mean()) < 0.1
    assert abs(entries.var() - 1.0) < 0.1


def test_design_rejects_nonfinite():
    with pytest.raises(ValidationError):
        DesignMatrix(entries=np.array([[1.0, np.inf], [0.0, 1.0]]))


# ------------------------------------------------------------- observations


def test_synthesize_noiseless_identity_design():
    design = DesignMatrix(entries=np.eye(2))
    sig = SparseSignal(pattern=make_pattern([0], 2), values=np.array([3.0]))
    y = synthesize_observation(design, sig, noise_seed=0, noiseless=True)
    assert np.allclose(y, [3.0, 0.0])


def test_synthesize_dimension_mismatch():
    design = DesignMatrix(entries=np.eye(2))
    sig = SparseSignal(pattern=make_pattern([0], 3), values=np.array([1.0]))
    with pytest.raises(ValidationError):
        synthesize_observation(design, sig, noise_seed=0)


@pytest.mark.parametrize("noiseless", [False, True])
def test_synthesize_names_an_overflowed_observation(noiseless):
    design = gaussian_design(8, 10, seed=3)
    sig = SparseSignal(pattern=make_pattern([0, 1], 10), values=np.array([1e308, 1e308]))
    with pytest.raises(ValidationError, match="observation overflows double precision"):
        synthesize_observation(design, sig, noise_seed=3, noiseless=noiseless)


def test_noise_energy_chi_square_mean():
    # y = X_T beta_T + eps with eps the noise stream's first n normals, bit for
    # bit, so ||y - X_T beta_T||^2 = ||eps||^2 is chi-square with n degrees of
    # freedom; its mean over many noise streams must sit within 2% of n.
    n = 16
    design = gaussian_design(n, 3, seed=SEED)
    sig = flat_signal(make_pattern([0, 1], 3), 1.0)
    mean_vec = design.submatrix(sig.pattern) @ sig.values
    for noise_seed in (0, 1, SEED, 2**64 - 1):
        y = synthesize_observation(design, sig, noise_seed=noise_seed)
        eps = rng.stream(noise_seed, rng.KIND_NOISE).standard_normal(n)
        assert np.array_equal(y, mean_vec + eps)
    total = 0.0
    draws = 100_000
    for gen in rng.streams(SEED, rng.KIND_NOISE, 0, draws):
        eps = gen.standard_normal(n)
        total += float(eps @ eps)
    assert abs(total / draws - n) < 0.02 * n


def test_instance_invariants():
    design = gaussian_design(6, 5, seed=SEED)
    sig = flat_signal(make_pattern([1, 4], 5), 2.0)
    y = synthesize_observation(design, sig, noise_seed=1, noiseless=True)
    inst = ProblemInstance(design=design, signal=sig, observation=y)
    assert inst.n == 6 and inst.p == 5 and inst.k == 2
    # noiseless residual is exactly zero
    assert np.allclose(inst.observation - design.submatrix(sig.pattern) @ sig.values, 0.0)
    with pytest.raises(ValidationError):
        ProblemInstance(design=design, signal=sig, observation=y[:-1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_instance_rejects_nonfinite_observation(bad):
    design = gaussian_design(6, 5, seed=SEED)
    sig = flat_signal(make_pattern([1, 4], 5), 2.0)
    y = synthesize_observation(design, sig, noise_seed=1)
    y[3] = bad
    with pytest.raises(ValidationError, match="observation must be finite"):
        ProblemInstance(design=design, signal=sig, observation=y)


# ----------------------------------------------------------------- projector
# The projector Pi_F is held as its orthonormal basis Q (Pi_F = Q Q^T).


def _project(q, v):
    return q @ (q.T @ v)


def test_projector_orthonormal_columns_exact():
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((8, 3)))
    design = DesignMatrix(entries=q)
    patt = make_pattern([0, 1, 2], 3)
    basis = build_projector(design, patt)
    assert basis.shape == (8, 3)
    assert np.allclose(basis.T @ basis, np.eye(3), atol=1e-12)
    v = np.random.default_rng(4).standard_normal(8)
    assert np.allclose(_project(basis, v), q @ (q.T @ v), atol=1e-12)


def test_projector_duplicate_column_rank_one():
    col = np.random.default_rng(5).standard_normal((6, 1))
    design = DesignMatrix(entries=np.hstack([col, col]))
    basis = build_projector(design, make_pattern([0, 1], 2))
    assert basis.shape == (6, 1)


def test_projector_full_rank_and_idempotent():
    gen = np.random.default_rng(SEED)
    for _ in range(20):
        design = DesignMatrix(entries=gen.standard_normal((8, 5)))
        basis = build_projector(design, make_pattern([0, 2, 4], 5))
        assert basis.shape[1] == 3
        v = gen.standard_normal(8)
        once = _project(basis, v)
        assert np.linalg.norm(_project(basis, once) - once) <= 1e-10
        # own columns are fixed points
        for j in (0, 2, 4):
            col = design.entries[:, j]
            assert np.linalg.norm(col - _project(basis, col)) <= 1e-8 * np.linalg.norm(col)


def test_projector_idempotence_and_symmetry_random():
    gen = np.random.default_rng(SEED + 1)
    for _ in range(30):
        n = int(gen.integers(4, 65))
        p = int(gen.integers(2, 9))
        k = int(gen.integers(1, min(p, n) + 1))
        design = DesignMatrix(entries=gen.standard_normal((n, p)))
        patt = make_pattern(sorted(gen.choice(p, size=k, replace=False).tolist()), p)
        basis = build_projector(design, patt)
        u = gen.standard_normal(n)
        v = gen.standard_normal(n)
        pu = _project(basis, u)
        assert np.linalg.norm(_project(basis, pu) - pu) < 1e-8
        assert abs(pu @ v - u @ _project(basis, v)) < 1e-8
        dense = basis @ basis.T
        assert np.linalg.norm(dense @ dense - dense) < 1e-8
        assert np.linalg.norm(dense - dense.T) < 1e-12


def test_empty_pattern_zero_projector():
    design = gaussian_design(5, 3, seed=SEED)
    basis = build_projector(design, make_pattern([], 3))
    assert basis.shape == (5, 0)
    v = np.array([1.0, -2.0, 0.5, 3.0, 0.25])
    assert np.array_equal(_project(basis, v), np.zeros(5))
    assert residual_energy(basis, v) == float(v @ v)


# ----------------------------------------------------------- residual energy


def test_residual_energy_in_span_and_orthogonal():
    design = DesignMatrix(entries=np.eye(4)[:, :2])
    basis = build_projector(design, make_pattern([0, 1], 2))
    in_span = np.array([1.0, -2.0, 0.0, 0.0])
    assert residual_energy(basis, in_span) < 1e-12
    ortho = np.array([0.0, 0.0, 3.0, 4.0])
    assert residual_energy(basis, ortho) == pytest.approx(25.0)


def test_residual_energy_dense_formula_oracle():
    gen = np.random.default_rng(SEED + 2)
    for _ in range(25):
        n, m = 10, 3
        x = gen.standard_normal((n, m))
        design = DesignMatrix(entries=x)
        basis = build_projector(design, make_pattern(list(range(m)), m))
        v = gen.standard_normal(n)
        dense = v - x @ np.linalg.solve(x.T @ x, x.T @ v)
        expected = float(dense @ dense)
        got = residual_energy(basis, v)
        assert abs(got - expected) <= 1e-10 * max(expected, 1.0)
        # 0 <= residual energy <= ||v||^2
        assert -1e-10 <= got <= float(v @ v) + 1e-10


def test_residual_energy_dimension_mismatch():
    design = gaussian_design(5, 3, seed=SEED)
    basis = build_projector(design, make_pattern([0], 3))
    with pytest.raises(ValidationError):
        residual_energy(basis, np.ones(4))


def _deficient_stack(gen, count, n, m):
    """A stack of n x m matrices, most of them rank deficient."""
    stack = gen.standard_normal((count, n, m))
    for j, mat in enumerate(stack):
        defect = j % 6
        if defect == 1 and m >= 2:
            mat[:, -1] = mat[:, 0]  # duplicated column
        elif defect == 2 and m >= 3:
            mat[:, 2] = 0.7 * mat[:, 0] - 1.3 * mat[:, 1]  # collinear triple
        elif defect == 3:
            mat[:, m // 2] = 0.0  # zero column
        elif defect == 4:
            mat[:] = 0.0  # zero matrix: rank 0
        elif defect == 5:
            mat[:, m // 2] *= 1e-12  # below the rank tolerance
    return stack


@pytest.mark.parametrize("n, m", [(1, 1), (1, 3), (5, 2), (6, 6), (4, 7), (9, 3)])
def test_stacked_column_space_basis_equals_each_2d_call(n, m):
    gen = np.random.default_rng(n * 31 + m)
    stack = _deficient_stack(gen, 24, n, m)
    bases = column_space_basis(stack)
    assert bases.shape == (24, n, min(n, m))
    ranks = []
    for mat, basis in zip(stack, bases):
        single = column_space_basis(mat)
        r = single.shape[1]
        ranks.append(r)
        assert np.array_equal(basis[:, :r], single)
        assert not basis[:, r:].any()
    assert 0 in ranks and len(set(ranks)) > 1
    # Leading dimensions are kept: a (2, 12, n, m) stack gives the same bases.
    assert np.array_equal(column_space_basis(stack.reshape(2, 12, n, m)),
                          bases.reshape(2, 12, n, min(n, m)))


@pytest.mark.parametrize("entry", [
    "column_space_basis", "build_projector", "score_support", "projection_energy",
    "pairwise_conditional_bound", "exact_quadratic_log_mgf",
])
def test_every_rank_kernel_caller_names_an_overflowed_column_norm(entry):
    # Column norms overflow above ~1e154.  The rank cutoff, scaled by the
    # largest of them, would be inf and the basis empty: a zero projector.
    design = DesignMatrix(entries=gaussian_design(10, 4, seed=SEED).entries * 1e200)
    t_patt, f_patt = make_pattern([0, 1], 4), make_pattern([1, 2], 4)
    signal = flat_signal(t_patt, 1.0)
    instance = ProblemInstance(design=design, signal=signal, observation=np.ones(10))
    calls = {
        "column_space_basis": lambda: column_space_basis(design.entries[:, :2]),
        "build_projector": lambda: build_projector(design, t_patt),
        "score_support": lambda: decoder.score_support(instance, f_patt),
        "projection_energy": lambda: bounds.projection_energy(design, signal, t_patt, f_patt),
        "pairwise_conditional_bound":
            lambda: bounds.pairwise_conditional_bound(design, signal, t_patt, f_patt),
        "exact_quadratic_log_mgf":
            lambda: bounds.exact_quadratic_log_mgf(design, signal, t_patt, f_patt, 0.1),
    }
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        with pytest.raises(ValidationError,
                           match="design column energy overflows double precision"):
            calls[entry]()


def test_column_space_basis_of_empty_matrices():
    assert column_space_basis(np.zeros((4, 0))).shape == (4, 0)
    assert column_space_basis(np.zeros((3, 4, 0))).shape == (3, 4, 0)
