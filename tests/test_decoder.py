import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportlab import decoder
from supportlab.decoder import decode_exhaustive, pairwise_statistic, score_support
from supportlab.errors import BudgetError, ValidationError
from supportlab.model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    build_projector,
    enumerate_patterns,
    flat_signal,
    gaussian_design,
    make_pattern,
    synthesize_observation,
)

SEED = 31415


def seeded_instance(seed, n=8, p=10, k=2, beta=1.0, noiseless=False):
    design = gaussian_design(n, p, seed=seed)
    sig = flat_signal(make_pattern(list(range(k)), p), beta)
    y = synthesize_observation(design, sig, noise_seed=seed, noiseless=noiseless)
    return ProblemInstance(design=design, signal=sig, observation=y)


# ------------------------------------------------------------- score_support


def test_score_true_support_noiseless_is_zero():
    inst = seeded_instance(SEED, noiseless=True)
    assert score_support(inst, inst.true_pattern) < 1e-10


def test_score_orthogonal_miss():
    design = DesignMatrix(entries=np.eye(4)[:, :2])
    sig = SparseSignal(pattern=make_pattern([0], 2), values=np.array([5.0]))
    y = synthesize_observation(design, sig, noise_seed=0, noiseless=True)
    inst = ProblemInstance(design=design, signal=sig, observation=y)
    assert score_support(inst, make_pattern([1], 2)) == pytest.approx(25.0)


def test_score_matches_least_squares_oracle():
    gen = np.random.default_rng(SEED)
    for _ in range(20):
        inst = seeded_instance(int(gen.integers(1 << 30)), n=9, p=7, k=3)
        for f in (make_pattern([0, 2, 5], 7), make_pattern([1, 3, 6], 7)):
            xf = inst.design.submatrix(f)
            _, rss, _, _ = np.linalg.lstsq(xf, inst.observation, rcond=None)
            expected = float(rss[0]) if rss.size else float(
                np.sum((inst.observation - xf @ np.linalg.lstsq(xf, inst.observation, rcond=None)[0]) ** 2)
            )
            got = score_support(inst, f)
            assert abs(got - expected) <= 1e-9 * max(1.0, expected)


def test_score_wrong_cardinality():
    inst = seeded_instance(SEED)
    with pytest.raises(ValidationError):
        score_support(inst, make_pattern([0], 10))


# --------------------------------------------------------- decode_exhaustive


def test_noiseless_exact_recovery_over_seeds():
    for seed in range(20):
        inst = seeded_instance(seed, noiseless=True)
        res = decode_exhaustive(inst)
        assert res.pattern.indices == inst.true_pattern.indices
        assert res.candidates_scored == math.comb(10, 2)
        assert res.score <= res.runner_up_score


def test_decode_p_equals_k():
    design = gaussian_design(6, 3, seed=SEED)
    sig = flat_signal(make_pattern([0, 1, 2], 3), 1.0)
    y = synthesize_observation(design, sig, noise_seed=SEED)
    inst = ProblemInstance(design=design, signal=sig, observation=y)
    res = decode_exhaustive(inst)
    assert res.pattern.indices == (0, 1, 2)
    assert res.candidates_scored == 1
    assert res.runner_up_score == math.inf


def test_decode_zero_observation_tie_break():
    design = gaussian_design(6, 5, seed=SEED)
    sig = flat_signal(make_pattern([2, 4], 5), 1.0)
    inst = ProblemInstance(design=design, signal=sig, observation=np.zeros(6))
    res = decode_exhaustive(inst)
    # every score is 0; the lexicographically first pattern wins
    assert res.pattern.indices == (0, 1)
    assert res.score == 0.0


def test_decode_nan_observation_is_a_validation_error():
    # Every score of an all-NaN observation is NaN, so no candidate would win
    # the strict < of the exact loop; the instance refuses it up front.
    design = gaussian_design(6, 5, seed=SEED)
    sig = flat_signal(make_pattern([2, 4], 5), 1.0)
    with pytest.raises(ValidationError, match="observation must be finite"):
        decode_exhaustive(
            ProblemInstance(design=design, signal=sig, observation=np.full(6, np.nan))
        )


def test_decode_budget_error_names_count():
    inst = seeded_instance(SEED, n=8, p=20, k=6)
    with pytest.raises(BudgetError, match=r"C\(20,6\) = 38760"):
        decode_exhaustive(inst, max_candidates=1000)


def test_decode_warns_when_k_exceeds_n():
    design = gaussian_design(2, 6, seed=SEED)
    sig = flat_signal(make_pattern([0, 1, 2], 6), 1.0)
    y = synthesize_observation(design, sig, noise_seed=SEED)
    inst = ProblemInstance(design=design, signal=sig, observation=y)
    with pytest.warns(UserWarning, match="exceeds"):
        decode_exhaustive(inst)


def test_decode_matches_independent_enumeration():
    # Brute-force equivalence against a separate enumeration + public scoring.
    for seed in range(8):
        inst = seeded_instance(seed, n=9, p=12, k=2)
        res = decode_exhaustive(inst)
        scores = [(score_support(inst, f), f.indices) for f in enumerate_patterns(12, 2)]
        best_score = min(s for s, _ in scores)
        best_pattern = min(idx for s, idx in scores if s == best_score)
        ranked = sorted(s for s, _ in scores)
        assert res.score == best_score
        assert res.pattern.indices == best_pattern
        assert res.runner_up_score == ranked[1]


def test_decode_permutation_equivariance():
    gen = np.random.default_rng(SEED)
    for seed in range(8):
        inst = seeded_instance(seed, n=9, p=8, k=2)
        perm = gen.permutation(8)
        inv = np.argsort(perm)
        design_p = DesignMatrix(entries=inst.design.entries[:, perm])
        support_p = make_pattern([int(inv[i]) for i in inst.true_pattern.indices], 8)
        order = np.argsort([int(inv[i]) for i in inst.true_pattern.indices])
        sig_p = SparseSignal(pattern=support_p, values=inst.signal.values[order])
        inst_p = ProblemInstance(design=design_p, signal=sig_p, observation=inst.observation)
        res = decode_exhaustive(inst)
        res_p = decode_exhaustive(inst_p)
        mapped = tuple(sorted(int(inv[i]) for i in res.pattern.indices))
        assert res_p.pattern.indices == mapped


# --------------------------------------------------------- pairwise statistic


def test_pairwise_statistic_at_truth_is_exactly_zero():
    inst = seeded_instance(SEED)
    assert pairwise_statistic(inst, inst.true_pattern) == 0.0


def test_pairwise_statistic_noiseless_negative():
    for seed in range(10):
        inst = seeded_instance(seed, noiseless=True)
        for f in (make_pattern([2, 3], 10), make_pattern([0, 5], 10)):
            assert pairwise_statistic(inst, f) < 0.0


def test_pairwise_statistic_quadratic_form_oracle():
    # Z must equal y^T (Pi_F - Pi_T) y computed with dense projector matrices.
    for seed in range(10):
        inst = seeded_instance(seed, n=9, p=7, k=2)
        y = inst.observation
        pi_t = build_projector(inst.design, inst.true_pattern).matrix()
        for f in enumerate_patterns(7, 2):
            pi_f = build_projector(inst.design, f).matrix()
            dense = float(y @ (pi_f - pi_t) @ y)
            assert abs(pairwise_statistic(inst, f) - dense) <= 1e-9


def test_pairwise_sign_agrees_with_decoder_preference():
    for seed in range(10):
        inst = seeded_instance(seed, n=8, p=9, k=2)
        s_true = score_support(inst, inst.true_pattern)
        for f in enumerate_patterns(9, 2):
            if f.indices == inst.true_pattern.indices:
                continue
            prefers_f = score_support(inst, f) < s_true
            assert prefers_f == (pairwise_statistic(inst, f) > 0.0)


def test_pairwise_statistic_wrong_cardinality():
    inst = seeded_instance(SEED)
    with pytest.raises(ValidationError):
        pairwise_statistic(inst, make_pattern([1], 10))


# ------------------------------------------------- rank-deficient designs


def _lstsq_rss(inst, pattern):
    xf = inst.design.submatrix(pattern)
    theta = np.linalg.lstsq(xf, inst.observation, rcond=None)[0]
    resid = inst.observation - xf @ theta
    return float(resid @ resid)


def _deficient_instance(seed, copy_from, copy_to, factor, support):
    entries = np.array(gaussian_design(10, 6, seed=seed).entries)
    entries[:, copy_to] = factor * entries[:, copy_from]
    design = DesignMatrix(entries=entries)
    sig = flat_signal(make_pattern(support, 6), 3.0)
    y = synthesize_observation(design, sig, noise_seed=seed)
    return ProblemInstance(design=design, signal=sig, observation=y)


def _assert_matches_brute_force(inst, res):
    rss = {f.indices: _lstsq_rss(inst, f) for f in enumerate_patterns(6, 2)}
    ranked = sorted(rss.values())
    tol = 1e-9 * max(1.0, ranked[0])
    assert abs(res.score - ranked[0]) <= tol
    assert abs(res.runner_up_score - ranked[1]) <= 1e-9 * max(1.0, ranked[1])
    assert abs(rss[res.pattern.indices] - ranked[0]) <= tol
    # Every candidate, including the rank-1 ones, scores as least squares does.
    for f in enumerate_patterns(6, 2):
        assert abs(score_support(inst, f) - rss[f.indices]) <= 1e-9 * max(1.0, rss[f.indices])
    # score_support and the decoder loop share one kernel: identical bytes.
    assert score_support(inst, res.pattern) == res.score


def test_decode_duplicated_column_ties_break_lexicographically():
    # Column 4 duplicates column 0 and T = {0, 5}: the candidates {0, 5} and
    # {4, 5} have bit-identical submatrices, hence exactly equal scores.
    for seed in range(10):
        inst = _deficient_instance(seed, copy_from=0, copy_to=4, factor=1.0, support=[0, 5])
        res = decode_exhaustive(inst)
        _assert_matches_brute_force(inst, res)
        assert res.pattern.indices == (0, 5)
        assert res.runner_up_score == res.score
        assert score_support(inst, make_pattern([4, 5], 6)) == res.score
        # {0, 4} spans one dimension: the rank truncation keeps exactly one.
        assert build_projector(inst.design, make_pattern([0, 4], 6)).rank == 1


def test_decode_collinear_column_matches_least_squares():
    # Column 3 is -2.5 times column 1 and T = {1, 2}: {1, 2} and {2, 3} span
    # the same plane, so their scores agree to rounding.
    for seed in range(10):
        inst = _deficient_instance(seed, copy_from=1, copy_to=3, factor=-2.5, support=[1, 2])
        res = decode_exhaustive(inst)
        _assert_matches_brute_force(inst, res)
        assert res.pattern.indices in ((1, 2), (2, 3))
        assert abs(res.runner_up_score - res.score) <= 1e-9 * max(1.0, res.score)
        assert build_projector(inst.design, make_pattern([1, 3], 6)).rank == 1


# ------------------------------------------ batched filter vs the exact loop


def _exact_loop(inst):
    """The reference decoder: every candidate on the exact route, strict <."""
    entries, y = inst.design.entries, inst.observation
    best_combo, best, runner_up = None, math.inf, math.inf
    for combo in itertools.combinations(range(inst.p), inst.k):
        s = decoder._score_columns(entries, combo, y)
        if s < best:
            runner_up, best, best_combo = best, s, combo
        elif s < runner_up:
            runner_up = s
    return best_combo, best, runner_up


def _assert_bit_identical(inst):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # k > n warns
        res = decode_exhaustive(inst)
    assert (res.pattern.indices, res.score, res.runner_up_score) == _exact_loop(inst)
    assert res.candidates_scored == math.comb(inst.p, inst.k)


DEFECTS = ("none", "duplicate", "collinear", "tiny", "zero")


@st.composite
def decode_cases(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 9))
    k = draw(st.integers(1, p))  # covers k > n and p == k
    gen = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    entries = gen.standard_normal((n, p))
    defect = draw(st.sampled_from(DEFECTS))
    if defect == "duplicate" and p >= 2:
        entries[:, p - 1] = entries[:, 0]
    elif defect == "collinear" and p >= 3:
        entries[:, 2] = 0.7 * entries[:, 0] - 1.3 * entries[:, 1]
    elif defect == "tiny":
        entries[:, p // 2] *= 1e-7
    elif defect == "zero":
        entries[:, p // 2] = 0.0
    support = sorted(draw(st.sets(st.integers(0, p - 1), min_size=k, max_size=k)))
    values = gen.choice([-2.0, 0.5, 1.0, 3.0], size=k)
    y = entries[:, support] @ values
    if not draw(st.booleans()):  # noiseless half the time
        y = y + gen.standard_normal(n)
    design = DesignMatrix(entries=entries)
    signal = SparseSignal(pattern=make_pattern(support, p), values=values)
    return ProblemInstance(design=design, signal=signal, observation=y)


@given(inst=decode_cases())
@settings(max_examples=300, deadline=None)
def test_decode_equals_exact_loop_bit_for_bit(inst):
    _assert_bit_identical(inst)


def test_decode_equals_exact_loop_across_chunks():
    # C(15, 6) = 5005 candidates span two chunks; column 14 duplicates
    # column 0 of the noiseless truth, so near-ties straddle the boundary.
    assert math.comb(15, 6) > decoder.CHUNK_SIZE
    entries = np.array(gaussian_design(12, 15, seed=SEED).entries)
    entries[:, 14] = entries[:, 0]
    design = DesignMatrix(entries=entries)
    sig = flat_signal(make_pattern(range(6), 15), 1.0)
    y = synthesize_observation(design, sig, noise_seed=SEED, noiseless=True)
    _assert_bit_identical(ProblemInstance(design=design, signal=sig, observation=y))


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_decode_equals_exact_loop_for_any_chunk_size(chunk, monkeypatch):
    monkeypatch.setattr(decoder, "CHUNK_SIZE", chunk)
    for seed in range(5):
        _assert_bit_identical(_deficient_instance(seed, 0, 4, 1.0, [0, 5]))
        _assert_bit_identical(seeded_instance(seed, n=9, p=8, k=3))


def test_decode_rescores_only_a_handful_exactly(monkeypatch):
    calls = []
    exact = decoder._score_columns
    monkeypatch.setattr(decoder, "_score_columns",
                        lambda *a: calls.append(a[1]) or exact(*a))
    res = decode_exhaustive(seeded_instance(SEED, n=60, p=20, k=3))
    assert res.candidates_scored == 1140
    assert 2 <= len(calls) <= 10
