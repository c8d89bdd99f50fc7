import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supportlab import cli, montecarlo, rng
from supportlab.bounds import averaged_pairwise_bound
from supportlab.decoder import DEFAULT_CANDIDATE_BUDGET, DecodeResult
from supportlab.errors import BudgetError, ValidationError
from supportlab.model import DesignMatrix, build_projector, gaussian_design, pattern_count
from supportlab.montecarlo import (
    BLOCK,
    ExperimentSpec,
    pairwise_trial_outcomes,
    recovery_trial_outcomes,
    run_full_recovery,
    run_pairwise,
    sweep,
    wilson_interval,
)

SEED = 777


def pairwise_spec(**kw):
    base = dict(
        n=8, p=12, k=2, trials=2000, master_seed=SEED, target="pairwise",
        design_mode="fixed", beta_min=1.0, wrong_pattern=(1, 2),
    )
    base.update(kw)
    return ExperimentSpec(**base)


def recovery_spec(**kw):
    base = dict(
        n=10, p=8, k=2, trials=200, master_seed=SEED, target="recovery",
        design_mode="fresh", beta_min=1.0,
    )
    base.update(kw)
    return ExperimentSpec(**base)


# ----------------------------------------------------------------- wilson


def test_wilson_edges():
    assert wilson_interval(0, 50, 0.95)[0] == 0.0
    assert wilson_interval(50, 50, 0.95)[1] == 1.0


def test_wilson_frozen_value():
    low, high = wilson_interval(5, 100, 0.95)
    # Independent evaluation of the score interval with z = Phi^{-1}(0.975).
    assert low == pytest.approx(0.02154367915436796, abs=1e-9)
    assert high == pytest.approx(0.11175046923191913, abs=1e-9)
    # spec'd looser anchors
    assert low == pytest.approx(0.0215, abs=1e-3)
    assert high == pytest.approx(0.1118, abs=1e-3)


def test_wilson_orders_and_contains_rate():
    for errors, trials in [(0, 10), (3, 17), (17, 17), (250, 1000)]:
        low, high = wilson_interval(errors, trials, 0.95)
        assert 0.0 <= low <= errors / trials <= high <= 1.0


def test_wilson_validation():
    with pytest.raises(ValidationError):
        wilson_interval(5, 4, 0.95)
    with pytest.raises(ValidationError):
        wilson_interval(-1, 4, 0.95)
    with pytest.raises(ValidationError):
        wilson_interval(1, 4, 1.0)


# ----------------------------------------------------------------- pairwise


def test_pairwise_at_truth_never_errors():
    # Z at the truth is identically 0, strictly, and the bound is vacuous.
    # Fresh-design mode has no coincidence check: its Z_F comes out exactly 0.
    for mode in ("fixed", "fresh"):
        result = run_pairwise(pairwise_spec(wrong_pattern=(0, 1), trials=500, design_mode=mode))
        assert result.error_count == 0
        assert result.bound_value == 1.0


def test_pairwise_dominated_and_reproducible_across_seeds():
    for seed in (SEED, SEED + 999):
        spec = pairwise_spec(master_seed=seed, trials=10_000, level=0.99)
        result = run_pairwise(spec)
        assert result.wilson_low <= result.rate <= result.bound_value
        assert result.trials == 10_000
        assert result.rate == result.error_count / result.trials


def test_pairwise_prefix_reproducibility():
    # Also across a block edge, in both design modes.
    for n_short, n_long, mode in [(400, 800, "fixed"), (BLOCK - 3, BLOCK + 10, "fixed"),
                                  (BLOCK - 3, BLOCK + 10, "fresh")]:
        short = pairwise_spec(trials=n_short, design_mode=mode)
        long = pairwise_spec(trials=n_long, design_mode=mode)
        a = pairwise_trial_outcomes(short)
        b = pairwise_trial_outcomes(long)
        assert np.array_equal(a, b[:n_short])


def test_pairwise_fresh_design_mode():
    spec = pairwise_spec(design_mode="fresh", trials=3000, level=0.99)
    result = run_pairwise(spec)
    d = 1
    expected = averaged_pairwise_bound(8, 2, d, 1.0).probability
    assert result.bound_value == pytest.approx(expected, rel=1e-12)
    assert result.wilson_low <= result.bound_value


def test_pairwise_requires_wrong_pattern():
    with pytest.raises(ValidationError):
        pairwise_spec(wrong_pattern=None).validate()
    with pytest.raises(ValidationError):
        pairwise_spec(random_true_pattern=True).validate()


@pytest.mark.parametrize("mode, noiseless", [("fixed", False), ("fresh", False), ("fixed", True)])
def test_library_pairwise_run_names_an_overflowed_statistic(mode, noiseless):
    # Called as a library, outside the CLI's errstate: under the test config's
    # error::RuntimeWarning a numpy overflow warning would surface instead.
    spec = ExperimentSpec(n=8, p=10, k=2, trials=5, master_seed=0, target="pairwise",
                          design_mode=mode, noiseless=noiseless, wrong_pattern=(2, 3),
                          beta_values=(1e300, 1e300))
    with pytest.raises(ValidationError, match="Z_F overflows double precision"):
        run_pairwise(spec)


@pytest.mark.parametrize("wrong, beta", [((1, 2), None), ((2, 3), (0.6, -1.1)), ((0, 5), None)])
def test_fixed_design_outcomes_follow_a_dense_quadratic_form(wrong, beta):
    # Each trial errs exactly when y^T (Pi_F - Pi_T) y > 0, with Pi_T and
    # Pi_F dense n x n projectors from the normal equations and y rebuilt from
    # the trial's own noise stream.  Near-ties are skipped.
    spec = pairwise_spec(trials=600, wrong_pattern=wrong, beta_values=beta, beta_min=0.6)
    entries = gaussian_design(spec.n, spec.p, SEED).entries
    xt = entries[:, list(spec.true_support().indices)]
    xf = entries[:, list(spec.wrong_support().indices)]
    psi = (xf @ np.linalg.solve(xf.T @ xf, xf.T)) - (xt @ np.linalg.solve(xt.T @ xt, xt.T))
    mean = xt @ spec.signal_on(spec.true_support()).values
    outcomes = pairwise_trial_outcomes(spec)
    checked = 0
    for i, erred in enumerate(outcomes):
        y = mean + rng.stream(SEED, rng.KIND_NOISE, i).standard_normal(spec.n)
        z = float(y @ psi @ y)
        if abs(z) >= 1e-9:
            assert erred == (z > 0.0)
            checked += 1
    assert checked > 590
    assert 0 < outcomes.sum() < spec.trials


@pytest.mark.parametrize("make", [pairwise_spec, recovery_spec])
def test_true_pattern_must_have_k_indices(make):
    with pytest.raises(ValidationError, match="true pattern has 1 indices, need k=2"):
        make(true_pattern=(4,)).validate()


def test_spec_digest_tracks_content():
    a = pairwise_spec()
    b = pairwise_spec(master_seed=SEED + 1)
    assert a.digest() != b.digest()
    assert a.digest() == pairwise_spec().digest()


# ------------------------------------------------------------ trial blocks


def _loop_pairwise(spec, design0=None):
    """The per-trial loop the block path replaced: one fresh generator per
    trial and stream, Z_F from the trial's own projector bases.  A fixed
    design whose col(X_F) equals col(X_T) errs in no trial."""
    t_patt, f_patt = spec.true_support(), spec.wrong_support()
    signal = spec.signal_on(t_patt)
    out = np.zeros(spec.trials, dtype=bool)
    for i in range(spec.trials):
        if i == 0 or spec.design_mode == "fresh":
            if i == 0 and design0 is not None:
                design = design0
            else:
                entries = rng.stream(spec.master_seed, rng.KIND_DESIGN, i).standard_normal(
                    (spec.n, spec.p))
                design = DesignMatrix(entries=entries)
            qt = build_projector(design, t_patt)
            qf = build_projector(design, f_patt)
            if spec.design_mode == "fixed":
                union = np.linalg.matrix_rank(np.hstack([qt, qf]))
                if union == qt.shape[1] == qf.shape[1]:
                    return out
            mean = design.submatrix(t_patt) @ signal.values
        noise = (np.zeros(spec.n) if spec.noiseless
                 else rng.stream(spec.master_seed, rng.KIND_NOISE, i).standard_normal(spec.n))
        y = mean + noise
        z = float(np.sum((qf.T @ y) ** 2) - np.sum((qt.T @ y) ** 2))
        out[i] = z > 0.0
    return out


def _with_defect(design, defect):
    """The seeded fixed design with duplicated, collinear or zero columns."""
    entries = np.array(design.entries)
    if defect == "duplicate":
        entries[:, 2] = entries[:, 0]
    elif defect == "collinear":
        entries[:, 2] = 0.7 * entries[:, 0] - 1.3 * entries[:, 1]
    elif defect == "zero":
        entries[:, 1] = 0.0
    elif defect == "twins":  # col(X_{2,3}) = col(X_{0,1})
        entries[:, 2:4] = entries[:, 0:2]
    return DesignMatrix(entries=entries)


def _assert_blocks_equal_loop(spec, defect="none"):
    design0 = _with_defect(gaussian_design(spec.n, spec.p, spec.master_seed), defect)
    with mock.patch.object(montecarlo, "gaussian_design", lambda *a: design0):
        got = pairwise_trial_outcomes(spec)
    assert np.array_equal(got, _loop_pairwise(spec, design0))


@st.composite
def pairwise_cases(draw):
    k = draw(st.integers(1, 3))
    p = draw(st.integers(max(k + 1, 4), 8))
    mode = draw(st.sampled_from(["fixed", "fresh"]))
    n = draw(st.integers(k + 1 if mode == "fresh" else 1, 10))
    truth = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=k, max_size=k))))
    wrong = tuple(sorted(draw(st.sets(st.integers(0, p - 1), min_size=k, max_size=k))))
    beta = draw(st.one_of(st.none(), st.lists(
        st.sampled_from([-2.0, -0.3, 0.5, 1.0, 4.0]), min_size=k, max_size=k).map(tuple)))
    spec = ExperimentSpec(
        n=n, p=p, k=k, trials=draw(st.integers(1, 40)),
        master_seed=draw(st.integers(0, 2**64 - 1)), target="pairwise", design_mode=mode,
        beta_min=draw(st.sampled_from([0.2, 1.0, 3.0])), beta_values=beta,
        true_pattern=truth, wrong_pattern=wrong, noiseless=draw(st.booleans()),
    )
    defect = "none" if mode == "fresh" else draw(
        st.sampled_from(["none", "duplicate", "collinear", "zero", "twins"]))
    return spec, defect


@given(case=pairwise_cases(), block=st.integers(1, 9), budget=st.integers(1, 200))
@settings(max_examples=150, deadline=None)
def test_pairwise_blocks_equal_the_per_trial_loop(case, block, budget):
    spec, defect = case
    with mock.patch.object(montecarlo, "BLOCK", block), \
            mock.patch.object(montecarlo, "BLOCK_ELEMENTS", budget):
        _assert_blocks_equal_loop(spec, defect)


@pytest.mark.parametrize("trials", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
@pytest.mark.parametrize("mode", ["fixed", "fresh"])
def test_pairwise_blocks_equal_the_loop_at_block_edges(trials, mode):
    spec = pairwise_spec(trials=trials, design_mode=mode, beta_min=0.7)
    _assert_blocks_equal_loop(spec)


def test_block_memory_is_bounded_by_the_element_budget():
    spans = list(montecarlo._blocks(10_000, 500))
    assert all(stop - start == montecarlo.BLOCK_ELEMENTS // 500 for start, stop in spans[:-1])
    assert list(montecarlo._blocks(3, montecarlo.BLOCK_ELEMENTS * 4)) == [(0, 1), (1, 2), (2, 3)]
    assert list(montecarlo._blocks(BLOCK + 1, 1)) == [(0, BLOCK), (BLOCK, BLOCK + 1)]


def test_recovery_blocks_equal_the_per_trial_loop():
    spec = recovery_spec(n=6, p=6, k=2, trials=23, beta_min=0.8, random_true_pattern=True)
    want = []
    for i in range(spec.trials):
        idx = rng.stream(SEED, rng.KIND_PATTERN, i).choice(6, size=2, replace=False)
        t_patt = montecarlo.make_pattern([int(j) for j in idx], 6)
        entries = rng.stream(SEED, rng.KIND_DESIGN, i).standard_normal((6, 6))
        y = entries[:, list(t_patt.indices)] @ np.full(2, 0.8)
        y = y + rng.stream(SEED, rng.KIND_NOISE, i).standard_normal(6)
        inst = montecarlo.ProblemInstance(
            design=DesignMatrix(entries=entries), signal=spec.signal_on(t_patt), observation=y)
        want.append(montecarlo.decode_exhaustive(inst).pattern.indices != t_patt.indices)
    with mock.patch.object(montecarlo, "BLOCK", 5):
        got = recovery_trial_outcomes(spec)
    assert np.array_equal(got, want)
    assert 0 < got.sum() < spec.trials


# ------------------------------------------- coinciding column spaces


@pytest.mark.parametrize("seed", range(10))
def test_pairwise_n_at_most_k_never_errs(seed):
    # n <= k: col(X_T) = col(X_F) = R^n, so Z_F is identically zero.
    for n in (1, 2):
        spec = pairwise_spec(n=n, p=4, k=2, wrong_pattern=(2, 3), trials=1000, master_seed=seed)
        assert run_pairwise(spec).error_count == 0


def test_pairwise_duplicated_column_wrong_support_never_errs():
    # X_2 = X_0 makes col(X_{1,2}) = col(X_{0,1}): Z_F is identically zero.
    spec = pairwise_spec(n=8, p=6, k=2, wrong_pattern=(1, 2), trials=3000)
    design0 = _with_defect(gaussian_design(8, 6, SEED), "duplicate")
    with mock.patch.object(montecarlo, "gaussian_design", lambda *a: design0):
        assert not pairwise_trial_outcomes(spec).any()
    # Without the duplicate the same F errs in some trials.
    assert pairwise_trial_outcomes(spec).any()


# -------------------------------------------------------------- full recovery


def test_recovery_noiseless_always_recovers():
    spec = recovery_spec(n=8, p=10, k=2, trials=100, noiseless=True)
    result = run_full_recovery(spec)
    assert result.error_count == 0


def test_recovery_dominated_by_union_bound():
    spec = recovery_spec(n=20, p=8, k=2, trials=400, level=0.99)
    result = run_full_recovery(spec)
    assert result.wilson_low <= result.bound_value


def test_recovery_k_equals_p_single_candidate():
    # Degenerate p == k: one candidate support, declared every trial.
    spec = recovery_spec(n=6, p=2, k=2, trials=50)
    result = run_full_recovery(spec)
    assert result.error_count == 0
    assert result.bound_value == 0.0
    # pairwise still needs room for a wrong support
    with pytest.raises(ValidationError):
        pairwise_spec(p=2, k=2, wrong_pattern=(0, 1)).validate()


def test_recovery_random_true_pattern():
    spec = recovery_spec(trials=150, noiseless=True, random_true_pattern=True)
    result = run_full_recovery(spec)
    assert result.error_count == 0
    outcomes = recovery_trial_outcomes(spec)
    assert outcomes.shape == (150,)


def test_recovery_budget_error():
    spec = recovery_spec(p=30, k=6, n=12)
    with pytest.raises(BudgetError, match=r"C\(30,6\)"):
        run_full_recovery(spec, max_candidates=1000)


def test_recovery_passes_the_candidate_cap_to_every_decode(monkeypatch):
    # C(30, 8) = 5 852 925 is above the default budget, so a cap raised past
    # it must reach each decode, not only the check made before the trials.
    # The spy stands in for the decode: a real one of that size is too slow.
    caps = []

    def spy(inst, max_candidates=DEFAULT_CANDIDATE_BUDGET):
        caps.append(max_candidates)
        return DecodeResult(pattern=inst.true_pattern, score=0.0, runner_up_score=0.0,
                            candidates_scored=pattern_count(inst.p, inst.k))

    monkeypatch.setattr(montecarlo, "decode_exhaustive", spy)
    assert pattern_count(30, 8) > DEFAULT_CANDIDATE_BUDGET
    result = run_full_recovery(recovery_spec(n=40, p=30, k=8, trials=3),
                               max_candidates=6_000_000)
    assert (result.trials, result.error_count) == (3, 0)
    assert caps == [6_000_000] * 3
    caps.clear()
    assert cli.main(["mc", "recover", "--n", "40", "--p", "30", "--k", "8",
                     "--trials", "2", "--cap-candidates", "6000000",
                     "--out", os.devnull]) == 0
    assert caps == [6_000_000] * 2


def test_recovery_rejects_fixed_design():
    with pytest.raises(ValidationError):
        recovery_spec(design_mode="fixed").validate()


@pytest.mark.parametrize("spec", [
    recovery_spec(n=3, p=8, k=3),
    pairwise_spec(n=2, k=2, design_mode="fresh"),
])
def test_bound_needing_n_above_k_is_checked_by_validate(spec):
    with pytest.raises(ValidationError, match=r"need n > k, got n=\d, k="):
        spec.validate()


@pytest.mark.parametrize("spec", [
    recovery_spec(n=2, p=3, k=3, trials=5),  # p == k: no bound to evaluate
    pairwise_spec(n=2, k=2, wrong_pattern=(1, 2)),  # fixed design: conditional bound
    pairwise_spec(n=2, k=2, design_mode="fresh", wrong_pattern=(0, 1)),  # F == T
])
def test_n_at_most_k_is_allowed_where_no_bound_needs_it(spec):
    spec.validate()


# ----------------------------------------------------- ensemble conditioning


def test_fixed_design_rates_average_below_ensemble_bound():
    # Average the fixed-design pairwise rate over 200 fresh designs; the mean
    # must fall below the design-averaged bound.
    n, p, k = 12, 6, 1
    bound = averaged_pairwise_bound(n, k, 1, 1.0).probability
    rates = []
    for i in range(200):
        spec = ExperimentSpec(
            n=n, p=p, k=k, trials=100, master_seed=SEED + i, target="pairwise",
            design_mode="fixed", beta_min=1.0, wrong_pattern=(1,),
        )
        rates.append(run_pairwise(spec).rate)
    assert float(np.mean(rates)) <= bound


# --------------------------------------------------------------------- sweep


def test_sweep_preserves_order_and_reports_row_errors():
    specs = [
        pairwise_spec(n=8, trials=300),
        pairwise_spec(n=0, trials=300),  # invalid point
        pairwise_spec(n=16, trials=300),
    ]
    rows = sweep(specs)
    assert len(rows) == 3
    assert rows[0].result is not None and rows[0].error is None
    assert rows[1].result is None and "n >= 1" in rows[1].error
    assert rows[2].result is not None


def test_sweep_empty_grid():
    assert sweep([]) == []


def test_sweep_rates_nonincreasing_in_n_up_to_ci_overlap():
    specs = [pairwise_spec(n=n, trials=4000, level=0.95) for n in (6, 8, 10, 12, 16)]
    rows = sweep(specs)
    results = [r.result for r in rows]
    for a, b in zip(results, results[1:]):
        assert (b.rate <= a.rate) or (b.wilson_low <= a.wilson_high)


def test_sweep_deterministic():
    specs = [pairwise_spec(n=n, trials=500) for n in (6, 10)]
    assert sweep(specs) == sweep(specs)


# ---------------------------------------------------------------- streams


def test_master_seed_must_fit_in_64_bits():
    from supportlab import rng

    for bad in (-1, 1 << 64):
        with pytest.raises(ValidationError, match=r"\[0, 2\*\*64\)"):
            rng.stream(bad, rng.KIND_NOISE)
        with pytest.raises(ValidationError):
            run_pairwise(pairwise_spec(master_seed=bad, trials=10))
    top = rng.stream((1 << 64) - 1, rng.KIND_NOISE).standard_normal(3)
    assert not np.array_equal(top, rng.stream(0, rng.KIND_NOISE).standard_normal(3))
