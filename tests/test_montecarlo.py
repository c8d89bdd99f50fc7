import numpy as np
import pytest

from supportlab.bounds import averaged_pairwise_bound
from supportlab.errors import BudgetError, ValidationError
from supportlab.montecarlo import (
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
    spec = pairwise_spec(wrong_pattern=(0, 1), trials=500)
    result = run_pairwise(spec)
    assert result.error_count == 0  # Z at the truth is identically 0, strictly


def test_pairwise_dominated_and_reproducible_across_seeds():
    for seed in (SEED, SEED + 999):
        spec = pairwise_spec(master_seed=seed, trials=10_000, level=0.99)
        result = run_pairwise(spec)
        assert result.wilson_low <= result.rate <= result.bound_value
        assert result.trials == 10_000
        assert result.rate == result.error_count / result.trials


def test_pairwise_prefix_reproducibility():
    short = pairwise_spec(trials=400)
    long = pairwise_spec(trials=800)
    a = pairwise_trial_outcomes(short)
    b = pairwise_trial_outcomes(long)
    assert np.array_equal(a, b[:400])


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


def test_spec_digest_tracks_content():
    a = pairwise_spec()
    b = pairwise_spec(master_seed=SEED + 1)
    assert a.digest() != b.digest()
    assert a.digest() == pairwise_spec().digest()


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
