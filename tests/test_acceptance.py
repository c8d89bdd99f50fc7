"""Acceptance gate.

One test per criterion, each printing a single pass/fail line (run with
``pytest tests/test_acceptance.py -v -s``).  Tolerances and runtime limits
are pinned here and nowhere else.
"""

import math
import time

import numpy as np

from supportlab.bounds import (
    CHERNOFF_C,
    CHERNOFF_T_STAR,
    REGIMES,
    convexity_condition,
    curvature_condition,
    chi_square_log_mgf,
    exact_quadratic_log_mgf,
    f_curve,
    regime_table,
    union_error_bound_closed_form,
    union_error_bound_sum,
)
from supportlab.cli import main as cli_main
from supportlab.decoder import decode_exhaustive
from supportlab.errors import PreconditionError
from supportlab.model import (
    DesignMatrix,
    ProblemInstance,
    SparseSignal,
    build_projector,
    flat_signal,
    gaussian_design,
    make_pattern,
    synthesize_observation,
)
from supportlab.montecarlo import ExperimentSpec, run_full_recovery, run_pairwise
from supportlab import rng
from supportlab.verify import (
    check_chain_ordering,
    check_chernoff_constants,
    check_chi_square_mgf,
    check_eigen_pairs,
    check_exact_mgf_sampling,
    check_f_curve_derivatives,
    check_quadratic_identities,
)

SEED = 90210


def _sampled_log_mgf(gen, samples: int, dim: int, statistic, t: float) -> float:
    """log of the mean of exp(t * statistic(x)) over ``samples`` standard-normal
    rows x of length ``dim``, drawn from ``gen`` 8192 rows at a time (the rows
    of one (samples, dim) draw); ``statistic`` may overwrite the block."""
    total = 0.0
    for start in range(0, samples, 1 << 13):
        count = min(1 << 13, samples - start)
        total += float(np.sum(np.exp(t * statistic(gen.standard_normal((count, dim))))))
    return math.log(total / samples)


def sampled_exact_mgf(seed: int, samples: int = 1_000_000):
    """(exact, sampled, rel): the exact log-MGF at t* against the sampled mean of
    exp(t* Z), n=6, p=4, k=2, design from stream 103 and noise from stream 104."""
    gen = rng.stream(seed, 103)
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

    def z(noise):
        ys = np.add(noise, mu, out=noise)
        return np.sum((ys @ qf) ** 2, axis=1) - np.sum((ys @ qt) ** 2, axis=1)

    sampled = _sampled_log_mgf(rng.stream(seed, 104), samples, n, z, t)
    return exact, sampled, abs(sampled - exact) / abs(exact)


def sampled_chi_square_mgf(seed: int, samples: int = 1_000_000, dof: int = 11):
    """(exact, sampled, rel): the chi-square log-MGF at t = -c against the
    sampled mean of exp(tW), noise from stream 105."""
    t = -CHERNOFF_C
    exact = chi_square_log_mgf(t, dof)
    sampled = _sampled_log_mgf(
        rng.stream(seed, 105), samples, dof,
        lambda noise: np.sum(np.square(noise, out=noise), axis=1), t,
    )
    return exact, sampled, abs(sampled - exact) / abs(exact)


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance] C{num:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line, flush=True)
    assert ok, line


def test_c01_chernoff_constants():
    t0 = time.perf_counter()
    res = check_chernoff_constants()
    elapsed = time.perf_counter() - t0
    report(1, "chernoff-constants", res.passed and elapsed < 1.0,
           f"{res.detail}, {elapsed:.2f}s")


def test_c02_eigen_pair_structure():
    t0 = time.perf_counter()
    res = check_eigen_pairs(SEED, instances=100)
    elapsed = time.perf_counter() - t0
    report(2, "eigen-pair-structure", res.passed and elapsed < 10.0,
           f"{res.detail}, {elapsed:.2f}s")


def test_c03_quadratic_identities():
    res = check_quadratic_identities(SEED, instances=100)
    report(3, "quadratic-identities", res.passed, res.detail)


def test_c04_exact_mgf_vs_sampling():
    t0 = time.perf_counter()
    res = check_exact_mgf_sampling(SEED)
    exact, sampled, rel = sampled_exact_mgf(SEED, samples=1_000_000)
    elapsed = time.perf_counter() - t0
    report(4, "exact-mgf-vs-sampling", res.passed and rel < 0.02 and elapsed < 60.0,
           f"{res.detail}; exact={exact:.6f} sampled={sampled:.6f} rel={rel:.4f}, "
           f"{elapsed:.2f}s")


def test_c05_chain_ordering():
    res = check_chain_ordering(SEED, instances=100, t_points=25)
    report(5, "chain-ordering", res.passed, res.detail)


def test_c06_conditional_bound_domination():
    t0 = time.perf_counter()
    details = []
    ok = True
    for wrong in [(1, 2), (2, 3)]:  # overlap deficits 1 and 2 against T={0,1}
        spec = ExperimentSpec(
            n=8, p=12, k=2, trials=100_000, master_seed=SEED, target="pairwise",
            design_mode="fixed", beta_min=1.0, wrong_pattern=wrong, level=0.99,
        )
        result = run_pairwise(spec)
        ok = ok and result.wilson_low <= result.bound_value
        details.append(f"d={2 - len(set(wrong) & {0, 1})}: "
                       f"low={result.wilson_low:.4f} bound={result.bound_value:.4f}")
    elapsed = time.perf_counter() - t0
    report(6, "conditional-bound-domination", ok and elapsed < 60.0,
           "; ".join(details) + f", {elapsed:.1f}s")


def test_c07_averaged_bound_domination():
    spec = ExperimentSpec(
        n=12, p=6, k=1, trials=10_000, master_seed=SEED, target="pairwise",
        design_mode="fresh", beta_min=1.0, wrong_pattern=(1,), level=0.99,
    )
    result = run_pairwise(spec)
    dominated = result.wilson_low <= result.bound_value
    mgf = check_chi_square_mgf(dof=11)
    exact, sampled, rel = sampled_chi_square_mgf(SEED, samples=1_000_000, dof=11)
    report(7, "averaged-bound-domination", dominated and mgf.passed and rel < 0.01,
           f"low={result.wilson_low:.4f} bound={result.bound_value:.4f}; {mgf.detail}; "
           f"exact={exact:.6f} sampled={sampled:.6f} rel={rel:.4f}")


def test_c08_union_bound_domination_and_closed_form():
    t0 = time.perf_counter()
    spec = ExperimentSpec(
        n=40, p=12, k=2, trials=10_000, master_seed=SEED, target="recovery",
        design_mode="fresh", beta_min=1.0, level=0.99,
    )
    result = run_full_recovery(spec)
    dominated = result.wilson_low <= result.bound_value

    gen = rng.stream(SEED, 400)
    checked = 0
    majorized = True
    while checked < 200:
        k = int(gen.integers(1, 9))
        p = int(gen.integers(2 * k + 1, 8 * k + 40))
        b2 = float(np.exp(gen.uniform(math.log(0.2), math.log(8.0))))
        big_c = float(gen.uniform(5.5, 12.0))
        n = k + int(gen.integers(1, 4000))
        try:
            closed = union_error_bound_closed_form(n, p, k, b2, big_c)
        except PreconditionError:
            continue
        checked += 1
        total = union_error_bound_sum(n, p, k, b2)
        majorized = majorized and total.log_bound <= closed.log_bound + 1e-12
    elapsed = time.perf_counter() - t0
    report(8, "union-bound-domination", dominated and majorized and elapsed < 600.0,
           f"rate={result.rate:.4f} low={result.wilson_low:.4f} "
           f"bound={result.bound_value:.4f}; closed>=sum on {checked} pts, {elapsed:.1f}s")


def test_c09_convexity_and_boundary_max():
    # 1000 random points satisfying the convexity precondition.  Points are
    # sampled from the exact curvature region, every one of which satisfies
    # the published inequality as well (the exact threshold dominates it);
    # the published inequality alone is NOT sufficient, see the negative
    # control in test_bounds.
    gen = rng.stream(SEED, 401)
    count = 0
    ok = True
    while count < 1000:
        k = int(gen.integers(1, 65))
        p = int(gen.integers(2 * k + 1, 6 * k + 50))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(10.0))))
        lo = (1.0 + 2.0 * CHERNOFF_C * b2) ** 2 / (CHERNOFF_C**2 * b2 * b2)
        lo = max(lo, (1.0 + 2.0 * CHERNOFF_C * k * b2) ** 2 / (k * CHERNOFF_C**2 * b2 * b2))
        n = k + int(math.ceil(lo * float(gen.uniform(1.001, 5.0))))
        if not curvature_condition(n, k, b2):
            continue
        count += 1
        ok = ok and convexity_condition(n, k, b2)
        dgrid = np.linspace(1.0, float(k), 100) if k > 1 else np.array([1.0])
        ok = ok and all(f_curve(float(d), n, p, k, b2)[2] > 0 for d in dgrid)
        vals = [f_curve(float(d), n, p, k, b2)[0] for d in range(1, k + 1)]
        ok = ok and (int(np.argmax(vals)) + 1 in (1, k))
        if not ok:
            break
    report(9, "convexity-boundary-max", ok, f"{count} points, k up to 64")


def test_c10_f_curve_finite_differences():
    res = check_f_curve_derivatives(SEED, points=100)
    report(10, "f-curve-derivatives", res.passed, res.detail)


def test_c11_noiseless_exact_recovery():
    hits = 0
    for seed in range(100):
        design = gaussian_design(8, 10, seed=seed)
        sig = flat_signal(make_pattern([0, 1], 10), 1.0)
        y = synthesize_observation(design, sig, noise_seed=seed, noiseless=True)
        inst = ProblemInstance(design=design, signal=sig, observation=y)
        hits += decode_exhaustive(inst).pattern.indices == (0, 1)
    report(11, "noiseless-exact-recovery", hits == 100, f"{hits}/100 recovered")


def test_c12_regime_growth_rates():
    t0 = time.perf_counter()
    p_grid = [2**e for e in range(6, 13)]
    ok = True
    worst = []
    for name in REGIMES:
        rows = regime_table(name, p_grid, C=9.0)
        top = [r for r in rows if r.p >= 2**11]
        s_var = max(r.sufficient_ratio for r in top) / min(r.sufficient_ratio for r in top)
        n_var = max(r.necessary_ratio for r in top) / min(r.necessary_ratio for r in top)
        gaps = [r.sufficient_n / r.necessary_n for r in rows]
        spread = max(gaps) / min(gaps)
        ok = ok and s_var < 1.25 and n_var < 1.25 and spread <= 2.0
        worst.append(f"{name}: s={100 * (s_var - 1):.1f}% n={100 * (n_var - 1):.1f}% "
                     f"gap-spread={spread:.2f}")
    elapsed = time.perf_counter() - t0
    report(12, "regime-growth-rates", ok and elapsed < 10.0,
           "; ".join(worst) + f", {elapsed:.2f}s")


def test_c13_worker_count_determinism(tmp_path):
    files = []
    for workers in ("1", "4"):
        out = tmp_path / f"mc_w{workers}.csv"
        code = cli_main(["mc", "pairwise", "--n", "8", "--p", "12", "--k", "2",
                         "--seed", "41", "--wrong", "2,3", "--trials", "20000",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    mc_same = files[0] == files[1]
    files = []
    for workers in ("1", "3"):
        out = tmp_path / f"sweep_w{workers}.csv"
        code = cli_main(["sweep", "--target", "pairwise", "--p", "10", "--k", "2",
                         "--seed", "41", "--wrong", "2,3", "--trials", "4000",
                         "--vary", "n", "--values", "6,9,12",
                         "--workers", workers, "--out", str(out)])
        assert code == 0
        files.append(out.read_bytes())
    sweep_same = files[0] == files[1]
    report(13, "worker-count-determinism", mc_same and sweep_same,
           f"mc bytes equal: {mc_same}; sweep bytes equal: {sweep_same}")
