import math
import threading
import tracemalloc

import numpy as np
import pytest

import supportlab.verify as verify
from supportlab.errors import DomainError, ValidationError


def _worst(result) -> float:
    return float(result.detail.split("=")[1])


def test_f_curve_check_passes_where_the_three_point_reference_failed():
    # At seed 116 a point has f' ~ 4e-4 beside |f| ~ 37; the former h=1e-5
    # central difference there carried a 1.4e-6 rounding error.
    res = verify.check_f_curve_derivatives(116, points=100)
    assert res.passed, res.detail
    assert _worst(res) < 1e-7


def test_f_curve_check_fails_with_the_published_constant(monkeypatch):
    # Negative control: the published f' carries 5/2 where the derivative
    # of f has 1/2, i.e. f' + 2.
    exact = verify.f_curve

    def published(d, n, p, k, b2):
        f, fp, fpp = exact(d, n, p, k, b2)
        return f, fp + 2.0, fpp

    monkeypatch.setattr(verify, "f_curve", published)
    for seed in (verify.DEFAULT_VERIFY_SEED, 116):
        res = verify.check_f_curve_derivatives(seed, points=100)
        assert not res.passed
        assert _worst(res) >= 1.5


# The nine checks in the published order, with the name each result carries.
PUBLISHED = [
    ("check_chernoff_constants", "chernoff-constants"),
    ("check_rate_relaxation", "rate-relaxation"),
    ("check_eigen_pairs", "eigen-pairs"),
    ("check_quadratic_identities", "quadratic-identities"),
    ("check_exact_mgf_sampling", "exact-mgf-vs-sampled"),
    ("check_chi_square_mgf", "chi-square-mgf"),
    ("check_chain_ordering", "chain-ordering"),
    ("check_f_curve_derivatives", "f-curve-derivatives"),
    ("check_curvature_boundary_max", "curvature-boundary-max"),
]


def _stub_checks(monkeypatch, raise_in=None):
    """Replace every check by a stub that records its name and calling thread;
    the check named ``raise_in`` raises a fresh exception, which is returned.
    Starting any thread fails the test."""
    calls = []
    error = RuntimeError("stub failure")

    def stub(attr, name):
        def check(*args, **kwargs):
            calls.append((attr, threading.current_thread()))
            if attr == raise_in:
                raise error
            return verify.CheckResult(name, True, attr)
        return check

    def start(thread):
        raise AssertionError(f"run_all started thread {thread.name!r}")

    for attr, name in PUBLISHED:
        monkeypatch.setattr(verify, attr, stub(attr, name))
    monkeypatch.setattr(threading.Thread, "start", start)
    return calls, error


def test_run_all_runs_each_check_once_and_keeps_the_published_order(monkeypatch):
    # Serially, on the calling thread: the stubs fail any thread start.
    calls, _ = _stub_checks(monkeypatch)
    results = verify.run_all(7)
    assert [r.name for r in results] == [name for _, name in PUBLISHED]
    assert [r.detail for r in results] == [attr for attr, _ in PUBLISHED]
    assert [attr for attr, _ in calls] == [attr for attr, _ in PUBLISHED]
    assert {thread for _, thread in calls} == {threading.current_thread()}


@pytest.mark.parametrize("raise_in", [
    "check_chernoff_constants", "check_eigen_pairs", "check_chi_square_mgf",
    "check_curvature_boundary_max",
])
def test_run_all_reraises_a_check_exception_unchanged(monkeypatch, raise_in):
    # The same exception object reaches the caller, and no later check runs.
    calls, error = _stub_checks(monkeypatch, raise_in=raise_in)
    with pytest.raises(RuntimeError) as info:
        verify.run_all(7)
    assert info.value is error
    order = [attr for attr, _ in PUBLISHED]
    assert [attr for attr, _ in calls] == order[: order.index(raise_in) + 1]


def test_run_all_checks_the_seed_before_any_check(monkeypatch):
    calls, _ = _stub_checks(monkeypatch)
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="master seed must be in"):
            verify.run_all(seed)
    assert calls == []


@pytest.mark.parametrize("seed", [0, 1, 116, 199])
def test_all_nine_checks_pass_at_other_seeds(seed):
    results = verify.run_all(seed)
    assert [r.name for r in results] == [name for _, name in PUBLISHED]
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_exact_mgf_check_fails_when_the_exact_value_is_off_by_1e_8(monkeypatch):
    exact = verify.exact_quadratic_log_mgf
    monkeypatch.setattr(verify, "exact_quadratic_log_mgf",
                        lambda *args: exact(*args) * (1.0 + 1e-8))
    res = verify.check_exact_mgf_sampling()
    assert res.name == "exact-mgf-vs-sampled"
    assert not res.passed
    assert _worst(res) > 1e-9


def test_chi_square_check_fails_with_one_degree_of_freedom_too_many(monkeypatch):
    exact = verify.chi_square_log_mgf
    monkeypatch.setattr(verify, "chi_square_log_mgf", lambda t, dof: exact(t, dof + 1))
    res = verify.check_chi_square_mgf()
    assert res.name == "chi-square-mgf"
    assert not res.passed


@pytest.mark.parametrize("a, nu", [
    (0.1, 0.0), (-0.3, 2.5), (0.4, 0.0), (verify.CHERNOFF_T_STAR, -4.0), (-0.4, 10.0),
    (0.25, -3.0), (-0.05, 20.0),
])
def test_quadrature_matches_the_closed_form(a, nu):
    # E exp(a (nu + e)^2) = (1 - 2a)^(-1/2) exp(a nu^2 / (1 - 2a)).
    closed = -0.5 * math.log1p(-2.0 * a) + a * nu * nu / (1.0 - 2.0 * a)
    quad = float(verify.quadrature_log_mgf(np.array([a]), np.array([nu])))
    assert abs(quad - closed) <= 1e-13 * max(abs(closed), 1.0)


def test_quadrature_sums_over_the_last_axis():
    a = np.array([[0.1, -0.2, 0.0], [0.05, 0.3, -0.4]])
    nu = np.array([1.0, -2.0, 3.0])
    closed = np.sum(-0.5 * np.log1p(-2.0 * a) + a * nu * nu / (1.0 - 2.0 * a), axis=-1)
    np.testing.assert_allclose(verify.quadrature_log_mgf(a, nu), closed, rtol=1e-13)


@pytest.mark.parametrize("a, nu", [
    (0.45, 0.0), (-0.45, 0.0), (0.41, 0.0), (math.nan, 0.0),  # |a| above 0.4
    # The tilted law reaches past its nodes: each of these is 2e-11 to 1e-6
    # off the closed form, above the checks' 1e-10.
    (0.4, 2.0), (verify.CHERNOFF_T_STAR, 32.0), (-0.4, 32.0),
])
def test_quadrature_rejects_inputs_beyond_its_accurate_range(a, nu):
    with pytest.raises(DomainError, match="quadrature needs"):
        verify.quadrature_log_mgf(np.array([0.1, a]), np.array([0.0, nu]))


@pytest.mark.parametrize("block", [verify.SAMPLE_BLOCK, 1000, 999_999])
def test_chernoff_grid_in_blocks_equals_one_argmin_over_the_grid(monkeypatch, block):
    # The block scan keeps numpy's first minimum over the whole grid; the
    # detail's t_err moves by ~1e-6 per grid step, so it pins the index.
    monkeypatch.setattr(verify, "SAMPLE_BLOCK", block)
    ts = np.linspace(-0.5 + 1e-6, 0.5 - 1e-6, 1_000_000)
    vals = 2.0 * ts * ts / (1.0 - 2.0 * ts) - ts
    i = int(np.argmin(vals))
    expected = (f"min_err={abs(vals[i] - verify.CHERNOFF_MIN):.3e} "
                f"t_err={abs(ts[i] - verify.CHERNOFF_T_STAR):.3e} c_err=0.000e+00")
    assert verify.check_chernoff_constants().detail == expected


@pytest.mark.parametrize("block", [verify.SAMPLE_BLOCK, 1000, 999_999])
def test_grid_slices_join_to_linspace_bit_for_bit(block):
    # 999 999 leaves a short final slice that holds the endpoint.
    lo, hi, num = verify.CHERNOFF_GRID
    slices = [verify._grid_slice(lo, hi, num, start, min(start + block, num))
              for start in range(0, num, block)]
    assert np.array_equal(np.concatenate(slices), np.linspace(lo, hi, num))


def _peak_mb(check) -> float:
    """Peak of the memory traced while ``check`` runs (numpy reports its buffers)."""
    tracemalloc.start()
    tracemalloc.reset_peak()
    try:
        check()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("check, budget_mb", [
    (verify.check_chernoff_constants, 2.0),
    (verify.check_exact_mgf_sampling, 2.0),
    (verify.check_chi_square_mgf, 2.0),
    (verify.run_all, 4.0),
])
def test_verify_working_memory_stays_within_its_budget(check, budget_mb):
    # A 10**6-point grid or a 10**6-row sample held whole would take 8 MB or more.
    assert _peak_mb(check) < budget_mb
