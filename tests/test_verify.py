import threading
import time

import numpy as np
import pytest

import supportlab.verify as verify
from supportlab.errors import ValidationError


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

    The chi-square stub returns only after the calling thread's last check has
    run (or raised), and a little later still, so a serial ``run_all`` fails
    its wait and one that does not join its helper finds no result."""
    calls = []
    error = RuntimeError("stub failure")
    main_done = threading.Event()

    def stub(attr, name):
        def check(*args, **kwargs):
            calls.append((attr, threading.current_thread()))
            if attr == "check_chi_square_mgf":
                assert main_done.wait(timeout=5), "chi-square check ran alone"
                time.sleep(0.05)
            elif attr in (raise_in, PUBLISHED[-1][0]):
                main_done.set()
            if attr == raise_in:
                raise error
            return verify.CheckResult(name, True, attr)
        return check

    for attr, name in PUBLISHED:
        monkeypatch.setattr(verify, attr, stub(attr, name))
    return calls, error


def _other_threads():
    return [t for t in threading.enumerate() if t is not threading.current_thread()]


def test_run_all_runs_each_check_once_and_keeps_the_published_order(monkeypatch):
    calls, _ = _stub_checks(monkeypatch)
    before = _other_threads()
    results = verify.run_all(7)
    assert [r.name for r in results] == [name for _, name in PUBLISHED]
    assert [r.detail for r in results] == [attr for attr, _ in PUBLISHED]
    assert sorted(attr for attr, _ in calls) == sorted(attr for attr, _ in PUBLISHED)
    threads = dict(calls)
    main = threading.current_thread()
    assert threads.pop("check_chi_square_mgf") is not main
    assert set(threads.values()) == {main}
    assert _other_threads() == before


@pytest.mark.parametrize("raise_in", ["check_chi_square_mgf", "check_eigen_pairs"])
def test_run_all_reraises_a_check_exception_unchanged(monkeypatch, raise_in):
    calls, error = _stub_checks(monkeypatch, raise_in=raise_in)
    before = _other_threads()
    with pytest.raises(RuntimeError) as info:
        verify.run_all(7)
    assert info.value is error
    assert "check_chi_square_mgf" in dict(calls)
    assert _other_threads() == before


def test_run_all_checks_the_seed_before_any_check(monkeypatch):
    calls, _ = _stub_checks(monkeypatch)
    before = _other_threads()
    for seed in (-1, 2**64):
        with pytest.raises(ValidationError, match="master seed must be in"):
            verify.run_all(seed)
    assert calls == []
    assert _other_threads() == before


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
