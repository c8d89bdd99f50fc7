import copy
import inspect
import math
import threading
import tracemalloc

import numpy as np
# numpy 2 imports numpy.random on first use; imported here, its ~0.5 MB of
# import-time allocations stay out of the first traced check's memory budget.
import numpy.random  # noqa: F401
import pytest

import supportlab.verify as verify
from supportlab import rng
from supportlab.errors import DomainError, ValidationError
from supportlab.model import (
    DesignMatrix,
    SparseSignal,
    column_space_basis,
    make_pattern,
    pattern_difference,
)


def _worst(result) -> float:
    return float(result.detail.split("=")[1])


def test_f_curve_check_passes_where_the_three_point_reference_failed():
    # At seed 116 a point has f' ~ 4e-4 beside |f| ~ 37; the former h=1e-5
    # central difference there carried a 1.4e-6 rounding error.
    res = verify.check_f_curve_derivatives(116)
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
        res = verify.check_f_curve_derivatives(seed)
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


def test_checks_take_no_size_argument_and_report_python_bools():
    for attr, _ in PUBLISHED:
        assert list(inspect.signature(getattr(verify, attr)).parameters) in (
            [], ["seed"], ["c_override"]), attr
    for fault in (False, True):
        results = verify.run_all(fault_c_sign=fault)
        assert [type(r.passed) for r in results] == [bool] * len(PUBLISHED)


def test_curvature_check_fails_at_a_point_outside_its_premise(monkeypatch):
    # Every point is drawn inside the curvature condition; should one fall
    # outside, the check fails there rather than skipping it.
    monkeypatch.setattr(verify, "curvature_condition", lambda n, k, b2: False)
    res = verify.check_curvature_boundary_max()
    assert not res.passed
    assert res.detail.startswith("curvature condition fails at n=")


def test_exact_mgf_check_fails_when_the_exact_value_is_off_by_1e_8(monkeypatch):
    # The check takes its exact values from the stacked spectra through
    # spectral_log_mgf, the formula exact_quadratic_log_mgf also ends in.
    exact = verify.spectral_log_mgf
    monkeypatch.setattr(verify, "spectral_log_mgf",
                        lambda *args: exact(*args) * (1.0 + 1e-8))
    res = verify.check_exact_mgf_sampling()
    assert res.name == "exact-mgf-vs-sampled"
    assert not res.passed
    assert _worst(res) > 1e-9


def test_quadratic_identities_check_fails_when_g_is_off_by_1e_8(monkeypatch):
    # The check reads g from the stacked energy kernel, once per block.
    exact = verify.projection_energies
    monkeypatch.setattr(verify, "projection_energies",
                        lambda xf, miss: exact(xf, miss) * (1.0 + 1e-8))
    res = verify.check_quadratic_identities()
    assert res.name == "quadratic-identities"
    assert not res.passed
    assert _worst(res) > 1e-9


def test_eigen_pairs_check_fails_when_psi_is_a_sum_of_projectors(monkeypatch):
    # Pi_F + Pi_T has no negative eigenvalues to pair with its positive ones.
    def summed(xt, xf):
        qt, qf = column_space_basis(np.stack([xt, xf]))
        return qf @ np.swapaxes(qf, -1, -2) + qt @ np.swapaxes(qt, -1, -2)

    monkeypatch.setattr(verify, "quadratic_form_matrices", summed)
    res = verify.check_eigen_pairs()
    assert res.name == "eigen-pairs"
    assert not res.passed
    assert res.detail.startswith("pair count mismatch: ") and " 0 neg, d=" in res.detail


def test_curve_checks_evaluate_one_f_curve_call_per_block(monkeypatch):
    # Both curve checks reach f_curve and curvature_condition through the
    # verify module, which is what the negative controls patch.
    calls = {"f_curve": 0, "curvature_condition": 0}
    for name in calls:
        original = getattr(verify, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(verify, name, counted)
    assert verify.check_f_curve_derivatives().passed
    assert calls == {"f_curve": 100 // verify.BLOCK, "curvature_condition": 0}
    assert verify.check_curvature_boundary_max().passed
    assert calls == {"f_curve": 100 // verify.BLOCK + 200 // verify.BLOCK,
                     "curvature_condition": 200}


def _curvature_points(seed=verify.DEFAULT_VERIFY_SEED):
    """The 200 (n, p, k, b2) points of ``check_curvature_boundary_max``, drawn
    one at a time in the order the check draws them."""
    gen = rng.stream(seed, 108)
    c = verify.CHERNOFF_C
    points = []
    for _ in range(200):
        k = int(gen.integers(2, 65))
        p = int(gen.integers(2 * k + 1, 6 * k + 50))
        b2 = float(np.exp(gen.uniform(math.log(0.05), math.log(10.0))))
        lo = (1.0 + 2.0 * c * b2) ** 2 / (c**2 * b2 * b2)
        lo = max(lo, (1.0 + 2.0 * c * k * b2) ** 2 / (k * c**2 * b2 * b2))
        n = k + int(math.ceil(lo * float(gen.uniform(1.001, 5.0))))
        points.append((n, p, k, b2))
    return points


def _at(point):
    n, p, k, b2 = point
    return f"n={n}, p={p}, k={k}, b2={b2:.4f}"


@pytest.mark.parametrize("faults, expected", [
    # point index -> faults there; the first faulty point in draw order is
    # named, with its first failure in today's order of the three tests.
    ({60: {"premise"}, 170: {"premise"}}, (60, "curvature condition fails at")),
    ({37: {"interior"}, 80: {"concave"}, 120: {"premise"}}, (37, "interior argmax d=2 at")),
    ({30: {"concave"}, 31: {"premise"}}, (30, "negative curvature inside [1,k] at")),
    ({99: {"interior", "concave"}}, (99, "interior argmax d=2 at")),
    ({150: {"premise", "concave"}, 151: {"interior"}}, (150, "curvature condition fails at")),
])
def test_curvature_check_names_the_first_failing_point_in_draw_order(monkeypatch, faults,
                                                                     expected):
    points = _curvature_points()
    assert all(points[i][2] > 2 for i in faults)  # so that d = 2 is interior
    faulty = {name: [points[i] for i, kinds in faults.items() if name in kinds]
              for name in ("premise", "interior", "concave")}
    condition, curve = verify.curvature_condition, verify.f_curve

    def premise(n, k, b2):
        if any((n, k, b2) == (pn, pk, pb2) for pn, _, pk, pb2 in faulty["premise"]):
            return False
        return condition(n, k, b2)

    def faulted(d, n, p, k, b2):
        f, fp, fpp = curve(d, n, p, k, b2)
        for kind, bump in (("interior", 1e6), ("concave", -1e6)):
            for point in faulty[kind]:
                rows = (n == point[0]) & (p == point[1]) & (k == point[2]) & (b2 == point[3])
                if kind == "interior":
                    f = np.where(rows & (d == 2.0), f + bump, f)
                else:
                    fpp = np.where(rows, bump, fpp)
        return f, fp, fpp

    monkeypatch.setattr(verify, "curvature_condition", premise)
    monkeypatch.setattr(verify, "f_curve", faulted)
    res = verify.check_curvature_boundary_max()
    index, message = expected
    assert not res.passed
    assert res.detail == f"{message} {_at(points[index])}"


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


_T_STAR = verify.CHERNOFF_T_STAR


@pytest.mark.parametrize("grid, at", [
    (verify.CHERNOFF_GRID, None),
    # The rate rises over the whole grid, or falls over it.
    ((0.2, 0.49, 1_000_001), 0),
    ((-0.49, 0.1, 1_000_001), 1_000_000),
    # t* sits on a point of the coarse pass.
    ((_T_STAR - 0.3, _T_STAR + 0.3, 1_000_001), 500_000),
    ((-0.45, 0.45, 1_234_567), None),
], ids=["default", "min-at-left-end", "min-at-right-end", "min-on-a-coarse-point",
        "num-not-a-multiple-of-the-stride"])
def test_chernoff_grid_in_blocks_equals_one_argmin_over_the_grid(monkeypatch, grid, at):
    # The bracketed scan returns the point and value of numpy's first
    # minimum over the whole grid, bit for bit.
    monkeypatch.setattr(verify, "CHERNOFF_GRID", grid)
    ts = np.linspace(*grid)
    vals = 2.0 * ts * ts / (1.0 - 2.0 * ts) - ts
    i = int(np.argmin(vals))
    assert at is None or i == at
    assert verify._chernoff_grid_minimum() == (ts[i], vals[i])
    expected = (f"min_err={abs(vals[i] - verify.CHERNOFF_MIN):.3e} "
                f"t_err={abs(ts[i] - _T_STAR):.3e} c_err=0.000e+00")
    assert verify.check_chernoff_constants().detail == expected


@pytest.mark.parametrize("start, stop, stride", [
    (0, 1_000_000, 1000), (0, 1_000_000, 999_999), (646_000, 648_001, 1), (7, 999_998, 333),
])
def test_strided_grid_slices_are_linspace_points_bit_for_bit(start, stop, stride):
    lo, hi, num = verify.CHERNOFF_GRID
    assert np.array_equal(verify._grid_slice(lo, hi, num, start, stop, stride),
                          np.linspace(lo, hi, num)[start:stop:stride])


@pytest.mark.parametrize("block", [8192, 1000, 999_999])
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
    (verify.check_eigen_pairs, 1.2),
    (verify.check_quadratic_identities, 1.2),
    (verify.check_exact_mgf_sampling, 2.0),
    (verify.check_chi_square_mgf, 2.0),
    (verify.check_chain_ordering, 2.0),
    (verify.check_f_curve_derivatives, 1.2),
    (verify.check_curvature_boundary_max, 1.2),
    (verify.run_all, 4.0),
])
def test_verify_working_memory_stays_within_its_budget(check, budget_mb):
    # A 10**6-point grid or a 10**6-row sample held whole would take 8 MB or more.
    assert _peak_mb(check) < budget_mb


def _model_instance(gen):
    """One instance drawn with the same generator calls as
    ``verify._random_instance``, built as validated model objects."""
    k = int(gen.integers(1, 5))
    n = int(gen.integers(max(4, 2 * k), 33))
    p = int(gen.integers(k + 2, 2 * k + 6))
    design = DesignMatrix(entries=gen.standard_normal((n, p)))
    t_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
    while True:
        f_idx = sorted(gen.choice(p, size=k, replace=False).tolist())
        if f_idx != t_idx:
            break
    t_patt, f_patt = make_pattern(t_idx, p), make_pattern(f_idx, p)
    values = gen.uniform(0.5, 3.0, size=k) * gen.choice([-1.0, 1.0], size=k)
    return design, SparseSignal(pattern=t_patt, values=values), t_patt, f_patt


def _model_block(instances):
    """The stacked block of ``instances``, read through the model's accessors."""
    n = max(design.n for design, *_ in instances)
    k = max(len(t_patt) for _, _, t_patt, _ in instances)
    xt, xf = np.zeros((2, len(instances), n, k))
    mu, miss = np.zeros((2, len(instances), n))
    d = np.empty(len(instances), dtype=int)
    for i, (design, signal, t_patt, f_patt) in enumerate(instances):
        diff = pattern_difference(t_patt, f_patt)
        sub_t = design.submatrix(t_patt)
        rows, cols = sub_t.shape
        xt[i, :rows, :cols] = sub_t
        xf[i, :rows, :cols] = design.submatrix(f_patt)
        mu[i, :rows] = sub_t @ signal.values
        miss[i, :rows] = design.submatrix(diff) @ signal.values_on(diff)
        d[i] = len(diff)
    return verify._Block(xt, xf, mu, miss, d)


@pytest.mark.parametrize("seed", [verify.DEFAULT_VERIFY_SEED, 0, 116, 199])
@pytest.mark.parametrize("index", [101, 102, 103, 106])
def test_instance_blocks_equal_the_model_route_bit_for_bit(seed, index):
    # The four instance checks' streams: the raw-array blocks equal those
    # built through DesignMatrix, SparsityPattern and SparseSignal, and each
    # block leaves its generator where the model route leaves it.
    raw_gen, model_gen = rng.stream(seed, index), rng.stream(seed, index)
    blocks = 0
    for block in verify._instance_blocks(raw_gen):
        expected = _model_block([_model_instance(model_gen) for _ in block.d])
        for name, got, want in zip(block._fields, block, expected):
            assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert copy.deepcopy(raw_gen).random() == copy.deepcopy(model_gen).random()
        blocks += 1
    assert blocks == verify.INSTANCES // verify.BLOCK
