import supportlab.verify as verify


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
