"""The standard normal CDF and quantile (``targets.ndtr``, ``targets.ndtri``)
and the truncated normal built on them. scipy 1.17's ``ndtr`` and
``ndtri`` are the oracle: the in-house functions must return their bytes on
every branch, for Python floats and for 0-d, 1-d and 2-d arrays."""

import math

import numpy as np
import pytest
from scipy import special

from hbprog.targets import ndtr, ndtri, trunc_normal_logpdf, trunc_normal_ppf

MAXLOG = 7.09782712893383996732e2
EXPM2 = 0.13533528323661269189
TINY = 5e-324  # the least subnormal


def ulps_around(x: float, n: int = 16) -> list[float]:
    """``x`` and its ``n`` nearest floats on each side."""
    out = [x]
    lo = hi = x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


# branch limits of ndtr in its argument a, where x = a / sqrt(2): erf for
# |x| < sqrt(1/2), 1 - erf(|x|) below 1, exp(-x^2) P / Q below 8, R / S
# above, 0 once x^2 > MAXLOG; the array form also stops evaluating at
# |x| = 64
NDTR_LIMITS = [1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), math.sqrt(2.0 * MAXLOG), 64.0 * math.sqrt(2.0)]

NDTR_SPECIALS = [0.0, -0.0, math.inf, -math.inf, math.nan, TINY, -TINY, 1e-310, -1e-310, 1e-300,
                 1e300, -1e300, 1.7976931348623157e308, -1.7976931348623157e308]


def ndtr_points() -> np.ndarray:
    rng = np.random.default_rng(20260)
    limits = [v for lim in NDTR_LIMITS for s in (1.0, -1.0) for v in ulps_around(s * lim)]
    return np.concatenate([
        rng.uniform(-1.0, 1.0, 2000),  # erf
        rng.uniform(1.0, 1.4142, 2000) * rng.choice([-1.0, 1.0], 2000),  # 1 - erf
        rng.uniform(1.4143, 11.3, 8000) * rng.choice([-1.0, 1.0], 8000),  # P / Q
        rng.uniform(11.4, 37.6, 12000) * rng.choice([-1.0, 1.0], 12000),  # R / S
        rng.uniform(37.7, 200.0, 1000) * rng.choice([-1.0, 1.0], 1000),  # underflow
        rng.standard_normal(2000) * 4.0,
        limits,
        NDTR_SPECIALS,
    ])


# branch limits of ndtri: the upper tail is reflected above 1 - exp(-2),
# the central form runs above exp(-2), and the tails switch tables where
# sqrt(-2 log y) = 8, at y = exp(-32)
NDTRI_LIMITS = [EXPM2, 1.0 - EXPM2, math.exp(-32.0), 1.0 - math.exp(-32.0), 0.5]

NDTRI_SPECIALS = [0.0, -0.0, 1.0, -1.0, 2.0, -TINY, math.nextafter(1.0, 2.0), math.inf,
                  -math.inf, math.nan, TINY, 1e-310, 2.2250738585072014e-308,
                  math.nextafter(1.0, 0.0), 2.0**-53]


def ndtri_points() -> np.ndarray:
    rng = np.random.default_rng(20261)
    limits = [v for lim in NDTRI_LIMITS for v in ulps_around(lim)]
    return np.concatenate([
        rng.uniform(0.0, 1.0, 4000),
        rng.uniform(EXPM2, 1.0 - EXPM2, 6000),  # central
        np.exp(rng.uniform(-32.0, -2.0, 8000)),  # lower tail, P1 / Q1
        np.exp(rng.uniform(-744.0, -32.0, 12000)),  # lower tail, P2 / Q2
        1.0 - np.exp(rng.uniform(-36.0, -2.0, 3000)),  # upper tail
        limits,
        NDTRI_SPECIALS,
    ])


def assert_same_bits(ours, ref, nan_payload=True):
    ours, ref = np.asarray(ours, dtype=float), np.asarray(ref, dtype=float)
    assert ours.shape == ref.shape
    nan = np.isnan(ref)
    np.testing.assert_array_equal(np.isnan(ours), nan)
    same = bits(ours) == bits(ref)
    if not nan_payload:
        same |= nan
    bad = np.flatnonzero(~same.reshape(-1))
    assert not bad.size, [(ours.flat[i], ref.flat[i]) for i in bad[:5]]


@pytest.mark.parametrize(
    "ours, oracle, points, nan_payload",
    [(ndtr, special.ndtr, ndtr_points, True), (ndtri, special.ndtri, ndtri_points, False)],
    ids=["ndtr", "ndtri"],
)
class TestScipyBytes:
    """``nan_payload``: whether a NaN result's bits are compared too. ndtri
    returns NaN for NaN input as scipy does, but not its payload."""

    def test_1d_array(self, ours, oracle, points, nan_payload):
        x = points()
        out = ours(x)
        assert isinstance(out, np.ndarray) and out.dtype == np.float64
        assert_same_bits(out, oracle(x), nan_payload)

    def test_2d_array(self, ours, oracle, points, nan_payload):
        x = points()
        x = x[: x.size // 4 * 4].reshape(4, -1)
        assert_same_bits(ours(x), oracle(x), nan_payload)
        assert_same_bits(ours(x.T), oracle(x.T), nan_payload)

    def test_python_floats(self, ours, oracle, points, nan_payload):
        x = points()
        if ours is ndtri:  # floats share the array path; a sample suffices
            x = x[::10]
        out = [ours(v) for v in x.tolist()]
        assert all(isinstance(v, float) for v in out)
        assert_same_bits(out, oracle(x), nan_payload)

    def test_0d_arrays(self, ours, oracle, points, nan_payload):
        x = points()[::20]
        out = [ours(np.asarray(v)) for v in x]
        assert all(type(v) is np.float64 for v in out)
        assert_same_bits(out, oracle(x), nan_payload)

    def test_empty(self, ours, oracle, points, nan_payload):
        assert ours(np.empty((0, 3))).shape == (0, 3)


def test_ndtr_float_and_array_forms_agree_on_random_bits():
    """Doubles drawn uniformly over their bit patterns, so every exponent
    is reached. The NaN patterns drawn are left out: some are signalling
    NaNs, which no arithmetic produces."""
    raw = np.random.default_rng(7).integers(0, 2**64, 20000, dtype=np.uint64, endpoint=False)
    x = raw.view(np.float64)
    x = x[~np.isnan(x)]
    ref = special.ndtr(x)
    assert_same_bits(ndtr(x), ref)
    assert_same_bits([ndtr(v) for v in x.tolist()], ref)


def test_functions_raise_no_float_warnings():
    """Overflowing squares, infinities and NaN input raise no divide,
    overflow or invalid error."""
    with np.errstate(divide="raise", over="raise", invalid="raise"):
        ndtr(ndtr_points())
        ndtri(ndtri_points())


# a mean far below the truncation range: Phi(beta) - Phi(alpha) rounds to
# 1 - 1. References computed with mpmath at 50 digits, from the double
# values of the arguments.
FAR_BELOW = dict(mu=-0.1, sd=0.01, lo=0.0, hi=0.2)


def test_trunc_normal_ppf_mean_far_below_range():
    x = trunc_normal_ppf(0.5, **FAR_BELOW)
    assert 0.0 < x < 0.2
    assert x == pytest.approx(0.0006841183608142940361328074, rel=1e-12)
    q = np.array([1e-6, 0.25, 0.5, 0.75, 1.0 - 1e-6])
    xs = trunc_normal_ppf(q, **FAR_BELOW)
    assert np.all((xs > 0.0) & (xs < 0.2)) and np.all(np.diff(xs) > 0)


def test_trunc_normal_logpdf_mean_far_below_range():
    lp = trunc_normal_logpdf(0.001, **FAR_BELOW)
    assert lp == pytest.approx(5.912516803295889183124456, rel=1e-12)


def test_trunc_normal_tail_form_applies_per_element():
    """In one call, means below ``lo`` take the upper-tail form, and the
    others keep the lower-tail form's bytes."""
    q = np.array([0.3, 0.3, 0.7, 0.7])
    mu = np.array([-0.1, 0.05, -0.02, 0.3])
    sd = np.array([0.01, 0.02, 0.03, 0.1])
    x = trunc_normal_ppf(q, mu, sd, 0.0, 0.2)
    for i in range(q.size):
        assert x[i] == trunc_normal_ppf(q[i], mu[i], sd[i], 0.0, 0.2)
        if mu[i] >= 0.0:
            a, b = special.ndtr(-mu[i] / sd[i]), special.ndtr((0.2 - mu[i]) / sd[i])
            assert x[i] == mu[i] + sd[i] * special.ndtri(a + q[i] * (b - a))
    assert np.all((x > 0.0) & (x < 0.2))
    # the upper-tail form inverts its own CDF: q = 1 - S(x) / mass
    for i in (0, 2):
        alpha, beta = (0.0 - mu[i]) / sd[i], (0.2 - mu[i]) / sd[i]
        sa, sb = special.ndtr(-alpha), special.ndtr(-beta)
        sx = special.ndtr(-(x[i] - mu[i]) / sd[i])
        assert (sa - sx) / (sa - sb) == pytest.approx(q[i], rel=1e-10)
