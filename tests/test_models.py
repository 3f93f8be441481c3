"""Degradation model families: closed forms against independent oracles."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import solve_ivp

from hbprog.models import (
    BATT_SINGLE_NOMINALS,
    BatteryDoubleModel,
    BatterySingleModel,
    CrackDivergedError,
    CrackGeometry,
    CrackParams,
    LoadingSpec,
    NoFailureError,
    ParisCrackModel,
    _exp_in_place,
    crack_length,
    cycles_to_failure,
    equivalent_stress,
)

GEO = CrackGeometry(a0=1.0, n0=0.0, a_f=25.0)
CONST = LoadingSpec("constant", delta_sigma=60.0)
SINGLE = BatterySingleModel()
DOUBLE = BatteryDoubleModel()


def ode_crack_length(m, log_c, a0, delta_sigma, dn, rtol=1e-11):
    """Independent oracle: adaptive Runge-Kutta integration of the growth
    rate law da/dN = C * (delta_sigma * sqrt(pi * a))^m."""
    c = math.exp(log_c)

    def rate(_, a):
        return c * (delta_sigma * math.sqrt(math.pi * a[0])) ** m

    sol = solve_ivp(rate, (0.0, dn), [a0], rtol=rtol, atol=1e-13)
    return float(sol.y[0, -1])


class TestEquivalentStress:
    def test_equal_amplitudes_fixed_point(self):
        loading = LoadingSpec("two-block", delta_sigma1=60, n1=30, delta_sigma2=60, n2=70)
        assert equivalent_stress(loading, 3.0) == pytest.approx(60.0, rel=1e-12)

    def test_single_block_degeneracy(self):
        loading = LoadingSpec("two-block", delta_sigma1=60, n1=100, delta_sigma2=80, n2=0)
        assert equivalent_stress(loading, 3.0) == pytest.approx(60.0, rel=1e-12)

    def test_m_one_is_arithmetic_mean(self):
        loading = LoadingSpec("two-block", delta_sigma1=60, n1=50, delta_sigma2=80, n2=50)
        assert equivalent_stress(loading, 1.0) == pytest.approx(70.0, rel=1e-12)

    def test_constant_mode_passthrough(self):
        assert equivalent_stress(CONST, 3.7) == 60.0

    def test_zero_exponent_rejected(self):
        loading = LoadingSpec("two-block", delta_sigma1=60, n1=50, delta_sigma2=80, n2=50)
        with pytest.raises(ValueError):
            equivalent_stress(loading, 0.0)

    def test_zero_cycles_rejected_at_construction(self):
        with pytest.raises(ValueError):
            LoadingSpec("two-block", delta_sigma1=60, n1=0, delta_sigma2=80, n2=0)

    def test_other_mode_fields_rejected(self):
        with pytest.raises(ValueError, match="constant loading takes no n1"):
            LoadingSpec("constant", delta_sigma=60, n1=5)
        with pytest.raises(ValueError, match="two-block loading takes no delta_sigma"):
            LoadingSpec("two-block", delta_sigma1=60, n1=5, delta_sigma2=80, n2=5, delta_sigma=60)
        with pytest.raises(ValueError, match="unknown loading mode"):
            LoadingSpec("sine", delta_sigma=60)

    @given(
        ds1=st.floats(10, 200),
        ds2=st.floats(10, 200),
        n1=st.floats(1, 1e5),
        n2=st.floats(1, 1e5),
        m=st.floats(0.1, 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_mean_bounds(self, ds1, ds2, n1, n2, m):
        loading = LoadingSpec("two-block", delta_sigma1=ds1, n1=n1, delta_sigma2=ds2, n2=n2)
        eq = equivalent_stress(loading, m)
        assert min(ds1, ds2) - 1e-9 <= eq <= max(ds1, ds2) + 1e-9


class TestCrackLength:
    def test_zero_elapsed_cycles(self):
        p = CrackParams(1.2, 1.0)
        assert crack_length(p, GEO, CONST, 0.0) == 1.0

    def test_no_growth_when_rate_underflows(self):
        # theta2 large enough that exp(log C) underflows to exactly 0
        p = CrackParams(1.2, 45.0)
        assert crack_length(p, GEO, CONST, 1e6) == 1.0

    def test_against_ode_oracle_m3(self):
        p = CrackParams(1.5, 1.0)  # m = 3, log C = -18.6
        got = crack_length(p, GEO, CONST, 100.0)
        want = ode_crack_length(3.0, -18.6, 1.0, 60.0, 100.0)
        assert got == pytest.approx(want, rel=1e-6)
        assert got == pytest.approx(4.042843235898347, rel=1e-9)

    def test_vector_and_scalar_agree(self):
        p = CrackParams(1.1, 1.02)
        grid = np.array([0.0, 5e3, 2e4])
        vec = crack_length(p, GEO, CONST, grid)
        assert vec.shape == (3,)
        for n, v in zip(grid, vec):
            assert crack_length(p, GEO, CONST, float(n)) == v

    def test_divergence_signalled_with_cycle(self):
        p = CrackParams(1.5, 1.0)  # m = 3 diverges at base = 0
        with pytest.raises(CrackDivergedError) as err:
            crack_length(p, GEO, CONST, 5e4)
        assert err.value.cycle == 5e4

    def test_exponential_branch_continuity(self):
        eps = 2e-7  # inside the m ~ 2 band at theta1 = 1 +- 1e-7
        a_mid = crack_length(CrackParams(1.0, 1.0), GEO, CONST, 2e4)
        a_lo = crack_length(CrackParams(1.0 - eps, 1.0), GEO, CONST, 2e4)
        a_hi = crack_length(CrackParams(1.0 + eps, 1.0), GEO, CONST, 2e4)
        assert a_lo == pytest.approx(a_mid, rel=1e-4)
        assert a_hi == pytest.approx(a_mid, rel=1e-4)

    @given(
        theta1=st.floats(0.5, 1.6),
        theta2=st.floats(0.9, 1.2),
        n1=st.floats(0, 3e4),
        n2=st.floats(0, 3e4),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_cycles(self, theta1, theta2, n1, n2):
        p = CrackParams(theta1, theta2)
        lo, hi = sorted([n1, n2])
        try:
            a_pair = crack_length(p, GEO, CONST, np.array([lo, hi]))
        except CrackDivergedError:
            return
        assert a_pair[1] >= a_pair[0] - 1e-12

    @given(theta1=st.floats(0.55, 1.55), theta2=st.floats(0.95, 1.1))
    @settings(max_examples=40, deadline=None)
    def test_ode_agreement_random_sweep(self, theta1, theta2):
        p = CrackParams(theta1, theta2)
        if abs(p.m - 2.0) < 1e-6:
            return
        nf = cycles_to_failure(p, GEO, CONST)
        dn = 0.5 * nf
        got = crack_length(p, GEO, CONST, dn)
        want = ode_crack_length(p.m, p.log_c, 1.0, 60.0, dn)
        assert got == pytest.approx(want, rel=1e-6)


class TestCyclesToFailure:
    def test_already_at_threshold(self):
        geo = CrackGeometry(a0=5.0, n0=120.0, a_f=5.0)
        assert cycles_to_failure(CrackParams(1.2, 1.0), geo, CONST) == 120.0

    def test_m2_branch_hand_formula(self):
        p = CrackParams(1.0, 1.0)  # exactly m = 2
        nf = cycles_to_failure(p, GEO, CONST)
        # by hand: n0 + ln(a_f / a0) / (C * (ds * sqrt(pi))^2)
        assert nf == pytest.approx(34050.948442446757, rel=1e-9)
        # bisection on the forward model as an independent check
        lo, hi = 0.0, 1e6
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if crack_length(p, GEO, CONST, mid) < 25.0:
                lo = mid
            else:
                hi = mid
        assert nf == pytest.approx(0.5 * (lo + hi), abs=1e-4)

    def test_zero_rate_has_no_failure_time(self):
        with pytest.raises(NoFailureError):
            cycles_to_failure(CrackParams(1.2, 45.0), GEO, CONST)

    @given(theta1=st.floats(0.55, 1.55), theta2=st.floats(0.95, 1.15))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_inversion(self, theta1, theta2):
        p = CrackParams(theta1, theta2)
        nf = cycles_to_failure(p, GEO, CONST)
        assert crack_length(p, GEO, CONST, nf) == pytest.approx(25.0, rel=1e-9)


class TestBatterySingle:
    def test_nominal_at_k100(self):
        q = SINGLE.predict([1.0, 1.0, 1.0], 100)[0]
        assert q == pytest.approx(2.0 - math.exp(-1.0), rel=1e-12)
        assert q == pytest.approx(1.6321205588285577, rel=1e-12)

    def test_large_k_limit(self):
        c0, a, _ = BATT_SINGLE_NOMINALS
        assert SINGLE.predict([1.0, 1.0, 1.0], 1e9)[0] == pytest.approx(c0 + a, rel=1e-6)

    def test_zero_a_constant_capacity(self):
        k = np.array([1.0, 10.0, 500.0])
        assert np.all(SINGLE.predict([1.0, 0.0, 1.0], k) == 2.0)

    def test_below_domain_rejected(self):
        with pytest.raises(ValueError, match="below model domain"):
            SINGLE.predict([1.0, 1.0, 1.0], 0)


class TestBatteryDouble:
    def test_k0_sum_of_amplitudes(self):
        assert DOUBLE.predict([1.0, 1.0, 1.0, 1.0], 0)[0] == pytest.approx(1.917, rel=1e-12)

    def test_zero_second_term(self):
        k = np.arange(0, 50, 5.0)
        expect = 1.92 * np.exp(-0.02 * k)
        np.testing.assert_allclose(DOUBLE.predict([1.0, 1.0, 0.0, 1.0], k), expect, rtol=1e-12)

    def test_nominal_k50_high_precision(self):
        # frozen from a 50-digit evaluation of 1.92 e^{-1} - 0.003 e^{-2.5}
        q = DOUBLE.predict([1.0, 1.0, 1.0, 1.0], 50)[0]
        assert q == pytest.approx(0.7060822720532976, rel=1e-14)

    def test_negative_cycle_rejected(self):
        with pytest.raises(ValueError):
            DOUBLE.predict([1.0, 1.0, 1.0, 1.0], -1)

    def test_exp_in_place_keeps_the_bytes_of_exp(self):
        """Arguments over -800...10, the boundary near -745.13 below which
        exp rounds to 0 and the cut at -746 each way, give exp's bytes."""
        edge = -745.1332191019411  # the least argument whose exp is not 0
        args = np.concatenate([
            np.linspace(-800.0, 10.0, 100_001),
            edge + np.linspace(-1e-9, 1e-9, 201),
            [np.nextafter(edge, -np.inf), edge, np.nextafter(edge, 0.0), -745.13],
            [np.nextafter(-746.0, -np.inf), -746.0, np.nextafter(-746.0, 0.0)],
            [-np.inf, np.nan, 0.0, -0.0],
        ])
        assert np.exp(np.nextafter(edge, -np.inf)) == 0.0 < np.exp(edge)
        for x in (args, args[1:].reshape(4, -1), args[args > -746.0], args[:0]):
            got = x.copy()
            _exp_in_place(got)
            assert got.tobytes() == np.exp(x).tobytes()

    def test_horizon_curves_match_the_unmasked_form(self):
        """battery-prognosis-shaped rows, most of whose e^(dk) arguments
        underflow, give the bytes of the plain in-place form."""
        rng = np.random.default_rng(3)
        theta = np.column_stack([
            rng.normal(1.0, 0.01, 300), np.exp(rng.normal(0.0, 0.6, 300)),
            rng.normal(1.0, 0.05, 300), rng.normal(1.0, 0.05, 300),
        ])
        model = BatteryDoubleModel((1.92, -3e-5, -0.003, -0.05))
        k = np.linspace(2000.0, 30000.0, 101)
        a, b, c, d = (theta[:, j, None] * model.nominals[j] for j in range(4))
        assert np.mean(d * k < -746.0) > 0.4
        want = b * k
        np.exp(want, out=want)
        want *= a
        second = d * k
        np.exp(second, out=second)
        second *= c
        want += second
        assert model.predict_batch(theta, k).tobytes() == want.tobytes()


class TestDeterminism:
    def test_bit_identical_reevaluation(self):
        p = CrackParams(1.2, 1.05)
        grid = np.linspace(0, 1e4, 17)
        first = crack_length(p, GEO, CONST, grid)
        second = crack_length(p, GEO, CONST, grid)
        assert np.array_equal(first, second)
        theta = [1.1, 0.9, 1.2, 0.8]
        assert np.array_equal(DOUBLE.predict(theta, 33), DOUBLE.predict(theta, 33))


class TestModelContracts:
    def test_paris_predict_matches_free_function(self):
        model = ParisCrackModel(GEO, CONST)
        theta = np.array([1.15, 1.03])
        grid = np.linspace(0, 2e4, 9)
        np.testing.assert_array_equal(
            model.predict(theta, grid), crack_length(CrackParams(*theta), GEO, CONST, grid)
        )

    def test_paris_predict_inf_after_divergence(self):
        model = ParisCrackModel(GEO, CONST)
        out = model.predict(np.array([1.5, 1.0]), np.array([0.0, 100.0, 5e4]))
        assert np.isfinite(out[:2]).all()
        assert np.isinf(out[2])

    def test_paris_overflowing_curve_is_silent(self):
        """m just under 2, outside the exponential band, grows the crack
        by exp(log1p(r) / e) with e = 5e-7, which overflows to +inf at large
        dn: both curve forms give +inf there and warn of nothing."""
        model = ParisCrackModel(GEO, CONST)
        theta = np.array([(2.0 - 1e-6) / 2.0, 1.0])
        cycles = np.array([0.0, 1e4, 1e7, 1e8])
        with np.errstate(divide="warn", over="warn", invalid="warn"), warnings.catch_warnings():
            warnings.simplefilter("error")
            one = model.predict(theta, cycles)
            rows = model.predict_batch(np.stack([theta, theta]), cycles)
        for curve in (one, *rows):
            assert np.isfinite(curve[:2]).all() and np.isinf(curve[2:]).all()

    def test_inadmissible_theta_gives_inf(self):
        model = ParisCrackModel(GEO, CONST)
        assert np.isinf(model.predict(np.array([-0.2, 1.0]), [0.0, 10.0])).all()

    def test_two_block_amplitude_reevaluated_per_sample(self):
        loading = LoadingSpec("two-block", delta_sigma1=50, n1=60, delta_sigma2=90, n2=40)
        model = ParisCrackModel(GEO, loading)
        lo = model.predict(np.array([0.8, 1.05]), [1e3])[0]
        hi = model.predict(np.array([1.3, 1.05]), [1e3])[0]
        # larger exponent weights the heavy block more, growing the crack faster
        assert hi > lo

    def test_battery_models_vectorize(self):
        # the nominal curves 2 - e^{-100/k} and 1.92 e^{-0.02k} - 0.003 e^{-0.05k},
        # written out one cycle at a time
        k = np.arange(1, 11, dtype=float)
        np.testing.assert_allclose(
            SINGLE.predict(np.array([1.0, 1.0, 1.0]), k),
            [2.0 - math.exp(-100.0 / kk) for kk in k],
        )
        np.testing.assert_allclose(
            DOUBLE.predict(np.array([1.0, 1.0, 1.0, 1.0]), k),
            [1.92 * math.exp(-0.02 * kk) - 0.003 * math.exp(-0.05 * kk) for kk in k],
        )

    def test_paris_predict_batch_with_per_row_cycles(self):
        """``[n, m]`` cycles give row ``i`` its own grid: each row is
        ``predict`` at that row's cycles, inadmissible rows are +inf."""
        model = ParisCrackModel(GEO, CONST)
        theta = np.array([[1.15, 1.03], [0.9, 1.05], [-0.2, 1.0]])
        cycles = np.array([[0.0, 5e3, 1e4], [2e3, 4e3, 8e3], [0.0, 1.0, 2.0]])
        out = model.predict_batch(theta, cycles)
        assert out.shape == (3, 3)
        for i in range(2):
            np.testing.assert_array_equal(out[i], model.predict(theta[i], cycles[i]))
        assert np.isinf(out[2]).all()

    @pytest.mark.parametrize(
        "make, nominals",
        [
            (lambda nom: ParisCrackModel(GEO, CONST, nom), (2.0, -18.6, 1.0)),
            (lambda nom: ParisCrackModel(GEO, CONST, nom), (2.0,)),
            (BatterySingleModel, (2.0, -1.0)),
            (BatteryDoubleModel, (1.92, -0.02, -0.003)),
            (BatteryDoubleModel, (1.92, -0.02, -0.003, -0.05, 1.0)),
        ],
        ids=["paris-long", "paris-short", "single-short", "double-short", "double-long"],
    )
    def test_nominals_of_the_wrong_length_rejected(self, make, nominals):
        """A family takes one nominal per parameter; a tuple of another
        length is an error, not silently cut or read past its end."""
        with pytest.raises(ValueError, match=f"takes \\d nominals, got {len(nominals)}"):
            make(nominals)

    def test_normalize_gaussian_rescales_exactly(self):
        model = ParisCrackModel(GEO, CONST)
        means, sds = model.normalize_gaussian([2.89, -10.78], [0.29, 0.17])
        assert means[0] == pytest.approx(2.89 / 2.0)
        assert means[1] == pytest.approx(-10.78 / -18.6)
        assert sds[0] == pytest.approx(0.29 / 2.0)
        assert sds[1] == pytest.approx(0.17 / 18.6)
