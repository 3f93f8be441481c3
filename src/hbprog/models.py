"""Closed-form degradation model families with nominal-value normalization.

Two physics are covered: Paris-law fatigue crack growth (length in mm as a
function of load cycles) and lithium-battery capacity fade (Ahr as a function
of discharge cycle), the latter in single- and double-exponential variants.
Model parameters are dimensionless, defined relative to nominal physical
values, which keeps all inference targets on comparable scales.
"""

from __future__ import annotations

import contextlib
import contextvars
import math
from dataclasses import dataclass

import numpy as np

CRACK_NOMINALS = (2.0, -18.6)
BATT_SINGLE_NOMINALS = (2.0, -1.0, -100.0)
BATT_DOUBLE_NOMINALS = (1.92, -0.02, -0.003, -0.05)

SQRT_PI = math.sqrt(math.pi)

#: True inside :func:`ignore_float_errors`. The scalar hot entry points
#: (:func:`hbprog.targets.dataset_loglik`, the models' curves) read it, about
#: 30 ns, and skip the ``np.errstate`` they would otherwise open, whose enter
#: and exit cost about 0.8 us per call.
FLOAT_ERRORS_IGNORED = contextvars.ContextVar("hbprog_float_errors_ignored", default=False)


@contextlib.contextmanager
def ignore_float_errors():
    """numpy's divide, overflow and invalid floating-point errors ignored in
    the block, with :data:`FLOAT_ERRORS_IGNORED` set, so the hot entry points
    called in it open no error state of their own.

    The stage runner (:func:`hbprog.hierarchy._run_stage`) runs each
    sampling stage's whole search and chain under one; an entry point
    called on its own enters one itself. The entry points trust the
    variable, so code in the block must not call them under a stricter
    error state of its own.
    """
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        token = FLOAT_ERRORS_IGNORED.set(True)
        try:
            yield
        finally:
            FLOAT_ERRORS_IGNORED.reset(token)


class NoFailureError(ValueError):
    """The crack never reaches the critical length (no finite failure time)."""


#: the fields each loading mode takes
LOADING_FIELDS = {
    "constant": ("delta_sigma",),
    "two-block": ("delta_sigma1", "n1", "delta_sigma2", "n2"),
}


@dataclass(frozen=True)
class LoadingSpec:
    """Stress loading applied to a cracked specimen.

    ``constant`` mode carries a single amplitude ``delta_sigma`` (MPa).
    ``two-block`` mode alternates two constant-amplitude blocks with cycle
    counts ``n1`` and ``n2``; an equivalent amplitude is derived per value of
    the Paris exponent via :func:`equivalent_stress`. A mode takes no field
    of the other (:data:`LOADING_FIELDS`).
    """

    mode: str
    delta_sigma: float | None = None
    delta_sigma1: float | None = None
    n1: float | None = None
    delta_sigma2: float | None = None
    n2: float | None = None

    def __post_init__(self):
        fields = LOADING_FIELDS.get(self.mode)
        if fields is None:
            raise ValueError(f"unknown loading mode {self.mode!r}")
        # stored as floats, so a spec built with ints saves as it loads back
        for name in ("delta_sigma", "delta_sigma1", "n1", "delta_sigma2", "n2"):
            value = getattr(self, name)
            if value is not None:
                if name not in fields:
                    raise ValueError(f"{self.mode} loading takes no {name}")
                object.__setattr__(self, name, float(value))
        if self.mode == "constant":
            if self.delta_sigma is None or not self.delta_sigma > 0:
                raise ValueError("constant loading requires delta_sigma > 0")
        else:
            for name in ("delta_sigma1", "delta_sigma2", "n1", "n2"):
                if getattr(self, name) is None:
                    raise ValueError(f"two-block loading requires {name}")
            if not (self.delta_sigma1 > 0 and self.delta_sigma2 > 0):
                raise ValueError("block amplitudes must be positive")
            if self.n1 < 0 or self.n2 < 0 or self.n1 + self.n2 <= 0:
                raise ValueError("block cycle counts must be >= 0 with n1 + n2 > 0")


@dataclass(frozen=True)
class CrackGeometry:
    """Initial and critical crack state: length a0 (mm) observed at cycle n0,
    critical length a_f (mm)."""

    a0: float
    n0: float
    a_f: float

    def __post_init__(self):
        # stored as floats, so a geometry built with ints saves as it loads back
        for name in ("a0", "n0", "a_f"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (0 < self.a0 <= self.a_f):
            raise ValueError("require 0 < a0 <= a_f")
        if self.n0 < 0:
            raise ValueError("require n0 >= 0")


def equivalent_stress(loading: LoadingSpec, m: float) -> float:
    """Equivalent constant amplitude for the given loading and Paris exponent.

    Two-block loading collapses to the power mean
    ``((n1 * ds1^m + n2 * ds2^m) / (n1 + n2))^(1/m)``; constant loading
    returns its amplitude unchanged. Computed in log space so large exponents
    cannot overflow.
    """
    if loading.mode == "constant":
        return float(loading.delta_sigma)
    return float(math.exp(_log_equivalent_stress(loading, m)))


def _log_equivalent_stress(loading: LoadingSpec, m):
    """log of :func:`equivalent_stress` of two-block loading for a Paris
    exponent or an array of them, with the two blocks combined through
    ``logaddexp``. The curves only use it multiplied by m again, so a tiny
    exponent, whose quotient overflows ``exp``, still gives a finite curve."""
    if not np.all(np.isfinite(m)):
        raise ValueError("Paris exponent m must be finite")
    if np.any(m == 0.0):
        raise ValueError("power mean undefined for m = 0")
    n1, n2 = float(loading.n1), float(loading.n2)
    terms = []
    if n1 > 0:
        terms.append(math.log(n1) + m * math.log(loading.delta_sigma1))
    if n2 > 0:
        terms.append(math.log(n2) + m * math.log(loading.delta_sigma2))
    log_sum = np.logaddexp(*terms) if len(terms) == 2 else terms[0]
    return (log_sum - math.log(n1 + n2)) / m


def _log_ds(loading: LoadingSpec, m):
    """``log(ds * sqrt(pi))`` of the equivalent amplitude ds, for a Paris
    exponent or an array of them (constant loading gives one float)."""
    if loading.mode == "constant":
        return math.log(loading.delta_sigma * SQRT_PI)
    return _log_equivalent_stress(loading, m) + math.log(SQRT_PI)


def _profile_raw(
    m: float,
    log_c: float,
    a0: float,
    log_a0: float,
    n0: float,
    log_ds: float,
    n_cycles: np.ndarray,
) -> np.ndarray:
    """Crack length per cycle for raw physical parameters; +inf at and
    beyond the divergence cycle. ``log_a0`` is ``math.log(a0)`` and
    ``log_ds`` is :func:`_log_ds`.

    Uses the integration-consistent closed form
    ``a = (a0^e + e * C * (ds * sqrt(pi))^m * (N - N0))^(1/e)`` with
    ``e = 1 - m/2``, evaluated in the factored shape
    ``a0 * exp(log1p(r) / e)`` with ``r = e * rate * dn * a0^(-e)`` so the
    m -> 2 limit is reached without cancellation: a few 1e-15 relative
    however close m is to 2. At m == 2 exactly, where e = 0, the exponential
    solution ``a0 * exp(C * (ds*sqrt(pi))^2 * dn)`` is used. A zero rate
    (log C underflowing exp, the C = 0 surrogate) gives a0 at every cycle.

    A curve overflowing to +inf warns of nothing: inside
    :func:`ignore_float_errors` (every sampling stage) this opens no error
    state; called on its own it enters one.
    """
    if not FLOAT_ERRORS_IGNORED.get():
        with ignore_float_errors():
            return _profile_raw(m, log_c, a0, log_a0, n0, log_ds, n_cycles)
    # N - 0.0 is N itself, so the common n0 = 0 needs no copy
    dn = n_cycles - n0 if n0 else n_cycles
    if m == 2.0:
        try:
            rate = math.exp(log_c + 2.0 * log_ds)
        except OverflowError:
            # infinite rate: instant divergence everywhere except dn = 0
            return np.where(dn == 0.0, a0, np.where(dn > 0.0, np.inf, 0.0))
        return a0 * np.exp(rate * dn)
    e = 1.0 - m / 2.0
    log_scale = log_c + m * log_ds - e * log_a0
    try:
        scale = e * math.exp(log_scale)
    except OverflowError:
        scale = e * math.inf
    if math.isfinite(scale):
        r = scale * dn
    else:
        # infinite rate: instant divergence everywhere except dn = 0
        r = np.where(dn == 0.0, 0.0, scale * dn)
    # in floating point 1 + r > 0 exactly when r > -1, so the divergence
    # test needs no 1 + r array
    if np.minimum.reduce(r) > -1.0:
        return a0 * np.exp(np.log1p(r) / e)
    diverged = r <= -1.0
    return np.where(diverged, np.inf, a0 * np.exp(np.log1p(np.where(diverged, 0.0, r)) / e))


def _profile_rows(
    m: np.ndarray, log_c: np.ndarray, log_ds: np.ndarray, a0: float, n0: float, n_cycles
) -> np.ndarray:
    """:func:`_profile_raw` for one parameter row per entry of ``m``,
    ``log_c`` and ``log_ds = log(ds * sqrt(pi))``; returns ``[rows, cycles]``
    with +inf at and beyond each row's divergence cycle."""
    dn = n_cycles - n0
    out = np.empty((m.size, dn.size))
    m_two = m == 2.0
    grow = ~m_two
    with np.errstate(over="ignore", invalid="ignore"):
        if m_two.any():
            rate = np.exp(log_c[m_two] + 2.0 * log_ds[m_two])
            x = rate[:, None] * dn
            # infinite rate: instant divergence everywhere except dn = 0
            x[np.isinf(rate)[:, None] & (dn == 0.0)] = 0.0
            out[m_two] = a0 * np.exp(x)
        if grow.any():
            e = 1.0 - m[grow] / 2.0
            log_scale = log_c[grow] + m[grow] * log_ds[grow] - e * math.log(a0)
            scale = e * np.exp(log_scale)
            r = scale[:, None] * dn
            # infinite rate: instant divergence everywhere except dn = 0
            r[np.isinf(scale)[:, None] & (dn == 0.0)] = 0.0
            diverged = 1.0 + r <= 0.0
            out[grow] = np.where(
                diverged,
                np.inf,
                a0 * np.exp(np.log1p(np.where(diverged, 0.0, r)) / e[:, None]),
            )
    return out


class DegradationModel:
    """Contract shared by all model families.

    A model evaluates the deterministic degradation curve for a vector of
    dimensionless parameters at the requested cycles. ``predict`` never
    raises for inadmissible parameters or diverged growth; it returns +inf
    entries instead, which likelihoods map to -inf and trajectory code treats
    as threshold-crossed. All evaluations are pure functions of their inputs.
    """

    family: str
    likelihood: str
    n_theta: int
    theta_labels: tuple[str, ...]
    nominal_scales: tuple[float, ...]

    #: generous per-component range of dimensionless values that are
    #: physically meaningful (parameters are defined relative to nominals,
    #: so everything real sits near 1); used to window mode searches, never
    #: to constrain a posterior
    plausible_lo: tuple[float, ...]
    plausible_hi: tuple[float, ...]

    #: the smallest cycle index the curve is defined at
    min_cycle: float = 0.0

    def predict(self, theta: np.ndarray, cycles) -> np.ndarray:
        raise NotImplementedError

    def predict_batch(self, theta: np.ndarray, cycles) -> np.ndarray:
        """Curves for every row of ``theta`` (``[n, n_theta] -> [n, m]``),
        equal to :meth:`predict` row by row. ``cycles`` is shared by every
        row, or ``[n, m]`` with row ``i`` at ``cycles[i]``. This default
        stacks :meth:`predict`; the built-in families evaluate closed
        forms."""
        theta = np.asarray(theta, dtype=float)
        k = np.atleast_1d(np.asarray(cycles))
        per_row = k.ndim == 2
        out = np.empty((theta.shape[0], k.shape[-1] if per_row else k.size))
        for i, row in enumerate(theta):
            out[i] = self.predict(row, k[i] if per_row else cycles)
        return out

    def admissible(self, theta: np.ndarray) -> bool:
        raise NotImplementedError

    def scan_bound(self, theta: np.ndarray, k0, k1):
        """Bound on every row's curve over the cycles [k0, k1], or None.

        ``k0`` and ``k1`` are floats shared by every row or per-row ``[n]``
        arrays. A family with a closed form returns
        ``(value, slope, magnitude)``, three ``[n]`` arrays: the curve at
        ``k0``, a bound S on |dQ/dk| over [k0, k1] and a bound M on the
        magnitude of each term summed there (so on the curve's rounding).
        The battery first-crossing scan uses them to skip rows that provably
        stay above the floor; see :data:`hbprog.prognosis.SCAN_ETA`. This
        default bounds nothing, so every row is evaluated.
        """
        return None

    def _nominals(self, nominals) -> tuple[float, ...]:
        """``nominals`` as floats, one per parameter of the family."""
        values = tuple(float(v) for v in nominals)
        if len(values) != self.n_theta:
            raise ValueError(
                f"family {self.family!r} takes {self.n_theta} nominals, got {len(values)}"
            )
        return values

    def normalize_gaussian(self, means, sds):
        """Map independent Gaussians on physical parameters to the
        dimensionless parameterization (exact linear rescaling)."""
        scales = np.asarray(self.nominal_scales, dtype=float)
        return np.asarray(means, float) / scales, np.asarray(sds, float) / np.abs(scales)


class ParisCrackModel(DegradationModel):
    """Paris-law crack growth bound to one specimen's geometry and loading.

    The equivalent stress amplitude of two-block loading is re-evaluated for
    every parameter vector, since it depends on the sampled exponent m;
    constant loading's ``log(ds * sqrt(pi))`` and ``log a0`` are computed
    once, at construction.
    """

    family = "paris"
    likelihood = "lognormal"
    n_theta = 2
    theta_labels = ("theta1", "theta2")
    plausible_lo = (0.05, 0.2)
    plausible_hi = (3.0, 2.5)

    def __init__(
        self,
        geometry: CrackGeometry,
        loading: LoadingSpec,
        nominals: tuple[float, float] = CRACK_NOMINALS,
    ):
        self.geometry = geometry
        self.loading = loading
        self.m0, self.log_c0 = self._nominals(nominals)
        self.nominal_scales = (self.m0, self.log_c0)
        self._log_a0 = math.log(geometry.a0)
        self._log_ds = _log_ds(loading, None) if loading.mode == "constant" else None

    def _m_log_c(self, theta) -> tuple[float, float] | None:
        """Physical (m, log C) of a parameter vector, or None when it is
        inadmissible: theta1 not positive, m = theta1 * m0 not finite (which
        also covers an overflowing product), or theta2 not finite."""
        t1, t2 = float(theta[0]), float(theta[1])
        m = t1 * self.m0
        if t1 > 0 and math.isfinite(m) and math.isfinite(t2):
            return m, t2 * self.log_c0
        return None

    def admissible(self, theta) -> bool:
        return self._m_log_c(theta) is not None

    def predict(self, theta, cycles) -> np.ndarray:
        n = np.atleast_1d(np.asarray(cycles, dtype=float))
        params = self._m_log_c(theta)
        if params is None:
            return np.full(n.shape, np.inf)
        m, log_c = params
        log_ds = self._log_ds if self._log_ds is not None else _log_ds(self.loading, m)
        geo = self.geometry
        return _profile_raw(m, log_c, geo.a0, self._log_a0, geo.n0, log_ds, n)

    def predict_batch(self, theta, cycles) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        n = np.atleast_1d(np.asarray(cycles, dtype=float))
        if n.ndim == 2:
            return super().predict_batch(theta, n)
        out = np.full((theta.shape[0], n.size), np.inf)
        t1, t2 = theta[:, 0], theta[:, 1]
        with np.errstate(over="ignore"):
            m = t1 * self.m0
        ok = (t1 > 0) & np.isfinite(m) & np.isfinite(t2)
        if not ok.any():
            return out
        m = m[ok]
        log_c = t2[ok] * self.log_c0
        log_ds = np.broadcast_to(_log_ds(self.loading, m), m.shape)
        out[ok] = _profile_rows(m, log_c, log_ds, self.geometry.a0, self.geometry.n0, n)
        return out

    def cycles_to_failure(self, theta, a_f: float | None = None) -> float:
        """Cycle count at which the crack reaches the critical length.

        Inverts the implemented closed form exactly (including the m = 2
        exponential branch). ``a_f`` overrides the geometry's critical length,
        which is how prognosis thresholds are applied. A growth rate that
        overflows diverges at once, so the crack fails at ``n0`` (where
        :meth:`predict` turns +inf). Raises :class:`NoFailureError` when
        C <= 0 leaves the crack static, and ValueError for an inadmissible
        ``theta`` or a log C that overflows.
        """
        params = self._m_log_c(theta)
        if params is None or not math.isfinite(params[1]):
            raise ValueError("theta1 must be positive and m, log C finite")
        m, log_c = params
        log_ds = self._log_ds if self._log_ds is not None else _log_ds(self.loading, m)
        geo = self.geometry
        af = geo.a_f if a_f is None else float(a_f)
        if af < geo.a0:
            raise ValueError("critical length below initial length")
        if af == geo.a0:
            return float(geo.n0)
        m_two = m == 2.0
        try:
            rate = math.exp(log_c + (2.0 if m_two else m) * log_ds)
        except OverflowError:
            return float(geo.n0)
        if rate == 0.0:
            raise NoFailureError("no finite failure time: crack growth rate is zero")
        if m_two:
            return geo.n0 + math.log(af / geo.a0) / rate
        e = 1.0 - m / 2.0
        # N_f = n0 + (af^e - a0^e) / (e * rate) in the cancellation-safe shape
        # n0 + a0^e * expm1(e * log(af/a0)) / (e * rate)
        num = math.exp(e * self._log_a0) * math.expm1(e * math.log(af / geo.a0))
        return geo.n0 + num / (e * rate)


_TINY = np.finfo(float).tiny

_NO_ERROR_STATE = contextlib.nullcontext()


def _curve_error_state():
    """The error state a battery curve evaluates in, so an overflowing
    exponential gives +inf without a warning: none of its own inside
    :func:`ignore_float_errors`, else one ignoring overflow and invalid."""
    if FLOAT_ERRORS_IGNORED.get():
        return _NO_ERROR_STATE
    return np.errstate(over="ignore", invalid="ignore")


#: below this argument exp rounds to exactly 0: e^-746 is under half the
#: smallest subnormal, 2^-1075 = e^-745.13
_EXP_ZERO_BELOW = -746.0


def _exp_in_place(x: np.ndarray) -> None:
    """``np.exp(x, out=x)`` with the same bytes. When an argument falls
    below ``_EXP_ZERO_BELOW`` the exact 0 of each such one is written, not
    computed: numpy's exp takes a slow path on arguments that underflow,
    and on the battery horizon scan most e^(dk) arguments do (about 10 ns
    an element against 0.5). ``initial`` lets the minimum take an empty
    array."""
    if np.minimum.reduce(x, axis=None, initial=0.0) < _EXP_ZERO_BELOW:
        np.exp(x, out=x, where=x >= _EXP_ZERO_BELOW)
        # every exp is >= 0, so what stays below is a skipped argument (a
        # NaN is neither, and stays NaN)
        x[x < _EXP_ZERO_BELOW] = 0.0
    else:
        np.exp(x, out=x)


def _exp_max(e0: np.ndarray, e1: np.ndarray) -> np.ndarray:
    """The larger of an exponential's values at the two ends of a cycle
    range (its maximum over the range, as it is monotone), raised to at
    least the smallest normal double. numpy's exp has a small relative
    error only for normal results: a subnormal one is off by up to a few
    units of 2^-1074 absolute, and the floor keeps that inside the
    relative slack the scan applies to the magnitude bound."""
    return np.maximum(np.maximum(e0, e1), _TINY)


class BatterySingleModel(DegradationModel):
    """Single-exponential capacity model, valid for cycle indices k >= 1."""

    family = "batt-single"
    likelihood = "gaussian"
    n_theta = 3
    theta_labels = ("theta1", "theta2", "theta3")
    plausible_lo = (0.01, 0.01, 0.01)
    plausible_hi = (3.0, 3.0, 3.0)
    min_cycle = 1.0

    def __init__(self, nominals: tuple[float, float, float] = BATT_SINGLE_NOMINALS):
        self.nominals = self._nominals(nominals)
        self.nominal_scales = self.nominals

    def _rows_ok(self, t: np.ndarray) -> np.ndarray:
        """The admissible rows of ``t``: finite, with a positive C0."""
        return np.isfinite(t).all(axis=1) & (t[:, 0] * self.nominals[0] > 0)

    def admissible(self, theta) -> bool:
        return bool(self._rows_ok(np.asarray(theta, dtype=float)[None])[0])

    def predict(self, theta, cycles) -> np.ndarray:
        return self.predict_batch(np.asarray(theta, dtype=float)[None], cycles)[0]

    def predict_batch(self, theta, cycles) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        k = np.atleast_1d(np.asarray(cycles, dtype=float))
        nom = self.nominals
        ok = self._rows_ok(t)
        if ok.any() and np.any(k < self.min_cycle):
            raise ValueError("cycle index below model domain (k >= 1 required)")
        c0, a, b = (t[:, j, None] * nom[j] for j in range(3))
        # in place, so a batch holds one [n, len] array; same values as
        # c0 + a * exp(b / k)
        with _curve_error_state():
            q = b / k
            np.exp(q, out=q)
            q *= a
            q += c0
        q[~ok] = np.inf
        return q

    def scan_bound(self, theta, k0, k1):
        """Q = c0 + a e^(b/k): value at k0, S = |ab|/k0^2 max(e^(b/k0),
        e^(b/k1)) and M = |c0| + |a| max(e^(b/k0), e^(b/k1)); see
        :meth:`DegradationModel.scan_bound`."""
        t = np.asarray(theta, dtype=float)
        c0, a, b = (t[:, j] * self.nominals[j] for j in range(3))
        with np.errstate(over="ignore", invalid="ignore"):
            e0 = np.exp(b / k0)
            value = e0 * a + c0
            e = _exp_max(e0, np.exp(b / k1))
            abs_a = np.abs(a)
            slope = abs_a * np.abs(b) / (k0 * k0) * e
            magnitude = np.abs(c0) + abs_a * e
        return value, slope, magnitude


class BatteryDoubleModel(DegradationModel):
    """Double-exponential capacity model, valid for cycle indices k >= 0."""

    family = "batt-double"
    likelihood = "gaussian"
    n_theta = 4
    theta_labels = ("theta1", "theta2", "theta3", "theta4")
    plausible_lo = (0.01, 0.01, 0.01, 0.01)
    plausible_hi = (3.0, 3.0, 3.0, 3.0)

    def __init__(self, nominals: tuple[float, float, float, float] = BATT_DOUBLE_NOMINALS):
        self.nominals = self._nominals(nominals)
        self.nominal_scales = self.nominals

    def _rows_ok(self, t: np.ndarray) -> np.ndarray:
        """The admissible rows of ``t``: finite, with a positive capacity
        a + c at cycle 0."""
        nom = self.nominals
        ok = np.isfinite(t).all(axis=1)
        # rows with a non-finite entry are zeroed for the sum: inf - inf would warn
        s = t if ok.all() else np.where(ok[:, None], t, 0.0)
        return ok & (s[:, 0] * nom[0] + s[:, 2] * nom[2] > 0)

    def admissible(self, theta) -> bool:
        return bool(self._rows_ok(np.asarray(theta, dtype=float)[None])[0])

    def predict(self, theta, cycles) -> np.ndarray:
        return self.predict_batch(np.asarray(theta, dtype=float)[None], cycles)[0]

    def predict_batch(self, theta, cycles) -> np.ndarray:
        t = np.asarray(theta, dtype=float)
        k = np.atleast_1d(np.asarray(cycles, dtype=float))
        nom = self.nominals
        ok = self._rows_ok(t)
        if ok.any() and np.any(k < 0):
            raise ValueError("cycle index must be >= 0")
        a, b, c, d = (t[:, j, None] * nom[j] for j in range(4))
        # in place, so a batch holds two [n, len] arrays; same values as
        # a * exp(b * k) + c * exp(d * k)
        with _curve_error_state():
            q = b * k
            np.exp(q, out=q)
            q *= a
            # the fast-fading term, whose arguments underflow over a long
            # horizon
            second = d * k
            _exp_in_place(second)
            second *= c
            q += second
        q[~ok] = np.inf
        return q

    def scan_bound(self, theta, k0, k1):
        """Q = a e^(bk) + c e^(dk): value at k0,
        S = |ab| max(e^(bk0), e^(bk1)) + |cd| max(e^(dk0), e^(dk1)) and
        M = |a| max(e^(bk0), e^(bk1)) + |c| max(e^(dk0), e^(dk1)); see
        :meth:`DegradationModel.scan_bound`."""
        t = np.asarray(theta, dtype=float)
        a, b, c, d = (t[:, j] * self.nominals[j] for j in range(4))
        with np.errstate(over="ignore", invalid="ignore"):
            eb0, ed0 = np.exp(b * k0), np.exp(d * k0)
            value = eb0 * a + ed0 * c
            eb, ed = _exp_max(eb0, np.exp(b * k1)), _exp_max(ed0, np.exp(d * k1))
            abs_a, abs_c = np.abs(a), np.abs(c)
            slope = abs_a * np.abs(b) * eb + abs_c * np.abs(d) * ed
            magnitude = abs_a * eb + abs_c * ed
        return value, slope, magnitude


#: the built-in model families by name
FAMILIES = {cls.family: cls for cls in (ParisCrackModel, BatterySingleModel, BatteryDoubleModel)}
