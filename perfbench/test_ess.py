"""The Geyer ESS estimator against the analytic ESS of AR(1) chains.

Run with ``python3 -m pytest perfbench/test_ess.py``.
"""

import numpy as np
import pytest

from ess import ess, ess_1d


def ar1(phi: float, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    eps = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = eps[0] / np.sqrt(1.0 - phi**2)
    for t in range(1, n):
        x[t] = phi * x[t - 1] + eps[t]
    return x


@pytest.mark.parametrize("phi", [0.0, 0.5, 0.9, -0.3])
def test_ar1_matches_analytic_ess(phi):
    n = 200_000
    # integrated autocorrelation time of AR(1): (1 + phi) / (1 - phi)
    expected = n * (1.0 - phi) / (1.0 + phi)
    got = ess_1d(ar1(phi, n, seed=7))
    assert got == pytest.approx(expected, rel=0.1)


def test_per_component_and_degenerate_chains():
    chain = np.column_stack([ar1(0.5, 50_000, 1), ar1(0.9, 50_000, 2), np.ones(50_000)])
    values = ess(chain)
    assert values[0] > values[1] > 0
    assert values[2] == 0.0
