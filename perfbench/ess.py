"""Per-component effective sample size of an MCMC chain.

Geyer (1992), "Practical Markov chain Monte Carlo", Statistical Science 7:473,
initial monotone sequence estimator: the autocorrelations are summed in
adjacent pairs Gamma_k = rho_{2k} + rho_{2k+1}; the sum stops before the
first non-positive pair and each pair is capped by its predecessor, so the
estimate of the integrated autocorrelation time is never inflated by the
noisy tail of the autocorrelation function.
"""

from __future__ import annotations

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) sample autocorrelation at lags 0..n-1, via FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    centered = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(centered, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    if acov[0] <= 0:
        return np.zeros(n)
    return acov / acov[0]


def ess_1d(x) -> float:
    """Effective sample size of one chain of scalar draws.

    A constant chain carries no information about its own spread and gets
    ESS 0.
    """
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    rho = autocorrelation(x)
    if rho[0] == 0:
        return 0.0
    n_pairs = n // 2
    pairs = rho[: 2 * n_pairs : 2] + rho[1 : 2 * n_pairs : 2]
    positive = pairs > 0
    m = n_pairs if positive.all() else int(np.argmin(positive))
    monotone = np.minimum.accumulate(pairs[:m])
    tau = -1.0 + 2.0 * float(monotone.sum())
    return float(n / tau) if tau > 0 else float(n)


def ess(samples) -> np.ndarray:
    """Per-component ESS of an (n_draws, dim) chain."""
    mat = np.asarray(samples, dtype=float)
    if mat.ndim == 1:
        mat = mat[:, None]
    return np.array([ess_1d(mat[:, j]) for j in range(mat.shape[1])])
