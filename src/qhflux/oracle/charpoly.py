"""Monte Carlo moments of the characteristic polynomial.

E[prod_j |Q(w_j)|^2] over the no-hole determinantal ensemble equals the
ratio of quasi-hole normalizations.  That ensemble, with density
exp(-b sum|z|^2) |Vandermonde|^2, is the eigenvalue law of G/sqrt(2b) for G
with independent entries whose real and imaginary parts are standard normals
(Ginibre 1965), so the estimator draws i.i.d. samples exactly.  With z_k
the eigenvalues of the drawn matrix A, prod_k |w_j - z_k|^2 = |det(w_j - A)|^2,
so each sample's log weight 2 sum_j log|det(w_j - A)| comes from one stacked
slogdet per hole, with no eigenvalue solve, and the weights are averaged in
the log domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..partition import HoleConfig, log_partition
from .plasma import PlasmaConfig


class PrecisionError(Exception):
    pass


@dataclass(frozen=True)
class CharpolyEstimate:
    log_estimate: float
    log_std_error: float
    n_samples: int
    n_effective: float
    log_exact: float
    max_share: float   # largest single-sample share of the mean; 1/n_samples at best

    @property
    def z_score(self) -> float:
        return (self.log_estimate - self.log_exact) / self.log_std_error


def exact_log_ratio(cfg: HoleConfig) -> float:
    """log( c(empty)^2 / c(w)^2 ) from the closed-form normalization."""
    with_holes = log_partition(cfg).log_value
    no_holes = log_partition(HoleConfig(w=(), N=cfg.N, b=cfg.b)).log_value
    return with_holes - no_holes


def ginibre_matrices(N: int, b: float, count: int, seed: int) -> np.ndarray:
    """(count, N, N) complex Ginibre matrices G/sqrt(2b), whose eigenvalues are
    exact draws from the no-hole mu = 1 plasma at field b."""
    # a (..., 2) row-major draw viewed as complex is complex(x, y) per entry
    g = np.random.default_rng(seed).standard_normal((count, N, N, 2)).view(complex)[..., 0]
    g /= math.sqrt(2.0 * b)
    return g


def charpoly_moment_mc(cfg: HoleConfig, mcmc: PlasmaConfig) -> CharpolyEstimate:
    """Estimate E[prod |Q(w_j)|^2] from i.i.d. Ginibre samples.

    `mcmc` supplies N, b and the seed; the sample count is the number of
    samples its chain would keep, len(range(burn_in, sweeps, thin)).
    """
    if cfg.n == 0:
        # the moment of an empty product is exactly 1: no error to estimate
        raise ValueError("the characteristic-polynomial moment needs at least one hole")
    if mcmc.holes or mcmc.mu != 1:
        raise ValueError("estimator needs samples from the no-hole mu = 1 density")
    if mcmc.N != cfg.N or mcmc.b != cfg.b:
        raise ValueError("sampler parameters must match the hole configuration")
    count = len(range(mcmc.burn_in, mcmc.sweeps, mcmc.thin))
    if count < 400:
        raise PrecisionError(f"only {count} samples; the error estimate "
                             "needs at least 400")
    g = ginibre_matrices(cfg.N, cfg.b, count, mcmc.seed)
    eye = np.eye(cfg.N)
    logs = np.zeros(count)
    for w in cfg.points():   # one hole at a time: two G-sized arrays at most
        logs += 2.0 * np.linalg.slogdet(w * eye - g)[1]
    shift = logs.max()
    y = np.exp(logs - shift)
    mean = float(y.mean())
    return CharpolyEstimate(
        log_estimate=float(shift) + math.log(mean),
        log_std_error=float(y.std(ddof=1)) / math.sqrt(count) / mean,
        n_samples=count,
        n_effective=count,
        log_exact=exact_log_ratio(cfg),
        max_share=float(y.max() / y.sum()),
    )
