"""Metropolis sampling of the 2D Coulomb-gas density.

The target log-density is
    L(z) = -b sum|z_k|^2 + 2 mu sum_{i<j} log|z_i-z_j| + 2 p sum_{k,j} log|z_k-w_j|,
sampled with single-particle sweeps and isotropic Gaussian proposals.  A
sweep runs in pure Python over PairLogCache, which keeps the pairwise logs
so that a move costs N - 1 fresh logarithms; log_density recomputes each
kept sample from scratch with numpy, independently of the cache.  Chains
are bit-reproducible from the seed.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from math import log

import numpy as np


@dataclass(frozen=True)
class PlasmaConfig:
    N: int
    b: float
    holes: tuple[complex, ...] = ()
    p: int = 1
    mu: int = 1
    sweeps: int = 2000
    burn_in: int = 1000
    thin: int = 10
    proposal_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(complex(w) for w in self.holes))
        if self.N < 1 or not self.b > 0 or self.thin < 1:
            raise ValueError("need N >= 1, b > 0 and thin >= 1")
        if self.p < 0 or self.mu < 1:
            raise ValueError("need p >= 0 and mu >= 1")
        if self.sweeps <= self.burn_in:
            raise ValueError("sweeps must exceed burn_in")
        if self.proposal_scale is None:
            object.__setattr__(self, "proposal_scale", 1.0 / math.sqrt(self.b))
        elif self.proposal_scale <= 0:
            raise ValueError("proposal_scale must be positive")


@dataclass(frozen=True)
class PlasmaSample:
    positions: np.ndarray
    log_density: float
    sweep_index: int


@dataclass
class ChainDiagnostics:
    acceptance_rate: float = 0.0
    proposals: int = 0
    accepted: int = 0
    tuning_warning: bool = False
    tau_int: float = math.nan   # of the thinned log-density series, in samples


# Sokal's window: the smallest W with W >= SOKAL_WINDOW * tau_int(W)
SOKAL_WINDOW = 5.0


def integrated_autocorrelation_time(series) -> float:
    """Sokal's windowed estimate of tau_int = 1 + 2 sum_{t>=1} rho(t).

    rho is the empirical autocorrelation (FFT, biased normalisation); the
    sum is cut at the first lag W with W >= SOKAL_WINDOW * tau_int(W), or
    at the series' end.  NaN for fewer than two values or a constant series.
    """
    x = np.asarray(series, dtype=float)
    n = x.size
    if n < 2:
        return math.nan
    x = x - x.mean()
    if not np.any(x):
        return math.nan
    f = np.fft.rfft(x, 2 * n)
    acov = np.fft.irfft(f * f.conj(), 2 * n)[:n]
    tau = 2.0 * np.cumsum(acov / acov[0]) - 1.0
    cut = np.arange(n) >= SOKAL_WINDOW * tau
    return float(tau[np.argmax(cut)] if cut.any() else tau[-1])


def log_density(cfg: PlasmaConfig, z: np.ndarray) -> float:
    val = -cfg.b * float(np.sum(np.abs(z) ** 2))
    if cfg.N > 1:
        d = z[:, None] - z[None, :]
        iu = np.triu_indices(cfg.N, 1)
        with np.errstate(divide="ignore"):
            val += 2.0 * cfg.mu * float(np.sum(np.log(np.abs(d[iu]))))
    if cfg.holes and cfg.p:
        w = np.asarray(cfg.holes)
        with np.errstate(divide="ignore"):
            val += 2.0 * cfg.p * float(np.sum(np.log(np.abs(z[:, None] - w[None, :]))))
    return val


class PairLogCache:
    """The chain state as Python objects, with the logarithms a move reuses.

    Holds the positions z as Python complexes, the pairwise logs
    L[i][k] = log|z_i - z_k| (with L[k][k] = 0) and the hole terms
    H[k] = sum_j log|z_k - w_j|.  A proposal takes N - 1 fresh logarithms
    for the row of the moved particle, plus one per hole; the old row's sum
    is taken afresh from the cached entries, so no rounding drift builds up
    along a chain.
    """

    def __init__(self, cfg: PlasmaConfig, z: np.ndarray):
        self.b = cfg.b
        self.two_mu = 2.0 * cfg.mu
        self.two_p = 2.0 * cfg.p
        self.holes = list(cfg.holes) if cfg.p else []
        z = np.asarray(z, dtype=complex)
        self.z = z.tolist()
        d = np.abs(np.subtract.outer(z, z))
        np.fill_diagonal(d, 1.0)
        with np.errstate(divide="ignore"):
            self.L = np.log(d).tolist()
            w = np.asarray(self.holes, dtype=complex)
            self.H = np.sum(np.log(np.abs(np.subtract.outer(z, w))), axis=1).tolist()

    def log_ratio(self, k: int, znew: complex) -> tuple[float, list | None, float]:
        """Log density ratio for moving particle k to znew, with the row of
        pairwise logs and the hole term that accept() stores."""
        zk = self.z[k]
        d = [znew - zi for zi in self.z]
        d[k] = 1.0
        try:
            row = list(map(log, map(abs, d)))
            h = sum([log(abs(znew - w)) for w in self.holes])
        except ValueError:  # log(0.0): znew lands on another particle or a hole
            return -math.inf, None, 0.0
        val = -self.b * (abs(znew) ** 2 - abs(zk) ** 2)
        val += self.two_mu * (sum(row) - sum(self.L[k]))
        val += self.two_p * (h - self.H[k])
        return val, row, h

    def accept(self, k: int, znew: complex, row: list, h: float):
        """Move particle k to znew, storing log_ratio's row and hole term."""
        self.z[k] = znew
        for Li, v in zip(self.L, row):
            Li[k] = v
        self.L[k] = row
        self.H[k] = h


def initial_positions(cfg: PlasmaConfig, rng: np.random.Generator) -> np.ndarray:
    radius = math.sqrt(max(cfg.mu * cfg.N + cfg.p * len(cfg.holes), 1) / cfg.b)
    u = rng.uniform(0.0, 1.0, cfg.N)
    phi = rng.uniform(0.0, 2.0 * math.pi, cfg.N)
    return radius * np.sqrt(u) * np.exp(1j * phi)


def iter_plasma_mcmc(cfg: PlasmaConfig, diagnostics: ChainDiagnostics | None = None):
    """Generator of thinned post-burn-in samples."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    cache = PairLogCache(cfg, initial_positions(cfg, rng))
    z, log_ratio, accept = cache.z, cache.log_ratio, cache.accept
    diag = diagnostics if diagnostics is not None else ChainDiagnostics()
    scale = cfg.proposal_scale
    kept = []
    for sweep in range(cfg.sweeps):
        # an (N, 2) row-major draw viewed as complex is complex(x, y) per row
        steps = rng.normal(0.0, scale, size=(cfg.N, 2)).view(complex)[:, 0].tolist()
        logu = np.log(rng.uniform(size=cfg.N)).tolist()
        for k in range(cfg.N):
            znew = z[k] + steps[k]
            ratio, row, h = log_ratio(k, znew)
            if logu[k] < ratio:
                accept(k, znew, row, h)
                diag.accepted += 1
        diag.proposals += cfg.N
        if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
            positions = np.array(z)
            kept.append(log_density(cfg, positions))
            yield PlasmaSample(positions=positions, log_density=kept[-1],
                               sweep_index=sweep)
    diag.acceptance_rate = diag.accepted / max(diag.proposals, 1)
    diag.tau_int = integrated_autocorrelation_time(kept)
    if not 0.05 <= diag.acceptance_rate <= 0.95:
        diag.tuning_warning = True
        warnings.warn(f"acceptance rate {diag.acceptance_rate:.3f} outside [0.05, 0.95]; "
                      "consider adjusting proposal_scale", RuntimeWarning)


def plasma_mcmc(cfg: PlasmaConfig) -> tuple[list[PlasmaSample], ChainDiagnostics]:
    diag = ChainDiagnostics()
    samples = list(iter_plasma_mcmc(cfg, diag))
    return samples, diag


def dump_samples(path, n: int, samples: list[PlasmaSample]):
    """Binary dump: little-endian int64 N, then 2N float64 per sample."""
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", n))
        for s in samples:
            flat = np.empty(2 * n)
            flat[0::2] = s.positions.real
            flat[1::2] = s.positions.imag
            fh.write(flat.astype("<f8").tobytes())


def load_samples(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        n = struct.unpack("<q", fh.read(8))[0]
        raw = np.frombuffer(fh.read(), dtype="<f8")
    out = []
    for row in raw.reshape(-1, 2 * n):
        out.append(row[0::2] + 1j * row[1::2])
    return out


def radial_density_l1(cfg: PlasmaConfig, samples: list[PlasmaSample],
                      bins: int = 40) -> float:
    """L1 distance between the empirical |z| distribution and the exact
    radial profile of the determinantal density (p = mu = 1, no holes)."""
    from ..kernel import weighted_orbitals

    if cfg.holes or cfg.mu != 1:
        raise ValueError("exact radial profile requires p*holes absent and mu = 1")
    radii = np.concatenate([np.abs(s.positions) for s in samples])
    r_max = 1.5 * math.sqrt(cfg.N / cfg.b)
    edges = np.linspace(0.0, r_max, bins + 1)
    counts, _ = np.histogram(radii, bins=edges)
    emp = counts / radii.size
    # exact bin masses: int_bin 2 pi r K_N(r, r) / N dr by fine midpoint rule
    sub = 32
    rr = np.linspace(0.0, r_max, bins * sub + 1)
    mid = 0.5 * (rr[1:] + rr[:-1])
    u = weighted_orbitals(cfg.b, cfg.N, mid.astype(complex))
    dens = 2.0 * math.pi * mid * np.sum(np.abs(u) ** 2, axis=1) / cfg.N
    mass = dens * np.diff(rr)
    exact = mass.reshape(bins, sub).sum(axis=1)
    tail_diff = abs((1.0 - float(emp.sum())) - (1.0 - float(exact.sum())))
    return float(np.sum(np.abs(emp - exact))) + tail_diff
