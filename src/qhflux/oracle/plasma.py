"""Metropolis sampling of the 2D Coulomb-gas density.

The target log-density is
    L(z) = -b sum|z_k|^2 + 2 mu sum_{i<j} log|z_i-z_j| + 2 p sum_{k,j} log|z_k-w_j|,
sampled with single-particle sweeps and isotropic Gaussian proposals.  No
particle moves before its turn, so a sweep builds every distance it can need
with numpy before its first accept decision; each move then reads one entry
of a running correction vector, which an accepted move updates with one
column.  plasma_mcmc keeps one _Sweep (point buffer, index tables) per
chain, and log_density recomputes the kept samples from scratch in one
stacked numpy call, independently of the sweep.  Chains are bit-reproducible
from the seed.
"""

from __future__ import annotations

import cmath
import math
import numbers
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from ..kernel import KernelSpec, weighted_orbitals


@dataclass(frozen=True)
class PlasmaConfig:
    N: int
    b: float
    holes: tuple[complex, ...] = ()
    p: float = 1
    mu: float = 1
    sweeps: int = 2000
    burn_in: int = 1000
    thin: int = 10
    proposal_scale: float | None = None
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "holes", tuple(complex(w) for w in self.holes))
        for name, least in (("N", 1), ("sweeps", 1), ("thin", 1), ("burn_in", 0), ("seed", 0)):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= least):
                raise ValueError(f"{name} must be an integer of at least {least}, got {value!r}")
        if self.sweeps <= self.burn_in:
            raise ValueError("sweeps must exceed burn_in")
        if not all(cmath.isfinite(w) for w in self.holes):
            raise ValueError("hole positions must be finite")
        if not (math.isfinite(self.p) and self.p >= 0):
            raise ValueError(f"p must be finite and at least 0, got {self.p!r}")
        if not (math.isfinite(self.mu) and self.mu >= 1):
            raise ValueError(f"mu must be finite and at least 1, got {self.mu!r}")
        KernelSpec(self.b, 1)    # b finite and positive
        if self.proposal_scale is None:
            object.__setattr__(self, "proposal_scale", 1.0 / math.sqrt(self.b))
        elif not (math.isfinite(self.proposal_scale) and self.proposal_scale > 0):
            raise ValueError("proposal_scale must be finite and positive, "
                             f"got {self.proposal_scale!r}")


@dataclass(frozen=True)
class PlasmaSample:
    positions: np.ndarray
    log_density: float


@dataclass
class ChainDiagnostics:
    acceptance_rate: float = 0.0
    proposals: int = 0
    accepted: int = 0
    tuning_warning: bool = False
    tau_int: float = math.nan   # of the thinned log-density series, in samples


# Sokal's window: the smallest W with W >= SOKAL_WINDOW * tau_int(W)
SOKAL_WINDOW = 5.0
# radial_density_l1 compares the |z| histogram over this many bins
RADIAL_BINS = 40


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


def log_density(cfg: PlasmaConfig, z: np.ndarray):
    """L(z) of one configuration z of shape (N,), as a float, or of each row
    of a stack of shape (S, N), as an (S,) array."""
    z = np.asarray(z)
    val = -cfg.b * np.sum(np.abs(z) ** 2, axis=-1)
    if cfg.N > 1:
        i, j = np.triu_indices(cfg.N, 1)
        with np.errstate(divide="ignore"):
            val += 2.0 * cfg.mu * np.sum(np.log(np.abs(z[..., i] - z[..., j])), axis=-1)
    if cfg.holes and cfg.p:
        w = np.asarray(cfg.holes)
        with np.errstate(divide="ignore"):
            val += 2.0 * cfg.p * np.sum(np.log(np.abs(z[..., :, None] - w)), axis=(-2, -1))
    return float(val) if z.ndim == 1 else val


class _Sweep:
    """One chain's sweep state: a buffer for the points (z, z', holes) with
    the holes already in place, the flat index of particle k's own entry in
    row k of the (N, 2N + holes) log-ratio block, and the identity site
    table.  Calls need numpy's divide and invalid warnings off: log 0 = -inf
    and inf - inf are expected."""

    def __init__(self, cfg: PlasmaConfig):
        n = cfg.N
        holes = cfg.holes if cfg.p else ()
        self.cfg, self.n, self.has_holes = cfg, n, bool(holes)
        self.two_mu = 2.0 * cfg.mu
        self.pts = np.empty(2 * n + len(holes), dtype=complex)
        self.pts[2 * n:] = holes
        self.diag = np.arange(n) * (self.pts.size + 1)
        self.sites = list(range(n))

    def __call__(self, z, steps, logu):
        """Move particles k = 0, ..., N-1 in turn to z'_k = z_k + steps[k],
        each when logu[k] is below the move's log density ratio.

        No particle moves before its turn, so every other particle i sits at
        z_i, or at z'_i once it has moved.  With
        R[k, i] = log(|z'_k - z_i| / |z_k - z_i|) the ratio of move k is the
        precomputed base
            b (|z_k|^2 - |z'_k|^2) + 2 p (hole terms) + 2 mu sum_{i != k} R[k, i]
        plus 2 mu moved[k], where moved[k] sums G[k, i] = log(|z'_k - z'_i| /
        |z_k - z'_i|) - R[k, i] over the particles i < k accepted earlier in
        the sweep; each accepted move i adds column G[:, i] to the vector
        moved.  A proposal onto a current particle, or onto a hole when
        p > 0, meets log 0 = -inf and is rejected.  One onto a site z_i
        vacated earlier in the sweep puts -inf in the base and +inf in the
        correction; that NaN ratio is taken afresh from the particles'
        current sites.  Returns the positions after the sweep (a new array),
        the accept flags and the N log ratios.
        """
        n, pts, two_mu = self.n, self.pts, self.two_mu
        pts[:n] = z
        np.add(z, steps, out=pts[n:2 * n])
        sq = np.abs(pts[:2 * n]) ** 2
        d = np.abs(pts[:2 * n, None] - pts)
        r = np.log(d[n:] / d[:n])   # r[k, j] = log(|z'_k - pts_j| / |z_k - pts_j|)
        r.ravel()[self.diag] = 0.0  # particle k's own entry
        c = self.cfg.b * (sq[:n] - sq[n:])
        if self.has_holes:
            c += 2.0 * self.cfg.p * r[:, 2 * n:].sum(axis=1)
        old = r[:, :n]
        base = c + two_mu * old.sum(axis=1)
        g = r[:, n:2 * n] - old
        # moved[k] = sum of g[k, i] over the particles i accepted so far, in
        # the order they were accepted
        moved = np.zeros(n)
        at = self.sites.copy()   # column of r at each particle's current site
        accepted, ratios = [], []
        for k, (bk, lu) in enumerate(zip(base.tolist(), logu.tolist())):
            ratio = bk + two_mu * moved.item(k)
            if ratio != ratio:   # -inf + inf: z'_k is a site vacated in this sweep
                ratio = float(c[k] + two_mu * r[k, at].sum())
            ratios.append(ratio)
            accepted.append(lu < ratio)
            if lu < ratio:
                moved += g[:, k]
                at[k] = n + k
        return pts[at], accepted, ratios


def initial_positions(cfg: PlasmaConfig, rng: np.random.Generator) -> np.ndarray:
    radius = math.sqrt(max(cfg.mu * cfg.N + cfg.p * len(cfg.holes), 1) / cfg.b)
    u = rng.uniform(0.0, 1.0, cfg.N)
    phi = rng.uniform(0.0, 2.0 * math.pi, cfg.N)
    return radius * np.sqrt(u) * np.exp(1j * phi)


def plasma_mcmc(cfg: PlasmaConfig) -> tuple[list[PlasmaSample], ChainDiagnostics]:
    """Thinned post-burn-in samples of one chain, and its diagnostics."""
    rng = np.random.default_rng(np.random.PCG64(cfg.seed))
    z = initial_positions(cfg, rng)
    diag = ChainDiagnostics()
    sweep_once = _Sweep(cfg)
    kept = []
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(cfg.sweeps):
            # an (N, 2) row-major draw viewed as complex is complex(x, y) per row
            steps = rng.normal(0.0, cfg.proposal_scale, size=(cfg.N, 2)).view(complex)[:, 0]
            logu = np.log(rng.uniform(size=cfg.N))
            z, accepted, _ = sweep_once(z, steps, logu)
            diag.accepted += sum(accepted)
            if sweep >= cfg.burn_in and (sweep - cfg.burn_in) % cfg.thin == 0:
                kept.append(z)
    diag.proposals = cfg.N * cfg.sweeps
    dens = log_density(cfg, np.array(kept)).tolist()
    samples = [PlasmaSample(positions=pos, log_density=ld) for pos, ld in zip(kept, dens)]
    diag.acceptance_rate = diag.accepted / max(diag.proposals, 1)
    diag.tau_int = integrated_autocorrelation_time([s.log_density for s in samples])
    if not 0.05 <= diag.acceptance_rate <= 0.95:
        diag.tuning_warning = True
        warnings.warn(f"acceptance rate {diag.acceptance_rate:.3f} outside [0.05, 0.95]; "
                      "consider adjusting proposal_scale", RuntimeWarning)
    return samples, diag


def dump_samples(path, n: int, samples: list[PlasmaSample]):
    """Binary dump: little-endian int64 N, then 2N float64 per sample
    (re z_1, im z_1, ..., re z_N, im z_N)."""
    pos = np.array([s.positions for s in samples], dtype="<c16").reshape(-1, n)
    with open(path, "wb") as fh:
        fh.write(struct.pack("<q", n) + pos.tobytes())


def load_samples(path) -> list[np.ndarray]:
    with open(path, "rb") as fh:
        n = struct.unpack("<q", fh.read(8))[0]
        raw = np.frombuffer(fh.read(), dtype="<c16")
    # each (re, im) pair is one little-endian complex128, read as it was written
    return list(raw.reshape(-1, n).astype(complex))


def radial_density_l1(cfg: PlasmaConfig, samples: list[PlasmaSample]) -> float:
    """L1 distance between the empirical |z| distribution and the exact
    radial profile of the determinantal density (p = mu = 1, no holes), over
    RADIAL_BINS equal bins out to 1.5 sqrt(N/b)."""
    if cfg.holes or cfg.mu != 1:
        raise ValueError("exact radial profile requires p*holes absent and mu = 1")
    radii = np.concatenate([np.abs(s.positions) for s in samples])
    r_max = 1.5 * math.sqrt(cfg.N / cfg.b)
    edges = np.linspace(0.0, r_max, RADIAL_BINS + 1)
    counts, _ = np.histogram(radii, bins=edges)
    emp = counts / radii.size
    # exact bin masses: int_bin 2 pi r K_N(r, r) / N dr by fine midpoint rule
    sub = 32
    rr = np.linspace(0.0, r_max, RADIAL_BINS * sub + 1)
    mid = 0.5 * (rr[1:] + rr[:-1])
    u = weighted_orbitals(cfg.b, cfg.N, mid.astype(complex))
    dens = 2.0 * math.pi * mid * np.sum(np.abs(u) ** 2, axis=1) / cfg.N
    mass = dens * np.diff(rr)
    exact = mass.reshape(RADIAL_BINS, sub).sum(axis=1)
    tail_diff = abs((1.0 - float(emp.sum())) - (1.0 - float(exact.sum())))
    return float(np.sum(np.abs(emp - exact))) + tail_diff
