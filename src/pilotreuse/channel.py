"""Monte Carlo estimation of the per-depth asymptotic rates C_i.

With an unbounded antenna array the uplink rate of a user contaminated by
pilot-sharing users in other cells is log2(1 + beta_jj^2 / sum_l beta_jl^2),
where beta = (1/distance)^gamma is the slow-fading coefficient.  C_i is the
mean of that rate when the pilot is shared only within one depth-i coset:
one interfering user per cosharing cell, everyone placed uniformly in their
cell.  Distances are in units of the cell radius, so the profile does not
depend on the physical radius at all.

Reproducibility: trials are split into fixed-size chunks and every chunk
draws from ``derive_rng(seed, DOMAIN, depth, [cell,] chunk)``, so results are
bit-identical no matter how many workers process the chunks.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hexgrid import HexLattice

# Fixed chunking of Monte Carlo trials; part of the determinism contract.
CHUNK = 16384

# Domain tags for derive_rng, keeping independent parts of the library on
# non-colliding substreams of one master seed.
DOMAIN_RATES = 0
DOMAIN_MU = 1
DOMAIN_CDF = 2
DOMAIN_RANDOM_ASSIGN = 3


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream: the master seed plus an integer key path."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


@dataclass
class ChannelConfig:
    lattice: HexLattice
    gamma: float = 3.7
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if self.gamma <= 2:
            raise ValueError("gamma must exceed 2 for finite interference on the torus")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")


@dataclass
class RateProfile:
    """Per-depth rates C_0 < C_1 < ... (bits/symbol) with standard errors."""

    C: np.ndarray
    stderr: np.ndarray
    source: str = "monte-carlo"
    gamma: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None

    def __post_init__(self):
        self.C = np.asarray(self.C, dtype=float)
        self.stderr = np.asarray(self.stderr, dtype=float)
        if self.C.ndim != 1 or self.C.shape != self.stderr.shape:
            raise ValueError("C and stderr must be 1-D arrays of equal length")
        # Heavily sampled profiles are reliably increasing; a violation there
        # points at a geometry bug rather than noise.
        if (self.trials is not None and self.trials >= 10_000
                and not np.all(np.diff(self.C) > 0)):
            raise ValueError(f"C must be strictly increasing, got {self.C}")

    @property
    def m(self) -> int:
        return len(self.C)

    def to_json(self) -> str:
        return json.dumps({
            "gamma": self.gamma, "trials": self.trials, "seed": self.seed,
            "source": self.source, "C": self.C.tolist(), "stderr": self.stderr.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "RateProfile":
        d = json.loads(text)
        return cls(C=np.array(d["C"]), stderr=np.array(d["stderr"]),
                   source=d.get("source", "monte-carlo"), gamma=d.get("gamma"),
                   trials=d.get("trials"), seed=d.get("seed"))

    def csv_rows(self) -> list[tuple[int, float, float]]:
        return [(i, float(c), float(s)) for i, (c, s) in enumerate(zip(self.C, self.stderr))]


def synthetic_linear_profile(c0: float, slope: float, m: int) -> RateProfile:
    """Exactly linear profile C_i = c0 + slope*i, for optimizer exactness tests."""
    if slope <= 0:
        raise ValueError("slope must be positive (rates increase with depth)")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    C = c0 + slope * np.arange(m, dtype=float)
    return RateProfile(C=C, stderr=np.zeros(m), source="synthetic-linear")


def _sir_chunk(lattice: HexLattice, gamma: float, depth: int, tagged_idx: int,
               n: int, rng: np.random.Generator) -> np.ndarray:
    """n SIR draws for users of one depth-`depth` pilot, tagged cell fixed."""
    own = lattice.sample_cell_offsets(n, rng)
    num = (own[:, 0] ** 2 + own[:, 1] ** 2) ** (-gamma)
    denom = np.zeros(n)
    for cell_idx in lattice.cosharing_indices(tagged_idx, depth):
        offs = lattice.sample_cell_offsets(n, rng)
        denom += lattice.user_distances(tagged_idx, cell_idx, offs) ** (-2.0 * gamma)
    return num / denom


def _accumulate(task):
    lattice, gamma, depth, tagged_idx, n, rng = task
    vals = np.log2(1.0 + _sir_chunk(lattice, gamma, depth, tagged_idx, n, rng))
    return float(vals.sum()), float((vals * vals).sum())


def estimate_rate_profile(lattice: HexLattice, cfg: ChannelConfig,
                          threads: int = 1) -> RateProfile:
    """C_i = mean of log2(1+SIR) over cfg.trials draws at each depth.

    Under wraparound every cell is equivalent and the tagged cell is cell 0;
    without wraparound the trials are divided evenly over all tagged cells.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    m = lattice.m
    tasks = []
    weights_total = []
    for depth in range(m):
        if lattice.wraparound:
            n_total = cfg.trials
            plans = [(0, cfg.trials)]
        else:
            per_cell = max(1, cfg.trials // lattice.L)
            plans = [(idx, per_cell) for idx in range(lattice.L)]
            n_total = per_cell * lattice.L
        weights_total.append(n_total)
        for tagged_idx, n_cell in plans:
            for chunk_no, start in enumerate(range(0, n_cell, CHUNK)):
                n = min(CHUNK, n_cell - start)
                rng = derive_rng(cfg.seed, DOMAIN_RATES, depth, tagged_idx, chunk_no)
                tasks.append((depth, (lattice, cfg.gamma, depth, tagged_idx, n, rng)))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_accumulate, [t for _, t in tasks]))
    else:
        results = [_accumulate(t) for _, t in tasks]

    sums = np.zeros(m)
    sumsqs = np.zeros(m)
    for (depth, _), (s, ss) in zip(tasks, results):
        sums[depth] += s
        sumsqs[depth] += ss
    ns = np.array(weights_total, dtype=float)
    C = sums / ns
    var = np.maximum(sumsqs - ns * C * C, 0.0) / np.maximum(ns - 1.0, 1.0)
    stderr = np.sqrt(var / ns)
    return RateProfile(C=C, stderr=stderr, source="monte-carlo",
                       gamma=cfg.gamma, trials=cfg.trials, seed=cfg.seed)
