"""Monte Carlo estimation of the per-depth asymptotic rates C_i.

With an unbounded antenna array the uplink rate of a user contaminated by
pilot-sharing users in other cells is log2(1 + beta_jj^2 / sum_l beta_jl^2),
where beta = (1/distance)^gamma is the slow-fading coefficient.  C_i is the
mean of that rate when the pilot is shared only within one depth-i coset:
one interfering user per cosharing cell, everyone placed uniformly in their
cell.  Distances are in units of the cell radius, so the profile does not
depend on the physical radius at all.

Cosets nest, so one draw of the tagged user and one user per other cell
serves every depth.  Trials are split into fixed-size chunks drawn from
``derive_rng(seed, DOMAIN_RATES, tagged_cell, chunk)``, so results are
bit-identical no matter how many workers process the chunks.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .hexgrid import DrawBuffers, HexLattice

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


def _require_estimable(gamma: float, trials: int):
    """Rate and mu estimator inputs: gamma > 2 keeps torus interference finite."""
    if not gamma > 2:
        raise ValueError(f"gamma must exceed 2, got {gamma}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")


@dataclass
class ChannelConfig:
    lattice: HexLattice
    gamma: float = 3.7
    trials: int = 100_000
    seed: int = 0

    def __post_init__(self):
        _require_estimable(self.gamma, self.trials)


@dataclass
class RateProfile:
    """Per-depth rates C_0 < C_1 < ... (bits/symbol) with standard errors."""

    C: np.ndarray
    stderr: np.ndarray
    source: str = "monte-carlo"
    gamma: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    hole_ratio: Optional[float] = None
    wraparound: Optional[bool] = None

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
            "hole_ratio": self.hole_ratio, "wraparound": self.wraparound,
            "source": self.source, "C": self.C.tolist(), "stderr": self.stderr.tolist(),
        })

    @classmethod
    def from_json(cls, text: str) -> "RateProfile":
        d = json.loads(text)
        return cls(C=np.array(d["C"]), stderr=np.array(d["stderr"]),
                   source=d.get("source", "monte-carlo"), gamma=d.get("gamma"),
                   trials=d.get("trials"), seed=d.get("seed"),
                   hole_ratio=d.get("hole_ratio"), wraparound=d.get("wraparound"))

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


def _sir_chunk(lattice: HexLattice, gamma: float, tagged_idx: int,
               n: int, rng: np.random.Generator) -> np.ndarray:
    """n SIR draws of the tagged user at every depth, shape (m, n).

    A cell's term goes to part[s], s the deepest depth whose coset it shares
    with the tagged cell; depth i's interference sums the parts s >= i.
    Every cell's draw and distances reuse the chunk's one set of buffers.
    """
    # cosets nest, so the depths a cell shares with the tagged one are 0..s
    shared = (lattice.coset == lattice.coset[tagged_idx]).sum(axis=1) - 1
    buffers = DrawBuffers(n)
    own = lattice.sample_cell_offsets(n, rng, buffers)
    num = (own[:, 0] ** 2 + own[:, 1] ** 2) ** (-gamma)
    part = np.zeros((lattice.m, n))
    for cell_idx in lattice.cosharing_indices(tagged_idx, 0):
        offs = lattice.sample_cell_offsets(n, rng, buffers)
        r = lattice.user_distances(tagged_idx, cell_idx, offs, buffers)
        r **= -2.0 * gamma
        part[shared[cell_idx]] += r
    return num / np.cumsum(part[::-1], axis=0)[::-1]


def _accumulate(task):
    vals = np.log2(1.0 + _sir_chunk(*task))
    return vals.sum(axis=1), (vals * vals).sum(axis=1)


def estimate_rate_profile(lattice: HexLattice, cfg: ChannelConfig,
                          threads: int = 1) -> RateProfile:
    """C_i = mean of log2(1+SIR) over cfg.trials draws, shared by every depth.

    Under wraparound every cell is equivalent and the tagged cell is cell 0;
    without wraparound the trials are divided evenly over all tagged cells,
    max(1, trials // L) each, and the profile records the draws made.  A cfg
    built for a lattice of another size or geometry is refused.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    given, configured = ((lat.L, lat.hole_ratio, lat.wraparound)
                         for lat in (lattice, cfg.lattice))
    if given != configured:
        raise ValueError(f"lattice (L, hole_ratio, wraparound) = {given} differs "
                         f"from cfg.lattice's {configured}")
    if lattice.wraparound:
        plans = [(0, cfg.trials)]
    else:
        plans = [(idx, max(1, cfg.trials // lattice.L)) for idx in range(lattice.L)]
    tasks = []
    for tagged_idx, n_cell in plans:
        for chunk_no, start in enumerate(range(0, n_cell, CHUNK)):
            n = min(CHUNK, n_cell - start)
            rng = derive_rng(cfg.seed, DOMAIN_RATES, tagged_idx, chunk_no)
            tasks.append((lattice, cfg.gamma, tagged_idx, n, rng))

    if threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(_accumulate, tasks))
    else:
        results = [_accumulate(t) for t in tasks]

    # results are in task order whatever the thread count
    sums, sumsqs = np.sum(results, axis=0)
    ns = float(sum(n_cell for _, n_cell in plans))
    C = sums / ns
    var = np.maximum(sumsqs - ns * C * C, 0.0) / np.maximum(ns - 1.0, 1.0)
    stderr = np.sqrt(var / ns)
    return RateProfile(C=C, stderr=stderr, source="monte-carlo",
                       gamma=cfg.gamma, trials=int(ns), seed=cfg.seed,
                       hole_ratio=lattice.hole_ratio, wraparound=lattice.wraparound)
