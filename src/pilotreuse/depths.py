"""What the exact and the numeric layers share: the depths and their rates.

A network of L = 3^m cells has m reuse depths (`exponent_of_three`), and a
`RateProfile` holds one rate C_i per depth.  The exact layer (`assignment`,
`optimizer`'s closed forms and oracle, `verify`) reads nothing else of the
channel, so this module is plain Python: importing it, or any module of that
layer, loads no numpy.  The numeric layer (`hexgrid`, `channel`, `finitem`)
computes the profiles and moments and imports these names from here, with
the channel's one input rule (`_require_estimable`), which the plain-Python
finite-M model checks too.  `derive_rng` names the seeded substreams of
every draw; it imports numpy only when called, so `finitem` imports it at
its top and still loads no numpy.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:
    import numpy as np


def derive_rng(seed: int, *key: int) -> np.random.Generator:
    """Deterministic substream: the master seed plus an integer key path.

    Numpy is imported on the call, so the modules that import this name
    (`channel`, `finitem`) load it only when they draw.
    """
    import numpy as np

    return np.random.default_rng(np.random.SeedSequence([int(seed), *map(int, key)]))


def exponent_of_three(L: int) -> int:
    """Return m with L = 3^m, rejecting non-powers of 3."""
    if L < 3 or 3 ** (m := round(math.log(L, 3))) != L:
        raise ValueError(f"cell count must be a power of 3, got {L}")
    return m


def _require_estimable(gamma: float, trials: int = 1, threads: int = 1):
    """Channel inputs: gamma > 2 keeps torus interference finite, and the
    Monte Carlo counts are positive."""
    if not gamma > 2:
        raise ValueError(f"gamma must exceed 2, got {gamma}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The check of each kind of stored value.
_JSON_KINDS = {"a list of numbers": lambda v: isinstance(v, list) and all(map(_is_number, v)),
               "a string": lambda v: isinstance(v, str), "a number": _is_number,
               "an integer": lambda v: _is_number(v) and isinstance(v, int),
               "a boolean": lambda v: isinstance(v, bool)}
# The stored fields of a rate profile, in the order `to_json` writes them,
# and what each must be unless null; `from_json` reads no other key.
_PROFILE_FIELDS = {"gamma": "a number", "trials": "an integer", "seed": "an integer",
                   "hole_ratio": "a number", "wraparound": "a boolean", "source": "a string",
                   "C": "a list of numbers", "stderr": "a list of numbers"}


def _floats(values) -> tuple[float, ...]:
    """A flat sequence of numbers (a list, tuple or 1-D array) as floats."""
    try:
        # an array of another rank iterates to rows, or not at all
        if getattr(values, "ndim", 1) == 1:
            return tuple(map(float, values))
    except TypeError:
        pass
    raise ValueError("C and stderr must be 1-D arrays of equal length")


@dataclass
class RateProfile:
    """Per-depth rates C_0 < C_1 < ... (bits/symbol) with standard errors,
    each held as a tuple of floats."""

    C: tuple[float, ...]
    stderr: tuple[float, ...]
    source: str = "monte-carlo"
    gamma: Optional[float] = None
    trials: Optional[int] = None
    seed: Optional[int] = None
    hole_ratio: Optional[float] = None
    wraparound: Optional[bool] = None

    def __post_init__(self):
        self.C = _floats(self.C)
        self.stderr = _floats(self.stderr)
        if len(self.C) != len(self.stderr):
            raise ValueError("C and stderr must be 1-D arrays of equal length")
        if not all(map(math.isfinite, self.C + self.stderr)):
            raise ValueError(f"C and stderr must be finite, got C = {self.C} "
                             f"and stderr = {self.stderr}")
        # Exact and heavily sampled profiles are reliably increasing; a
        # violation there points at a geometry bug rather than noise.
        checked = self.source == "quadrature" or (self.trials or 0) >= 10_000
        if checked and not all(a < b for a, b in zip(self.C, self.C[1:])):
            raise ValueError(f"C must be strictly increasing, got {self.C}")

    @property
    def m(self) -> int:
        return len(self.C)

    def to_json(self) -> str:
        return json.dumps({key: getattr(self, key) for key in _PROFILE_FIELDS})

    @classmethod
    def from_json(cls, text: str) -> "RateProfile":
        d = json.loads(text)
        if not isinstance(d, dict):
            raise ValueError(f"a rate profile is a JSON object, got a {type(d).__name__}")
        fields = {key: value for key, value in d.items()
                  if key in _PROFILE_FIELDS and value is not None}
        if missing := [key for key in ("C", "stderr") if key not in fields]:
            raise ValueError(f"the rate profile has no {' or '.join(missing)}")
        for key, value in fields.items():
            if not _JSON_KINDS[_PROFILE_FIELDS[key]](value):
                raise ValueError(f"the rate profile's {key} must be "
                                 f"{_PROFILE_FIELDS[key]}, got {value!r}")
        return cls(**fields)


def synthetic_linear_profile(c0: float, slope: float, m: int) -> RateProfile:
    """Exactly linear profile C_i = c0 + slope*i, for optimizer exactness tests."""
    if slope <= 0:
        raise ValueError("slope must be positive (rates increase with depth)")
    if c0 <= 0:
        raise ValueError("c0 must be positive")
    return RateProfile(C=[c0 + slope * float(i) for i in range(m)], stderr=[0.0] * m,
                       source="synthetic-linear")
