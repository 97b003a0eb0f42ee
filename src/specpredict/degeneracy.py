"""Degeneracy classes: the weight exp(c/|omega|^q) and its parameter domain."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import _real


@dataclass(frozen=True)
class DegeneracyClass:
    """Parameters (q, c) of the signal class with a spectral zero at omega = 0.

    Membership requires |X(i*omega)| * exp(c/|omega|^q) to stay bounded, i.e.
    the transform must vanish at the origin at rate exp(-c/|omega|^q).  Only
    q > 1 with c > 0 is admitted; q in (0, 1) is the provably unpredictable
    regime and q = 1 is left undecided, so both are rejected here.
    """

    q: float
    c: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", _real("q", self.q, 1.0))
        object.__setattr__(self, "c", _real("c", self.c))

    @property
    def min_sharpness_exponent(self) -> float:
        """Smallest admissible predictor exponent, 2/(q-1); r must exceed it."""
        return 2.0 / (self.q - 1.0)


def log_weight(omega, q: float, c: float) -> np.ndarray:
    """log of the class weight, c/|omega|^q; +inf at the degeneracy point.

    Formed in the one buffer of |omega|."""
    out = np.array(omega, dtype=float)
    np.abs(out, out=out)
    nz = out > 0.0
    np.power(out, -q, out=out, where=nz)
    out *= c
    out[~nz] = np.inf
    return out
