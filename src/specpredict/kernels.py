"""Anti-causal rational kernels and the convolution they generate.

A kernel in this family is a real function supported on t <= 0 whose
transform is

    K(i*omega) = d(i*omega) / prod_j (i*omega - a_j),

with simple poles a_j > 0 strictly inside the right half-plane and
deg d < m.  Each such K is a linear combination of truncated exponentials:
with residues r_j = d(a_j) / prod_{k != j} (a_j - a_k),

    kappa(t) = -sum_j r_j e^{a_j t}   for t <= 0,     kappa(t) = 0 for t > 0.

The sign is forced by the e^{-i*omega*t} transform convention used by
:mod:`.spectral`; all other modules inherit it from here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral import FrequencyGrid, TimeSeries, _half_omegas, _real, _sequence, forward_transform, irfft_rows


# the numerator d = 1 of a kernel given by its poles alone
DEFAULT_NUMERATOR = (1.0,)


@dataclass(frozen=True)
class AnticausalKernel:
    """Poles {a_j} in (0, inf) and real numerator coefficients, ascending degree.

    Repeated poles are rejected: the residue logic assumes simple poles, and
    nothing downstream needs multiplicities.
    """

    poles: tuple
    numerator: tuple = DEFAULT_NUMERATOR

    def __post_init__(self) -> None:
        poles = tuple(_real("pole", a) for a in _sequence("poles", self.poles))
        if len(poles) < 1:
            raise ValueError("kernel needs at least one pole")
        scale = max(poles)
        for i in range(len(poles)):
            for j in range(i + 1, len(poles)):
                if abs(poles[i] - poles[j]) <= 1e-12 * scale:
                    raise ValueError(f"repeated pole {poles[i]!r}: poles must be distinct")
        numer = tuple(
            _real("numerator coefficient", b, -math.inf) for b in _sequence("numerator", self.numerator)
        )
        if not 1 <= len(numer) <= len(poles):
            raise ValueError(
                f"numerator degree must stay below the pole count {len(poles)}, "
                f"got {len(numer)} coefficients"
            )
        object.__setattr__(self, "poles", poles)
        object.__setattr__(self, "numerator", numer)

    @property
    def m(self) -> int:
        return len(self.poles)

    @property
    def max_pole(self) -> float:
        return max(self.poles)


def kernel_to_dict(kernel: AnticausalKernel) -> dict:
    """{"poles": [...], "numerator": [...]} (ascending degree), the one JSON form of a kernel."""
    return {"poles": list(kernel.poles), "numerator": list(kernel.numerator)}


def _numerator_at(kernel: AnticausalKernel, s) -> np.ndarray:
    """Evaluate the numerator polynomial at complex points s."""
    s = np.asarray(s, dtype=np.complex128)
    out = np.zeros_like(s)
    for coeff in reversed(kernel.numerator):
        out = out * s + coeff
    return out


def _transfer_at(kernel: AnticausalKernel, s: np.ndarray) -> np.ndarray:
    """K(s) = d(s) / prod_j (s - a_j) at an array of complex points s."""
    den = np.ones_like(s)
    for a in kernel.poles:
        den = den * (s - a)
    return _numerator_at(kernel, s) / den


def transfer(kernel: AnticausalKernel, grid: FrequencyGrid, sigma: float = 0.0) -> np.ndarray:
    """Sample K(s) = d(s) / prod_j (s - a_j) at s = sigma + i*omega, nodes 0..n/2.

    The default sigma = 0 samples the imaginary axis.  sigma must be a real
    number below min_j a_j; the samples on the line Re s = sigma are then
    the transform of the weighted kernel kappa(t) e^{-sigma t}, still
    supported on t <= 0.  The denominator
    never vanishes off the poles, so the values are finite.  Real
    coefficients make K(conj s) = conj K(s), so these nodes stand for the
    whole grid, as a real signal's half spectrum does.  The unpaired node
    n/2 stands for both of +-omega_max at once and receives their average,
    i.e. the real part.
    """
    sigma = _real("sigma", sigma, -math.inf, min(kernel.poles))
    values = _transfer_at(kernel, sigma + 1j * _half_omegas(grid))
    values[-1] = values[-1].real
    return values


def residues(kernel: AnticausalKernel) -> np.ndarray:
    """Partial-fraction residues r_j = d(a_j) / prod_{k != j} (a_j - a_k)."""
    poles = np.asarray(kernel.poles)
    out = np.empty(kernel.m)
    for j, a in enumerate(poles):
        others = np.delete(poles, j)
        out[j] = _numerator_at(kernel, a).real / np.prod(a - others)
    return out


def time_kernel(kernel: AnticausalKernel, grid: FrequencyGrid) -> TimeSeries:
    """Sample the anti-causal kernel: -sum_j r_j e^{a_j t} for t <= 0, else 0.

    The value at the t = 0 jump is the left limit -sum_j r_j.  The forward
    transform of these samples tracks :func:`transfer` with an O(a*delta_t)
    sampling error from the jump, so consistency checks against the transfer
    belong on fine grids (see the calibration table).
    """
    t = grid.times()
    r = residues(kernel)
    samples = np.zeros(grid.n)
    past = t <= 0.0
    with np.errstate(under="ignore"):
        for a, rj in zip(kernel.poles, r):
            samples[past] -= rj * np.exp(a * t[past])
    return TimeSeries(grid, samples)


def apply_anticausal(kernel: AnticausalKernel, x: TimeSeries) -> TimeSeries:
    """Anti-causal convolution y(t) = integral_t^inf kappa(t-s) x(s) ds.

    Computed as the inverse transform of K(i*omega) * X(i*omega) at nodes
    0..n/2.  The product realizes a circular convolution, so the result
    approximates the linear one only when the input carries >= n/4
    near-zero guard samples at each end of the window; the generators in
    :mod:`.signals` enforce that.
    """
    X = forward_transform(x).spectrum
    return TimeSeries(x.grid, irfft_rows(transfer(kernel, x.grid) * X, x.grid))
