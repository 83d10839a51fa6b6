"""Single-photon reflection and transmission off a chirally coupled emitter.

A two-level emitter sits in a 1-D waveguide and scatters a monochromatic
photon.  Everything here is dimensionless: detunings are measured in units
of the waveguide decay rate, and the coupling quality enters only through
the Purcell factor (waveguide rate over residual free-space rate).

Reflection and transmission amplitudes for a photon resonant branch:

    r = -1 / (1 - 2i*d + 1/P)        t = 1 + r

where d is the total detuning and P the Purcell factor.  P = math.inf is
the lossless limit and is represented exactly (1/inf == 0.0), so r = -1
on resonance with no floating-point fuzz.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .state import Matrix2

IDEAL = math.inf


@dataclass(frozen=True)
class EmitterParams:
    """Dimensionless operating point of one emitter.

    Parameters
    ----------
    purcell : float
        Purcell factor P > 0.  Use ``math.inf`` (or ``IDEAL``) for the
        lossless limit.
    detuning : float
        Global photon-emitter detuning d in units of the waveguide rate.
    offset : float
        Additional per-emitter detuning (inhomogeneous broadening), same
        units.  The scattering amplitudes see ``detuning + offset``.
    """

    purcell: float = IDEAL
    detuning: float = 0.0
    offset: float = 0.0

    def __post_init__(self) -> None:
        if not (self.purcell > 0) or math.isnan(self.purcell):
            raise InvalidParameterError(f"purcell must be > 0, got {self.purcell}")
        for name in ("detuning", "offset"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise InvalidParameterError(f"{name} must be finite, got {v}")

    @property
    def total_detuning(self) -> float:
        return self.detuning + self.offset

    def with_offset(self, offset: float) -> "EmitterParams":
        return EmitterParams(self.purcell, self.detuning, offset)


class InvalidParameterError(ValueError):
    """Physically meaningless parameter value."""


@dataclass(frozen=True)
class ScatterCoeffs:
    """Reflection and transmission amplitudes of one emitter."""

    r: complex
    t: complex

    @property
    def reflect_prob(self) -> float:
        return abs(self.r) ** 2

    @property
    def transmit_prob(self) -> float:
        return abs(self.t) ** 2

    @property
    def loss(self) -> float:
        """Probability scattered into free space, 1 - |r|^2 - |t|^2."""
        return 1.0 - self.reflect_prob - self.transmit_prob


def scatter_coeffs(params: EmitterParams) -> ScatterCoeffs:
    """Amplitudes for a photon hitting one emitter.

    Returns r and t with t = 1 + r.  In the lossless limit at zero
    detuning this is exactly r = -1, t = 0 (perfect mirror).
    """
    inv_p = 1.0 / params.purcell
    d = params.total_detuning
    r = -1.0 / (1.0 + inv_p - 2.0j * d)
    return ScatterCoeffs(r=r, t=1.0 + r)


def heralded_z_success(params: EmitterParams) -> float:
    """Click probability of the single-emitter heralded gate, |r|^2."""
    return scatter_coeffs(params).reflect_prob


def hwp_matrix(theta_deg: float) -> Matrix2:
    """Jones matrix of a half-wave plate at angle theta (degrees) in (H, V).

    Rows ((cos 2t, sin 2t), (sin 2t, -cos 2t)) of plain complex.  Real,
    symmetric, involutory.  22.5 degrees exchanges H/V with the diagonal
    basis, 45 swaps H and V.
    """
    two_t = 2.0 * math.radians(theta_deg)
    c, s = math.cos(two_t), math.sin(two_t)
    return (complex(c), complex(s)), (complex(s), complex(-c))


# HWP angle that splits H into amplitudes (1/sqrt3, sqrt2/sqrt3).
PREP_ANGLE_TWO_QUBIT = 0.5 * math.degrees(math.acos(1.0 / math.sqrt(3.0)))

# HWP angle that splits H into amplitudes (1/2, sqrt3/2).
PREP_ANGLE_THREE_QUBIT = 30.0
