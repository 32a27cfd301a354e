"""Physical constants, energy-unit conversion, and field-derived scales.

Everything downstream runs in "field units": lengths in l_F, energies in
eps_F, where

    l_F   = (hbar^2 / (2 m F))^(1/3)        natural length of a uniform force F
    eps_F = F * l_F = (hbar^2 F^2 / 2m)^(1/3)   matching energy

Public interfaces accept and return SI; the nondimensionalization keeps the
special-function arguments O(1)..O(1e7) instead of spreading over 300 decades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "PhysicalConstants",
    "FieldScales",
    "CODATA2018",
    "make_scales",
    "convert_energy",
    "EV",
]

# 1 eV in joules (SI definition, exact).
EV = 1.602176634e-19


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the electron dynamics, SI.

    h is stored alongside hbar; the pair must satisfy h = 2*pi*hbar.
    """

    hbar: float
    m_e: float
    q_e: float
    h: float

    def __post_init__(self):
        for name in ("hbar", "m_e", "q_e", "h"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"constant {name} must be positive and finite, got {v!r}")
        if abs(self.h - 2.0 * math.pi * self.hbar) > 1e-12 * self.h:
            raise ValueError("h and hbar are inconsistent (need h = 2*pi*hbar)")


# CODATA 2018 / 2019 SI redefinition. h and q_e are exact by definition,
# m_e carries the published uncertainty in its last two digits.
_H_EXACT = 6.62607015e-34
CODATA2018 = PhysicalConstants(
    hbar=_H_EXACT / (2.0 * math.pi),
    m_e=9.1093837015e-31,
    q_e=1.602176634e-19,
    h=_H_EXACT,
)


@dataclass(frozen=True)
class FieldScales:
    """Characteristic force, length, and energy of a uniform electric field.

    force_F = q_e * E_field points along -z by convention (the potential is
    V = +F z, so electrons accelerate toward negative z).
    """

    force_F: float
    length_lF: float
    energy_epsF: float
    constants: PhysicalConstants = CODATA2018


def make_scales(electric_field: float, constants: PhysicalConstants = CODATA2018) -> FieldScales:
    """Build FieldScales from an electric field strength in V/m.

    Raises ValueError for a non-positive or non-finite field.
    """
    if not (math.isfinite(electric_field) and electric_field > 0.0):
        raise ValueError(f"electric field must be positive and finite, got {electric_field!r}")
    force = constants.q_e * electric_field
    length = (constants.hbar**2 / (2.0 * constants.m_e * force)) ** (1.0 / 3.0)
    return FieldScales(
        force_F=force,
        length_lF=length,
        energy_epsF=force * length,
        constants=constants,
    )


# Linear factors to joules for the tag-based converter. "natural" (E/eps_F)
# needs a FieldScales and is handled separately.
_TO_JOULE = {
    "J": 1.0,
    "eV": EV,
    "ueV": 1e-6 * EV,
}


def convert_energy(value: float, from_unit: str, to_unit: str, scales: FieldScales | None = None) -> float:
    """Convert an energy between 'J', 'eV', 'ueV' and 'natural' (E / eps_F).

    Exact linear conversion; 'natural' requires `scales`. Unknown tags raise
    ValueError.
    """
    if from_unit == to_unit:
        return value
    if from_unit == "natural" or to_unit == "natural":
        if scales is None:
            raise ValueError("conversion to or from 'natural' units needs a FieldScales")
    if from_unit == "natural":
        joules = value * scales.energy_epsF
    else:
        try:
            joules = value * _TO_JOULE[from_unit]
        except KeyError:
            raise ValueError(f"unknown energy unit {from_unit!r}") from None
    if to_unit == "natural":
        return joules / scales.energy_epsF
    try:
        return joules / _TO_JOULE[to_unit]
    except KeyError:
        raise ValueError(f"unknown energy unit {to_unit!r}") from None
