"""Momentum and energy scales from the position-momentum uncertainty relation.

All arithmetic is in CGS units (erg, cm, g); conversions to SI and eV exist
for display only. The pipeline is dp = hbar / dx followed by
E = dp^2 / (2 m), so energies scale exactly as 1/c^2 when the length scale
is stretched by c. Finite inputs can still overflow: every result is checked
and an infinite one raises InvalidParamsError.
"""

import math
from dataclasses import dataclass, fields

from .errors import InvalidParamsError

ERG_PER_JOULE = 1e7
ERG_PER_EV = 1.602176634e-12  # elementary charge in CGS-consistent erg/eV


def _finite(value: float, name: str) -> float:
    """Return value, or raise when the arithmetic that formed it overflowed."""
    if not math.isfinite(value):
        raise InvalidParamsError(f"{name} overflows the float range for these inputs")
    return value


@dataclass(frozen=True)
class PhysicalParams:
    """Input constants in CGS units.

    Defaults: reduced Planck constant (erg*s), a single-nucleotide length
    scale (cm), the hydrogen-atom mass (g), and a typical water
    hydrogen-bond energy (erg).
    """

    hbar: float = 1.05e-27
    delta_x: float = 1.7e-8
    mass: float = 1.67e-24
    hbond_energy: float = 7e-14

    def __post_init__(self):
        for field in fields(self):
            value = getattr(self, field.name)
            if not (value > 0 and math.isfinite(value)):
                raise InvalidParamsError(f"{field.name} must be positive and finite, got {value!r}")


def momentum_uncertainty(params: PhysicalParams) -> float:
    """Momentum spread hbar / delta_x forced by confinement (g*cm/s)."""
    return _finite(params.hbar / params.delta_x, "momentum_uncertainty")


def kinetic_energy(dp: float, mass: float) -> float:
    """Kinetic energy dp^2 / (2 m) carried by a momentum spread dp (erg)."""
    if not mass > 0:
        raise InvalidParamsError(f"mass must be positive, got {mass!r}")
    return _finite(dp * dp / (2.0 * mass), "kinetic_energy")


def fluctuation_energy(params: PhysicalParams) -> float:
    """Kinetic energy of the uncertainty momentum at the params' length scale."""
    return kinetic_energy(momentum_uncertainty(params), params.mass)


@dataclass(frozen=True)
class ScaleComparison:
    """Fluctuation energies at delta_x and at scale_factor * delta_x."""

    scale_factor: float
    energy_base: float
    energy_scaled: float
    energy_ratio: float  # scaled / base, exactly scale_factor**-2
    base_to_hbond: float
    scaled_to_hbond: float

    def __post_init__(self):
        for field in fields(self):
            _finite(getattr(self, field.name), field.name)


def scale_comparison(params: PhysicalParams, scale_factor: float) -> ScaleComparison:
    """Compare the energy at delta_x against the one at scale_factor * delta_x.

    The scaled energy is derived through the exact identity
    E(c * dx) = E(dx) / c^2, so energy_ratio is the analytic value (1/9 for
    c = 3) rather than a rounded quotient; direct evaluation at the scaled
    length agrees to floating-point rounding.
    """
    if not (scale_factor > 0 and math.isfinite(scale_factor)):
        raise InvalidParamsError(f"scale_factor must be positive and finite, got {scale_factor!r}")
    energy_base = fluctuation_energy(params)
    square = scale_factor * scale_factor
    energy_ratio = 1.0 / square if square else math.inf
    energy_scaled = energy_base * energy_ratio
    return ScaleComparison(
        scale_factor=scale_factor,
        energy_base=energy_base,
        energy_scaled=energy_scaled,
        energy_ratio=energy_ratio,
        base_to_hbond=energy_base / params.hbond_energy,
        scaled_to_hbond=energy_scaled / params.hbond_energy,
    )


def erg_to_joule(energy: float) -> float:
    return energy / ERG_PER_JOULE


def erg_to_ev(energy: float) -> float:
    return _finite(energy / ERG_PER_EV, "energy in eV")
