"""Physical constants and unit conversions.

Single source of the fundamental constants used everywhere else in the
package.  Values are CODATA 2018, hard-coded so results do not drift with
the installed scipy version.  Derived atomic-scale quantities (Bohr
radius, Rydberg energy/frequency) are computed from the pinned set
through one consistent chain, so algebraically equivalent formulas in the
device models agree to machine rounding rather than only to the ~1e-12
mutual consistency of independently tabulated CODATA entries.

Formulas quoted from the Gaussian-units literature are mapped to SI in
exactly one place: every ``e**2`` that multiplies an inverse length
becomes ``e**2 / (4*pi*eps0)``, exposed here as ``e_sq_gauss`` (units
J*m).  All modules use that attribute instead of spelling out the
substitution themselves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import require, require_nonnegative

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "energy_to_frequency",
    "frequency_to_energy",
    "energy_to_temperature",
    "temperature_to_energy",
    "thermal_voltage_threshold",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """CODATA 2018 constants plus derived vacuum atomic-scale quantities.

    The first eight fields are pinned literals; the rest are derived in
    ``__post_init__``.  All values are SI.
    """

    # SI defining constants (exact since the 2019 redefinition)
    e: float = 1.602176634e-19        # elementary charge [C]
    h: float = 6.62607015e-34         # Planck constant [J s]
    c: float = 299792458.0            # speed of light [m/s]
    k_B: float = 1.380649e-23         # Boltzmann constant [J/K]
    # CODATA 2018 recommended values
    m_e: float = 9.1093837015e-31     # electron rest mass [kg], u = 2.8e-40
    eps0: float = 8.8541878128e-12    # vacuum permittivity [F/m], u = 1.3e-21
    alpha: float = 7.2973525693e-3    # fine-structure constant, u = 1.1e-12

    # Derived; populated in __post_init__
    hbar: float = field(init=False)            # reduced Planck constant [J s]
    e_sq_gauss: float = field(init=False)      # e^2/(4 pi eps0) [J m]
    bohr_radius: float = field(init=False)     # vacuum Bohr radius a0 [m]
    rydberg_energy: float = field(init=False)  # vacuum Rydberg [J]
    rydberg_frequency: float = field(init=False)  # vacuum Rydberg / h [Hz]

    def __post_init__(self) -> None:
        hbar = self.h / (2.0 * math.pi)
        e_sq = self.e**2 / (4.0 * math.pi * self.eps0)
        a0 = hbar**2 / (self.m_e * e_sq)
        ry = e_sq / (2.0 * a0)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "e_sq_gauss", e_sq)
        object.__setattr__(self, "bohr_radius", a0)
        object.__setattr__(self, "rydberg_energy", ry)
        object.__setattr__(self, "rydberg_frequency", ry / self.h)


#: The constants instance used throughout the package.
CONSTANTS = PhysicalConstants()


def _require_finite(value: float, name: str) -> None:
    require(np.isfinite(value), f"{name} must be finite", value)


def energy_to_frequency(energy: float) -> float:
    """Convert an energy in joules to the equivalent frequency E/h in Hz."""
    _require_finite(energy, "energy")
    return energy / CONSTANTS.h


def frequency_to_energy(frequency: float) -> float:
    """Convert a frequency in Hz to the equivalent energy h*f in joules."""
    _require_finite(frequency, "frequency")
    return frequency * CONSTANTS.h


def energy_to_temperature(energy: float) -> float:
    """Convert an energy in joules to the equivalent temperature E/k_B in K."""
    _require_finite(energy, "energy")
    return energy / CONSTANTS.k_B


def temperature_to_energy(temperature: float) -> float:
    """Convert a temperature in K to the equivalent energy k_B*T in joules."""
    _require_finite(temperature, "temperature")
    return temperature * CONSTANTS.k_B


def thermal_voltage_threshold(temperature: float) -> float:
    """Bias voltage above which shot noise exceeds thermal noise.

    For a conductor carrying I = G*V, the shot term 2*e*I*df outgrows the
    Johnson term 4*k_B*T*G*df once V > 2*k_B*T/e.  Returns that threshold
    in volts.

    Parameters
    ----------
    temperature : float
        Temperature in kelvin, >= 0.
    """
    require_nonnegative(temperature, "temperature")
    return 2.0 * CONSTANTS.k_B * temperature / CONSTANTS.e
