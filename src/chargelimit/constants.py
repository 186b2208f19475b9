"""Physical constants.

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

from .errors import record

__all__ = ["PhysicalConstants", "CONSTANTS"]


@record
class PhysicalConstants:
    """CODATA 2018 constants plus derived vacuum atomic-scale quantities.

    The seven fields are pinned literals.  ``__post_init__`` derives six
    more from them and sets them after the seven, in this order: ``hbar``
    (reduced Planck constant, J s), ``e_sq_gauss`` (e^2/(4 pi eps0), J m),
    ``bohr_radius`` (vacuum Bohr radius a0, m), ``rydberg_energy``
    (vacuum Rydberg, J), ``rydberg_frequency`` (vacuum Rydberg / h, Hz)
    and ``conductance_quantum`` (e^2/h, S: the conductance of one
    spin-resolved mode, which every device model counts in).  All values
    are SI.
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

    def __post_init__(self) -> None:
        hbar = self.h / (2.0 * math.pi)
        e_sq = self.e * self.e / (4.0 * math.pi * self.eps0)
        a0 = hbar * hbar / (self.m_e * e_sq)
        ry = e_sq / (2.0 * a0)
        object.__setattr__(self, "hbar", hbar)
        object.__setattr__(self, "e_sq_gauss", e_sq)
        object.__setattr__(self, "bohr_radius", a0)
        object.__setattr__(self, "rydberg_energy", ry)
        object.__setattr__(self, "rydberg_frequency", ry / self.h)
        object.__setattr__(self, "conductance_quantum", self.e * self.e / self.h)


#: The constants instance used throughout the package.
CONSTANTS = PhysicalConstants()
