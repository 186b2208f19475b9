"""Checks for the pinned constant set.

Anchor values are frozen literals from the published CODATA 2018 tables.
They are intentionally *not* read from scipy.constants at runtime: scipy
updates its tables (newer installs ship CODATA 2022) and the two editions
disagree in the 10th digit, which is exactly where these checks look.
"""

import math

from chargelimit import CONSTANTS

# 2019 SI redefinition: these four are exact by definition.
E_EXACT = 1.602176634e-19
H_EXACT = 6.62607015e-34
C_EXACT = 299792458.0
KB_EXACT = 1.380649e-23

# CODATA 2018 measured values (frozen literals, see module docstring).
M_E_2018 = 9.1093837015e-31
EPS0_2018 = 8.8541878128e-12
ALPHA_2018 = 7.2973525693e-3
BOHR_2018 = 5.29177210903e-11
RYDBERG_EV_2018 = 13.605693122994
RYDBERG_HZ_2018 = 3.2898419602508e15  # R_inf * c
HARTREE_EV_2018 = 27.211386245988


def rel(a, b):
    return abs(a - b) / abs(b)


def test_defining_constants_are_exact():
    assert CONSTANTS.e == E_EXACT
    assert CONSTANTS.h == H_EXACT
    assert CONSTANTS.c == C_EXACT
    assert CONSTANTS.k_B == KB_EXACT


def test_measured_constants_pinned():
    assert CONSTANTS.m_e == M_E_2018
    assert CONSTANTS.eps0 == EPS0_2018
    assert CONSTANTS.alpha == ALPHA_2018


def test_hbar_derived_from_h():
    assert CONSTANTS.hbar == H_EXACT / (2.0 * math.pi)


def test_coulomb_scale():
    # e^2 in Gaussian-flavoured form: e^2 / (4 pi eps0), units J*m.
    expected = E_EXACT**2 / (4.0 * math.pi * EPS0_2018)
    assert rel(CONSTANTS.e_sq_gauss, expected) < 1e-15


def test_bohr_radius_anchor():
    assert rel(CONSTANTS.bohr_radius, BOHR_2018) < 1e-9


def test_rydberg_energy_anchor_ev():
    assert rel(CONSTANTS.rydberg_energy / E_EXACT, RYDBERG_EV_2018) < 1e-9


def test_rydberg_frequency_anchor():
    assert rel(CONSTANTS.rydberg_frequency, RYDBERG_HZ_2018) < 1e-8


def test_rydberg_from_fine_structure():
    # Independent route: Ry = (1/2) m_e c^2 alpha^2 uses only {m_e, c, alpha},
    # none of which enter the eps0-based chain the package computes.
    independent = 0.5 * M_E_2018 * C_EXACT**2 * ALPHA_2018**2
    assert rel(CONSTANTS.rydberg_energy, independent) < 1e-8


def test_rydberg_from_bohr_radius():
    # Same chain, different algebra: Ry = hbar^2 / (2 m_e a0^2).
    alt = CONSTANTS.hbar**2 / (2.0 * CONSTANTS.m_e * CONSTANTS.bohr_radius**2)
    assert rel(CONSTANTS.rydberg_energy, alt) < 1e-12


def test_fine_structure_closure():
    # alpha = e^2/(4 pi eps0 hbar c); pinned alpha should close the loop.
    derived = CONSTANTS.e_sq_gauss / (CONSTANTS.hbar * CONSTANTS.c)
    assert rel(derived, ALPHA_2018) < 1e-9


def test_hartree_voltage_anchor():
    # 2 Ry / e in volts.
    assert rel(2.0 * CONSTANTS.rydberg_energy / CONSTANTS.e, HARTREE_EV_2018) < 1e-9


def test_rydberg_frequency_is_energy_over_h():
    assert CONSTANTS.rydberg_frequency == CONSTANTS.rydberg_energy / CONSTANTS.h
