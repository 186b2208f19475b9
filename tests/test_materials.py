"""Material records, effective energy/length scales, and table parsing."""

import math

import pytest
from hypothesis import given, strategies as st

from chargelimit import (
    CONSTANTS,
    GAAS_LIKE,
    VACUUM,
    Material,
    ParameterError,
    builtin_materials,
    canonical_name,
    effective_scales,
    load_materials_file,
    parse_materials_table,
)


def rel(a, b):
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------- records


def test_material_fields():
    m = Material("x", 0.2, 5.0)
    assert m.name == "x"
    assert m.mass_ratio == 0.2
    assert m.epsilon_r == 5.0


@pytest.mark.parametrize(
    "mass_ratio,epsilon_r",
    [(0.0, 1.0), (-1.0, 1.0), (math.nan, 1.0), (1.0, 0.5), (1.0, 0.0), (1.0, math.inf)],
)
def test_material_rejects_bad_parameters(mass_ratio, epsilon_r):
    with pytest.raises(ParameterError):
        Material("bad", mass_ratio, epsilon_r)


def test_vacuum_and_gaas_presets():
    assert VACUUM.mass_ratio == 1.0 and VACUUM.epsilon_r == 1.0
    assert GAAS_LIKE.mass_ratio == 0.067 and GAAS_LIKE.epsilon_r == 12.9


# ------------------------------------------------------- effective scales


def test_vacuum_scales_match_free_electron_exactly():
    s = effective_scales(VACUUM)
    # Bitwise identity, not just closeness: vacuum must short-circuit to the
    # free-electron values so no unity multiplications perturb the last bit.
    assert s.rydberg_energy == CONSTANTS.rydberg_energy
    assert s.rydberg_frequency == CONSTANTS.rydberg_frequency
    assert s.bohr_radius == CONSTANTS.bohr_radius
    assert s.scale_factor == 1.0


def test_effective_rydberg_scaling_rule():
    s = effective_scales(GAAS_LIKE)
    factor = 0.067 / 12.9**2
    assert rel(s.scale_factor, factor) < 1e-15
    assert rel(s.rydberg_energy, CONSTANTS.rydberg_energy * factor) < 1e-15
    assert rel(s.rydberg_frequency, CONSTANTS.rydberg_frequency * factor) < 1e-15


def test_effective_bohr_scaling_rule():
    s = effective_scales(GAAS_LIKE)
    assert rel(s.bohr_radius, CONSTANTS.bohr_radius * 12.9 / 0.067) < 1e-15


def test_gaas_magnitudes():
    s = effective_scales(GAAS_LIKE)
    # Light mass and strong screening pull the binding scale down ~2500x
    # and stretch the orbit to ~10 nm.
    assert rel(s.rydberg_frequency, 1.3245562846887381e12) < 1e-12
    assert 1.30e12 < s.rydberg_frequency < 1.33e12
    assert 10.0e-9 < s.bohr_radius < 10.4e-9
    assert rel(s.rydberg_energy / CONSTANTS.e, 5.477e-3) < 1e-3


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_scale_monotonicity(mass_ratio, epsilon_r):
    base = effective_scales(Material("a", mass_ratio, epsilon_r))
    heavier = effective_scales(Material("b", 2.0 * mass_ratio, epsilon_r))
    screened = effective_scales(Material("c", mass_ratio, 2.0 * epsilon_r))
    assert heavier.rydberg_energy > base.rydberg_energy
    assert heavier.bohr_radius < base.bohr_radius
    assert screened.rydberg_energy < base.rydberg_energy
    assert screened.bohr_radius > base.bohr_radius


@given(
    st.floats(min_value=1e-3, max_value=10.0),
    st.floats(min_value=1.0, max_value=100.0),
)
def test_scale_product_invariant(mass_ratio, epsilon_r):
    # Ry* a*^2 * m* is material-independent (equals Ry a0^2 m_e).
    s = effective_scales(Material("m", mass_ratio, epsilon_r))
    lhs = s.rydberg_energy * s.bohr_radius**2 * mass_ratio
    rhs = CONSTANTS.rydberg_energy * CONSTANTS.bohr_radius**2
    assert rel(lhs, rhs) < 1e-12


# -------------------------------------------------------------- name rules


@pytest.mark.parametrize(
    "raw,expected",
    [
        ("vacuum", "vacuum"),
        ("  GaAs  ", "gaas"),
        ("GaAs-like", "gaas"),
        ("SILICON-LIKE", "silicon"),
        ("InSb", "insb"),
    ],
)
def test_canonical_name(raw, expected):
    assert canonical_name(raw) == expected


# ----------------------------------------------------------- table parsing


def test_parse_table_basic():
    lines = [
        "# comment line",
        "",
        "vacuum 1.0 1.0",
        "gaas 0.067 12.9   # trailing note",
    ]
    table = parse_materials_table(lines, "inline")
    assert set(table) == {"vacuum", "gaas"}
    assert table["gaas"].epsilon_r == 12.9


def test_parse_table_later_duplicate_wins():
    table = parse_materials_table(["x 1.0 2.0", "x 0.5 3.0"], "inline")
    assert table["x"].mass_ratio == 0.5
    assert table["x"].epsilon_r == 3.0


def test_parse_table_canonicalizes_names():
    table = parse_materials_table(["GaAs-like 0.067 12.9"], "inline")
    assert "gaas" in table


@pytest.mark.parametrize(
    "line",
    ["gaas 0.067", "gaas 0.067 12.9 extra", "gaas zero 12.9", "gaas 0.067 0.5"],
)
def test_parse_table_rejects_malformed(line):
    with pytest.raises(ParameterError) as err:
        parse_materials_table(["ok 1.0 1.0", line], "somewhere")
    # Diagnostics must point at the offending source line.
    assert "somewhere:2" in str(err.value)


def test_load_materials_file(tmp_path):
    path = tmp_path / "extra.tab"
    path.write_text("# user table\nheavy 2.0 1.0\n")
    table = load_materials_file(path)
    assert table["heavy"].mass_ratio == 2.0


def test_load_materials_file_missing(tmp_path):
    with pytest.raises(ParameterError):
        load_materials_file(tmp_path / "nope.tab")


def test_builtin_materials():
    table = builtin_materials()
    assert table == {"vacuum": VACUUM, "gaas": GAAS_LIKE}
    assert list(table) == ["vacuum", "gaas"]
    table.clear()  # each call gets a table of its own
    assert builtin_materials() == {"vacuum": VACUUM, "gaas": GAAS_LIKE}
