"""Host-material parameters and effective atomic scales.

A semiconductor host renormalizes the hydrogenic scales that set every
detector figure of merit in this package: the effective Rydberg shrinks
by (m*/m_e)/epsilon_r**2 and the effective Bohr radius grows by
epsilon_r/(m*/m_e).  ``effective_scales`` applies that scaling once so
the device models never touch the raw material numbers.

Materials are looked up by name from a small built-in table (see
``data/materials.tab``); extra tables can be merged in from files of the
same format, e.g. via the CHARGE_LIMIT_MATERIALS environment variable
handled by the CLI.
"""

from __future__ import annotations

from importlib import resources
from pathlib import Path

from .constants import CONSTANTS
from .errors import (
    ParameterError, float_range_checked, isfinite, record, require, require_dielectric,
    require_positive, square,
)

__all__ = [
    "Material",
    "EffectiveScales",
    "effective_scales",
    "parse_materials_table",
    "load_materials_file",
    "builtin_materials",
    "canonical_name",
    "VACUUM",
    "GAAS_LIKE",
]


@record
class Material:
    """A host medium for the conduction electrons.

    Parameters
    ----------
    name : str
        Identifier used for table lookup and reporting.
    mass_ratio : float
        Effective mass over the free-electron mass, m*/m_e.  > 0.
    epsilon_r : float
        Relative (static) dielectric constant.  >= 1.
    """

    name: str
    mass_ratio: float
    epsilon_r: float

    def __post_init__(self) -> None:
        require_positive(self.mass_ratio, "mass_ratio")
        require_dielectric(self.epsilon_r)


@record
class EffectiveScales:
    """Hydrogenic scales rescaled for a host material (SI units)."""

    rydberg_energy: float    # effective Rydberg [J]
    rydberg_frequency: float  # effective Rydberg / h [Hz]
    bohr_radius: float       # effective Bohr radius [m]
    scale_factor: float      # (m*/m_e) / epsilon_r^2, dimensionless


@float_range_checked
def effective_scales(material: Material) -> EffectiveScales:
    """Return the effective Rydberg and Bohr radius inside a material.

    The binding-energy scale picks up (m*/m_e)/epsilon_r**2 and the
    length scale the inverse, epsilon_r/(m*/m_e).  For vacuum
    (mass_ratio = 1, epsilon_r = 1) the scale factor is exactly 1, so
    the returned values equal the vacuum constants exactly, not merely
    to rounding; that holds element by element for array fields too.
    """
    scale = material.mass_ratio / square(material.epsilon_r, "epsilon_r")
    scales = EffectiveScales(
        rydberg_energy=CONSTANTS.rydberg_energy * scale,
        rydberg_frequency=CONSTANTS.rydberg_frequency * scale,
        bohr_radius=CONSTANTS.bohr_radius * material.epsilon_r / material.mass_ratio,
        scale_factor=scale,
    )
    require((scale > 0.0) & isfinite(scales.rydberg_frequency) & isfinite(scales.bohr_radius),
            "mass_ratio and epsilon_r put the effective scales outside the float range",
            material.mass_ratio)
    return scales


def canonical_name(name: str) -> str:
    """Normalize a material name for lookup (case- and '-like'-insensitive)."""
    out = name.strip().lower()
    if out.endswith("-like"):
        out = out[: -len("-like")]
    return out


def parse_materials_table(lines, source: str = "<table>") -> dict[str, Material]:
    """Parse a whitespace-delimited materials table from an iterable of lines.

    Each non-blank, non-comment line is ``name  m_star_ratio  epsilon_r``.
    ``#`` starts a comment (full-line or trailing).  Returns a dict keyed
    by canonical name; later duplicate names override earlier ones.
    """
    table: dict[str, Material] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ParameterError(
                f"{source}:{lineno}: expected 'name m_star_ratio epsilon_r', got {raw.rstrip()!r}"
            )
        name = parts[0]
        try:
            mass_ratio = float(parts[1])
            epsilon_r = float(parts[2])
        except ValueError as exc:
            raise ParameterError(f"{source}:{lineno}: {exc}") from None
        try:
            mat = Material(name=name, mass_ratio=mass_ratio, epsilon_r=epsilon_r)
        except ParameterError as exc:
            raise ParameterError(f"{source}:{lineno}: {exc}") from None
        table[canonical_name(name)] = mat
    return table


def load_materials_file(path: str | Path) -> dict[str, Material]:
    """Load a materials table from a file path."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ParameterError(f"cannot read materials table {p}: {exc}") from None
    return parse_materials_table(text.splitlines(), source=str(p))


def builtin_materials() -> dict[str, Material]:
    """Return the table shipped with the package."""
    text = (
        resources.files("chargelimit")
        .joinpath("data/materials.tab")
        .read_text()
    )
    return parse_materials_table(text.splitlines(), source="builtin materials.tab")


#: Free electrons in vacuum — the reference host.
VACUUM = Material(name="vacuum", mass_ratio=1.0, epsilon_r=1.0)

#: Illustrative GaAs-like host (light effective mass, strong screening).
GAAS_LIKE = Material(name="gaas", mass_ratio=0.067, epsilon_r=12.9)
