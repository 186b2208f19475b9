"""chargelimit: speed and sensitivity limits of single-electron charge detectors.

Closed-form amplitude-SNR models for three electrometer archetypes —
cylindrical-wire FET, quantum point contact, and single-electron
transistor — built on a shared shot/thermal noise engine, plus a
seed-stable Monte Carlo counting simulator that cross-checks the
formulas.  See the README for the CLI.

Every public name of :mod:`~chargelimit.constants`,
:mod:`~chargelimit.devices`, :mod:`~chargelimit.materials` and
:mod:`~chargelimit.noise` is re-exported here; each module's own
``__all__`` is the one list of its names.  The simulator's names
(``SimConfig``, ``SimOutcome``, ``simulate_detection`` and
``validate_device``) are resolved from :mod:`chargelimit.montecarlo` on
first use, so importing the package, and every calculation on numbers,
needs no numpy.
"""

from . import constants, devices, materials, noise
from .constants import *
from .devices import *
from .errors import ParameterError
from .materials import *
from .noise import *

__version__ = "0.1.0"

_SIMULATOR = ("SimConfig", "SimOutcome", "simulate_detection", "validate_device")


def __getattr__(name: str):
    """The simulator's names, imported with numpy when first asked for."""
    if name in _SIMULATOR:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    *constants.__all__, *materials.__all__, *noise.__all__, *devices.__all__,
    *_SIMULATOR, "ParameterError", "__version__",
]
