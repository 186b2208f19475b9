"""``scripts/oneshot_ms.py``: its table of process times beyond the reference."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "oneshot_ms.py"


def load_script():
    spec = importlib.util.spec_from_file_location("oneshot_ms", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_table_gives_best_and_median_beyond_the_reference():
    module = load_script()
    assert module.REFERENCE == "reference"
    lines = module.table({"reference": [70.0, 60.0, 90.0], "wire": [130.0, 110.0, 200.0]})
    assert lines[0].split() == ["command", "best", "ms", "median", "ms", "best-ref",
                                "median-ref"]
    assert lines[1].split() == ["reference", "60.0", "70.0", "0.0", "0.0"]
    assert lines[2].split() == ["wire", "110.0", "130.0", "50.0", "60.0"]
