"""``scripts/oneshot_ms.py``: its table of process times beyond the reference."""

import compileall
import importlib.util
import os
import py_compile
import shutil
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "oneshot_ms.py"


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


def test_fresh_bytecode_on_a_copy_before_and_after_compileall(tmp_path):
    fresh_bytecode = load_script().fresh_bytecode
    package = tmp_path / "chargelimit"
    shutil.copytree(ROOT / "src" / "chargelimit", package,
                    ignore=shutil.ignore_patterns("__pycache__"))
    modules = sorted(path.stem for path in package.glob("*.py"))
    assert "kernels" in modules
    assert fresh_bytecode(package) == []
    assert compileall.compile_dir(package, quiet=1)
    assert fresh_bytecode(package) == modules
    # a source whose mtime or size no longer matches its bytecode is stale
    kernels, cli = package / "kernels.py", package / "cli.py"
    stat = kernels.stat()
    os.utime(kernels, (stat.st_atime, stat.st_mtime + 2))
    with cli.open("a") as source:
        source.write("\n")
    assert fresh_bytecode(package) == [name for name in modules if name not in ("cli", "kernels")]
    # hash-based bytecode is fresh while the source's hash matches
    for mode in ("CHECKED_HASH", "UNCHECKED_HASH"):
        py_compile.compile(str(cli), invalidation_mode=py_compile.PycInvalidationMode[mode])
        assert "cli" in fresh_bytecode(package)
    cli.write_text(cli.read_text() + "\n")
    assert "cli" in fresh_bytecode(package)  # an unchecked hash is never compared
    py_compile.compile(str(cli), invalidation_mode=py_compile.PycInvalidationMode.CHECKED_HASH)
    cli.write_text(cli.read_text() + "\n")
    assert "cli" not in fresh_bytecode(package)
