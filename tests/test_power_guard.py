"""No published bit rests on the C library's ``pow``.

Python's float ``**`` calls the C library's ``pow``, whose variants round
differently from one library or SIMD level to the next, while ``x * x``
is one correctly rounded IEEE multiply.  So every ``**`` under
``src/chargelimit`` has (signed) literal operands, which Python folds
when it compiles, or is named in ``ALLOWED`` with its reason.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "chargelimit"

_NOT_YET = "moves published bits; ROADMAP item 2(d) re-records them with the multiply"

#: (module, source of the power as ``ast.unparse`` writes it) -> why it stays.
ALLOWED = {
    ("cli.py", "2 ** high_bits"): "an exact integer: the bound of an integer flag",
    ("kernels.py", "max(-lo, lo + size - 1) ** 4"):
        "an exact integer: the histogram sums' certificate n * W**4 < 2**53",
    ("montecarlo.py", "d ** 3"): _NOT_YET,
    ("montecarlo.py", "d ** 4"): _NOT_YET,
    ("montecarlo.py", "m2 ** 3"): _NOT_YET,
}


def _literal(node: ast.AST) -> bool:
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.UAdd, ast.USub)):
        node = node.operand
    return isinstance(node, ast.Constant)


def powers(text: str) -> list[str]:
    """The source of each ``**`` or ``**=`` in ``text`` with an operand that
    is not a (signed) literal."""
    found = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
            operands = (node.left, node.right)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Pow):
            operands = (node.target, node.value)
        else:
            continue
        if not all(map(_literal, operands)):
            found.append(ast.unparse(node))
    return found


def _source_powers() -> set[tuple[str, str]]:
    return {(path.name, power) for path in sorted(SRC.glob("*.py"))
            for power in powers(path.read_text())}


def test_every_power_has_literal_operands_or_a_reason():
    assert _source_powers() - set(ALLOWED) == set()


def test_every_allowed_power_is_still_in_the_source():
    assert set(ALLOWED) - _source_powers() == set()


def test_powers_finds_what_is_not_a_literal_power():
    text = "a = 2**53 + 2.0**-50 - (-3) ** +2\nb = x**2\nc = 2 ** n\nx **= 3\n"
    assert sorted(powers(text)) == ["2 ** n", "x ** 2", "x **= 3"]


def test_a_cube_planted_in_the_source_fails_the_guard():
    text = (SRC / "devices.py").read_text()
    assert powers(text) == []
    assert powers(text + "\ncube = x**3\n") == ["x ** 3"]
