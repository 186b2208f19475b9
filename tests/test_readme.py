"""README's Library sketch: it runs as written and gives what its comments say.

The fenced block is executed statement by statement, so a renamed or
deleted name fails here; the value of each expression statement is then
checked against the comment at the end of its line.
"""

import ast
import math
from pathlib import Path

import numpy as np

from chargelimit import GAAS_LIKE, wire_snr

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_sketch() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library sketch\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0]


def _run(code: str):
    """Run ``code`` one top-level statement at a time; return its namespace
    and each expression statement's value with the comment ending its line."""
    namespace, values = {}, []
    lines = code.splitlines()
    for node in ast.parse(code).body:
        if isinstance(node, ast.Expr):
            value = eval(compile(ast.Expression(node.value), "README.md", "eval"), namespace)
            _, _, comment = lines[node.end_lineno - 1].partition("#")
            values.append((comment.strip(), value))
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    return namespace, values


def test_library_sketch_gives_the_values_its_comments_state():
    namespace, values = _run(_library_sketch())
    comments = [comment for comment, _ in values]
    assert comments == ["8.69e-7 e/sqrt(Hz)", "same SNR, any radius", "",
                        "~ sqrt(10), the analytic value", "True"]
    sensitivity, piped, snrs, empirical, within = (value for _, value in values)
    assert f"{sensitivity:.2e}" == "8.69e-07"
    closed = wire_snr(GAAS_LIKE, 1e6).snr
    assert abs(piped.snr - closed) <= 1e-12 * closed
    # the next line's comment: an array of radii gives an array, one SNR at each
    assert isinstance(snrs, np.ndarray) and snrs.shape == (31,)
    assert np.all(np.abs(snrs - closed) <= 1e-12 * closed)
    out = namespace["out"]
    assert abs(out.analytic_snr - math.sqrt(10.0)) <= 1e-12
    assert abs(empirical - math.sqrt(10.0)) <= 3.0 * out.snr_stderr
    assert within is True
