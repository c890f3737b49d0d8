"""The exactness invariant: no float on any decision path.

The modules that decide gates, formulations, certificates and LP text are
scanned as source: no ``float`` name, no float literal, no ``import math``,
and from ``math`` only its integer functions. Floats may appear only as
annulus display coordinates and in test-only checks.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "idealform"

EXACT_MODULES = ["linalg", "encoding", "cdc", "verify", "pwl", "lp_format"]

INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}


def float_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "float":
            found.append(f"line {node.lineno}: the name float")
        elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            found.append(f"line {node.lineno}: the literal {node.value!r}")
        elif isinstance(node, ast.Import) and any(a.name == "math" for a in node.names):
            found.append(f"line {node.lineno}: import math")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [f"line {node.lineno}: math.{a.name}" for a in node.names
                      if a.name not in INTEGER_MATH]
    return found


@pytest.mark.parametrize("module", EXACT_MODULES)
def test_module_has_no_float(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert float_uses(tree) == []


@pytest.mark.parametrize(
    "snippet",
    ["x = float(y)", "x = 0.5", "x = 1e6", "import math", "import os, math",
     "from math import log2", "x: float = 1"],
)
def test_the_scan_sees_each_kind_of_float(snippet):
    assert float_uses(ast.parse(snippet))


def test_integer_math_is_allowed():
    assert float_uses(ast.parse("from math import gcd, lcm\nx = 10**6")) == []
