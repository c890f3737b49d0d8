"""The exactness invariant: no float on any decision path.

The modules that decide gates, formulations, certificates and LP text are
scanned as source: no ``float`` name, no float literal, no ``import math``,
and from ``math`` only its integer functions. Floats may appear only as
annulus display coordinates and in test-only checks.

The gates and the hyperplane enumeration work on integer codes, so
``encoding`` and ``cdc`` do not name ``Fraction``, ``fractions`` or
``linalg.vec`` at all.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parent.parent / "src" / "idealform"

EXACT_MODULES = ["linalg", "encoding", "cdc", "verify", "pwl", "lp_format"]

INTEGER_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "perm", "prod"}

INTEGER_MODULES = ["encoding", "cdc"]

RATIONAL_NAMES = {"Fraction", "fractions", "vec"}


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


def rational_uses(tree: ast.AST) -> list[str]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in RATIONAL_NAMES:
            found.append(f"line {node.lineno}: the name {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in RATIONAL_NAMES:
            found.append(f"line {node.lineno}: the attribute {node.attr}")
        elif isinstance(node, ast.Import):
            found += [f"line {node.lineno}: import {a.name}" for a in node.names
                      if a.name.split(".")[0] in RATIONAL_NAMES]
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] in RATIONAL_NAMES:
                found.append(f"line {node.lineno}: from {node.module}")
            found += [f"line {node.lineno}: import of {a.name}" for a in node.names
                      if a.name in RATIONAL_NAMES]
    return found


@pytest.mark.parametrize("module", INTEGER_MODULES)
def test_module_names_no_rational(module):
    tree = ast.parse((SOURCE / f"{module}.py").read_text())
    assert rational_uses(tree) == []


@pytest.mark.parametrize(
    "snippet",
    ["from fractions import Fraction", "import fractions", "x = fractions.Fraction(1)",
     "from .linalg import rank, vec", "x = vec(y)", "x = linalg.vec(y)",
     "x = Fraction(1, 2)"],
)
def test_the_scan_sees_each_rational_name(snippet):
    assert rational_uses(ast.parse(snippet))


def test_integer_names_are_allowed():
    assert rational_uses(ast.parse("from .linalg import kernel, rank\nx = vector(y)")) == []


def test_integer_math_is_allowed():
    assert float_uses(ast.parse("from math import gcd, lcm\nx = 10**6")) == []
