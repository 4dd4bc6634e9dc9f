"""Every output byte rests on correctly rounded arithmetic.

IEEE 754 rounds ``+ - * /`` and ``sqrt`` correctly, so they give the same
bits on every conforming platform; ``math.fsum`` is exact before its one
rounding.  A float ``**`` (or ``pow``, or ``math.exp``, ``math.cbrt``, ...)
is left to the C library, which may round differently from one platform to
the next, and builtin ``sum`` compensates its floats since Python 3.12.  So
the package uses none of them: it squares and cubes by multiplication and
sums in order or by ``math.fsum``.
"""

import ast
from pathlib import Path

import fdrsim

_SOURCES = sorted(Path(fdrsim.__file__).parent.glob("*.py"))
# the math names with a platform-independent result
_MATH_NAMES = {"copysign", "fsum", "inf", "isfinite", "isnan", "nan", "sqrt"}


def _violations(tree: ast.AST) -> list[tuple[int, str]]:
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                node.op, ast.Pow):
            found.append((node.lineno, "a ** power"))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if node.func.id in ("pow", "sum"):
                found.append((node.lineno, f"a call of builtin {node.func.id}"))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id == "math"
              and node.attr not in _MATH_NAMES):
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found.extend((node.lineno, f"from math import {a.name}")
                         for a in node.names if a.name not in _MATH_NAMES)
    return sorted(found)


def test_package_arithmetic_is_correctly_rounded():
    assert len(_SOURCES) >= 8
    bad = [f"{path.name}:{line}: {what}"
           for path in _SOURCES
           for line, what in _violations(ast.parse(path.read_text("utf-8")))]
    assert bad == []


def test_the_check_sees_each_kind_of_call():
    source = """
import math
from math import cbrt
a = x ** 2
a **= 3
b = pow(x, 2)
c = sum(xs)
d = math.exp(x)
e = math.sqrt(x) + math.fsum(xs) + math.inf
f = dict(**kw)
"""
    assert _violations(ast.parse(source)) == [
        (3, "from math import cbrt"), (4, "a ** power"), (5, "a ** power"),
        (6, "a call of builtin pow"), (7, "a call of builtin sum"),
        (8, "math.exp")]
