"""The library makes no BLAS or LAPACK call, so its outputs do not depend on
the BLAS thread count: no `@`, and no numpy routine that reaches BLAS or LAPACK."""

import ast
from pathlib import Path

import pulsegate

BLAS_NAMES = {"dot", "matmul", "inner", "vdot", "tensordot", "polyfit", "linalg"}


def blas_uses(path):
    """(line, what) of each matrix product and BLAS-backed numpy name in one source file."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in BLAS_NAMES:
            yield node.lineno, f".{node.attr}"
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            for alias in node.names:
                if alias.name in BLAS_NAMES or "linalg" in node.module:
                    yield node.lineno, f"{node.module}.{alias.name}"


def test_no_blas_or_lapack_in_source():
    src = Path(pulsegate.__file__).resolve().parent
    found = [f"{path.name}:{line} {what}" for path in sorted(src.glob("*.py"))
             for line, what in blas_uses(path)]
    assert not found, found
