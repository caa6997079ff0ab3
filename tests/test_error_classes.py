"""One error class per CLI exit code: `errors.py` defines the base and the two
classes that `cli.main` maps to exit 2 and 3, and no other module defines one."""

import ast
from pathlib import Path

import pulsegate


def error_classes(path):
    """Names of the classes in one source file that look like exceptions by name or base."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ClassDef):
            bases = [ast.unparse(base).split(".")[-1] for base in node.bases]
            if any(name.endswith(("Error", "Exception")) for name in [node.name, *bases]):
                yield node.name


def test_errors_module_defines_one_class_per_exit_code():
    src = Path(pulsegate.__file__).resolve().parent
    found = {path.name: sorted(error_classes(path)) for path in sorted(src.glob("*.py"))}
    assert found.pop("errors.py") == ["InvalidInputError", "NumericalError", "PulsegateError"]
    assert not any(found.values()), {name: names for name, names in found.items() if names}
