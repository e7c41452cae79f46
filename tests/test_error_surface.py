"""Guards on the package's exception surface, read from the source with ast.

Every invalid input raises ``ValidationError``, a ``CurvlikeError``; the CLI
maps both to exit 2 and no caller tells finer classes apart, so none may come
back.  Builtin ``TypeError`` and ``ArithmeticError`` stay allowed for
internal invariants.
"""

import ast
from pathlib import Path

import curvlike

SOURCE = Path(curvlike.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text()) for path in sorted(SOURCE.glob("*.py"))}

PACKAGE_ERRORS = {"CurvlikeError", "ValidationError"}
ALLOWED_RAISES = PACKAGE_ERRORS | {"TypeError", "ArithmeticError"}


def _name(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _classes(tree) -> list[ast.ClassDef]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]


def _is_exception_class(node: ast.ClassDef) -> bool:
    bases = {_name(base) for base in node.bases}
    return any(
        base is not None and (base in PACKAGE_ERRORS or base.endswith(("Error", "Exception")))
        for base in bases
    )


def test_errors_module_defines_exactly_the_two_classes():
    assert {node.name for node in _classes(MODULES["errors"])} == PACKAGE_ERRORS


def test_no_other_module_defines_an_exception():
    offenders = [
        f"{module}.{node.name}"
        for module, tree in MODULES.items()
        if module != "errors"
        for node in _classes(tree)
        if _is_exception_class(node)
    ]
    assert offenders == []


def test_every_raise_names_an_allowed_class():
    """``raise X(...)``, ``raise X`` and ``raise helper(...)`` where the
    helper's return annotation is the class; a bare ``raise`` re-raises."""
    offenders = []
    for module, tree in MODULES.items():
        returns = {
            node.name: _name(node.returns)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
        }
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = _name(exc)
            raised = name if name in ALLOWED_RAISES else returns.get(name)
            if raised not in ALLOWED_RAISES:
                offenders.append(f"{module}.py:{node.lineno} raises {name}")
    assert offenders == []


def test_all_has_no_duplicates_and_every_entry_resolves():
    names = curvlike.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(curvlike, name)]
    assert missing == []
    assert PACKAGE_ERRORS <= set(names)
