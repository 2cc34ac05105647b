"""The package's layering rules, read from its source with ``ast``.

Per-dataset state lives on ``families.Problem``, so only ``families`` names
the memo's ``.fits``; warnings are caught only by the one fit helper that
refuses a warned fit and by the command line's entry point; and every
``SelectionReport`` comes from the one report builder.
"""

import ast
from pathlib import Path

import bestsubset

MODULES = sorted(Path(bestsubset.__file__).parent.glob("*.py"))


def sites(predicate):
    """``(module, enclosing function)`` of every node ``predicate`` accepts.

    The enclosing function is the outermost one, or None at module level.
    """
    found = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())

        def visit(node, function):
            if predicate(node):
                found.add((path.stem, function))
            if function is None and isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                function = node.name
            for child in ast.iter_child_nodes(node):
                visit(child, function)

        visit(tree, None)
    return found


def attribute(node, name):
    return isinstance(node, ast.Attribute) and node.attr == name


def names(node, name):
    return attribute(node, name) or (isinstance(node, ast.Name) and node.id == name)


def test_the_scan_finds_the_package():
    assert {"cli", "families", "oracle", "pdas", "tuning"} <= {path.stem for path in MODULES}


def test_only_families_names_the_memo():
    assert {module for module, _ in sites(lambda node: attribute(node, "fits"))} == {"families"}


def test_warnings_are_caught_in_two_places():
    found = sites(lambda node: names(node, "catch_warnings"))
    assert found == {("families", "quiet_fit"), ("cli", "main")}


def test_one_report_builder():
    found = sites(lambda node: isinstance(node, ast.Call) and names(node.func, "SelectionReport"))
    assert found == {("tuning", "fixed_k_report")}
