"""The package's public surface: what ``qmonty`` exports, and that every
exported name has a caller outside the tests."""

import ast

import qmonty
from conftest import ROOT

REMOVED = (
    "unique_count", "ell", "GameOutcomeDistribution", "outcome_distribution",
    "epsilon", "lambda_term", "fidelity", "is_special_unitary",
    "random_special_unitary",
)
# Exported names that may have no caller in the package, scripts or benchmark.
ALLOWED_UNCALLED = {
    "per_player_payoff": "the paper's n-party payoff; the n-party oracle will check it",
}


def test_exports_resolve_once_each_and_star_import_works():
    assert len(qmonty.__all__) == len(set(qmonty.__all__))
    namespace = {}
    exec("from qmonty import *", namespace)
    assert {name: namespace[name] for name in qmonty.__all__} == {
        name: getattr(qmonty, name) for name in qmonty.__all__
    }


def test_removed_names_not_exported():
    assert [name for name in REMOVED if name in qmonty.__all__ or hasattr(qmonty, name)] == []


def _references():
    """Every name that code in the package (bar ``__init__.py``), the
    scripts or the benchmark loads, reads as an attribute or spells as a
    string (as ``bench/tracing.py``'s tables do), outside the top-level
    definition that binds that name.  An import alone is not a use."""
    found = set()
    for folder in (ROOT / "src" / "qmonty", ROOT / "scripts", ROOT / "bench"):
        for path in sorted(folder.glob("*.py")):
            if path.name == "__init__.py":
                continue
            tree = ast.parse(path.read_text(encoding="utf-8"))
            own = {}
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                    own[node.name] = (node.lineno, node.end_lineno)
                elif isinstance(node, ast.Assign):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            own[target.id] = (node.lineno, node.end_lineno)
            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                    name = node.value
                else:
                    continue
                lo, hi = own.get(name, (0, -1))
                if not lo <= node.lineno <= hi:
                    found.add(name)
    return found


def test_every_export_has_a_caller_outside_tests():
    uncalled = set(qmonty.__all__) - _references()
    assert uncalled == set(ALLOWED_UNCALLED), sorted(uncalled ^ set(ALLOWED_UNCALLED))


def test_every_private_helper_has_a_caller_outside_tests():
    # A private top-level function or class that only the tests reach is a
    # leftover of code the package no longer runs.
    private = set()
    for path in sorted((ROOT / "src" / "qmonty").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name.startswith("_"):
                private.add(f"{path.stem}.{node.name}")
    assert private
    found = _references()
    assert sorted(name for name in private if name.split(".")[1] not in found) == []
