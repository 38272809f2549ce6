"""Each likelihood layout, and the rule by which training runs share a
kernel call, is private to the model module that owns it: no other module
of the package imports it or reaches it through the module. The prefix
tree's layouts (``hmm._lexicographic``, ``hmm._prefix_layout``) are
shared from ``hmm``: ``hmm._tree_log_likelihoods`` runs either kind's
filter on them, and scoring sorts each call's rows once
(``hmm._prefix_rows``), so no other module imports them."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "scengen"
OWNED = {
    "qhmm": {"_filter", "_running_layout", "_row_kernel", "_merged", "_packed"},
    "hmm": {"_trellis", "_lexicographic", "_prefix_layout"},
}


def owned_names_used(tree):
    """(owner, name) of each owned name that a module imports from its owner
    or reads as an attribute of the owner's module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            owner = (node.module or "").rsplit(".", 1)[-1]
            yield from ((owner, alias.name) for alias in node.names
                        if alias.name in OWNED.get(owner, ()))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            if node.attr in OWNED.get(node.value.id, ()):
                yield node.value.id, node.attr


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.stem)
def test_layouts_stay_in_their_module(path):
    used = {(owner, name) for owner, name in owned_names_used(ast.parse(path.read_text()))
            if owner != path.stem}
    assert not used, f"{path.name} uses layout internals of another module: {sorted(used)}"


def test_the_check_sees_an_import_and_an_attribute():
    tree = ast.parse("from .qhmm import KrausModel, _filter\n"
                     "from . import hmm\n"
                     "hmm._trellis(hmm._log_likelihoods)\n")
    assert sorted(owned_names_used(tree)) == [("hmm", "_trellis"), ("qhmm", "_filter")]


def defined_names(tree):
    """The names a module's top level defines: functions, classes and
    assigned names (not the ones it imports)."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (target.id for target in targets if isinstance(target, ast.Name))


@pytest.mark.parametrize("owner", sorted(OWNED))
def test_every_owned_name_is_defined_by_its_module(owner):
    # a stale entry guards nothing
    tree = ast.parse((PACKAGE / f"{owner}.py").read_text())
    assert not sorted(OWNED[owner] - set(defined_names(tree)))
