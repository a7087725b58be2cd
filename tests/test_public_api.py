"""The public surface: graphzeta.__all__ and the names the README lists."""

import ast
import re
from pathlib import Path

import graphzeta

README = Path(__file__).resolve().parent.parent / "README.md"


def test_public_names():
    names = graphzeta.__all__
    missing = [n for n in names if not hasattr(graphzeta, n)]
    assert not missing
    assert len(set(names)) == len(names)
    # the parenthesised list of the "Lower-level pieces" sentence
    text = README.read_text()
    start = text.index("Lower-level pieces (")
    listed = re.findall(r"`([^`]+)`", text[start:text.index(")", start)])
    assert listed
    assert [n for n in listed if n not in names] == []


def _module_level_names(tree):
    """The functions, classes and constants a module defines at its top
    level, dunder names aside."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [
                node.target]
            names += [t.id for t in targets if isinstance(t, ast.Name)]
    return [n for n in names if not n.startswith("__")]


def _references(tree):
    """Every name a module reads: loaded names, attributes, imported names
    and string constants, which monkeypatch.setattr and __all__ use."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.asname or node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def test_every_module_level_name_is_used():
    # a top-level function, class or constant of the package that nothing
    # in src/ or tests/ reads besides its own definition is dead code
    root = README.parent
    trees = {path: ast.parse(path.read_text()) for folder in ("src", "tests")
             for path in sorted((root / folder).rglob("*.py"))}
    refs = set().union(*map(_references, trees.values()))
    unused = [f"{path.stem}.{name}" for path, tree in trees.items()
              if "graphzeta" in path.parts
              for name in _module_level_names(tree) if name not in refs]
    assert unused == []
