"""Every public name has a caller outside the tests: a run, the CLI or the
benchmark reads each name in ``rectoamp.__all__``.  A name that only the
tests use belongs in ``tests/`` (as the general state evolution and the
tabulated law do).  Likewise every config key is read by the program: a key
that only its own class reads is a dead option."""

import ast
from dataclasses import fields
from pathlib import Path

import rectoamp
from rectoamp.harness import ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def read_names(path: Path) -> set:
    """The names that the module at ``path`` reads, as a variable or an
    attribute, outside the top-level definition of the name itself."""
    names = set()
    for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
        found = {node.id if isinstance(node, ast.Name) else node.attr
                 for node in ast.walk(stmt)
                 if isinstance(node, (ast.Name, ast.Attribute))}
        names |= found - {getattr(stmt, "name", None)}
    return names


def test_every_public_name_has_a_caller():
    package = ROOT / "src" / "rectoamp"
    callers = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    callers += (ROOT / "perfbench").glob("*.py")
    read = set().union(*(read_names(p) for p in callers))
    assert sorted(set(rectoamp.__all__) - read) == []


def test_every_config_key_is_read():
    """Each ``ExperimentConfig`` field is read as an attribute somewhere in
    ``src/`` outside the class body, which only declares and checks it."""
    read = set()
    for path in (ROOT / "src" / "rectoamp").glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(stmt, ast.ClassDef) and stmt.name == "ExperimentConfig":
                continue
            read |= {node.attr for node in ast.walk(stmt)
                     if isinstance(node, ast.Attribute)}
    assert sorted({f.name for f in fields(ExperimentConfig)} - read) == []
