"""Every public name has a caller outside the tests: a run, the CLI or the
benchmark reads each name in ``rectoamp.__all__``.  A name that only the
tests use belongs in ``tests/`` (as the general state evolution and the
tabulated law do).  Likewise every config key is read by the program: a key
that only its own class reads is a dead option, and the README documents
exactly the CLI's subcommands, the config keys and the schedule keys of a
run's metadata.  Importing the package loads no test-only dependency."""

import ast
import re
from dataclasses import fields
from pathlib import Path

import pytest

import rectoamp
from rectoamp import cli
from rectoamp.harness import KNOWN_METHODS, ExperimentConfig, parse_config, run_experiment

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


def test_readme_cli_block_names_every_subcommand(capsys):
    """The README's CLI block has one line per subcommand that ``rectoamp
    -h`` lists, and no other."""
    with pytest.raises(SystemExit):
        cli.main(["-h"])
    listed = re.search(r"\{([\w,-]+)\}", capsys.readouterr().out).group(1)
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"## CLI\s+```text\n(.*?)```", readme, re.S).group(1)
    documented = [line.split()[1] for line in block.splitlines() if line.strip()]
    assert sorted(documented) == sorted(listed.split(","))


def test_readme_config_table_names_every_key():
    """The first column of the README's config table names, in backticks,
    exactly the fields of ``ExperimentConfig``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    table = re.search(r"## Config format\n.*?\n(\| key \|.*?)\n\n", readme, re.S).group(1)
    documented = [name for row in table.splitlines()[2:]
                  for name in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(documented) == sorted(f.name for f in fields(ExperimentConfig))


def test_readme_methods_row_names_every_method():
    """The meaning column of the README config table's ``methods`` row
    names, in backticks, exactly ``harness.KNOWN_METHODS``."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    meaning = re.search(r"^\| `methods` \|([^|]*)\|", readme, re.M).group(1)
    assert sorted(re.findall(r"`([\w-]+)`", meaning)) == sorted(KNOWN_METHODS)


def test_readme_install_names_every_test_dependency():
    """The README's Install section names every package of ``pyproject.toml``'s
    ``test`` extra (read with a regex: ``tomllib`` is new in Python 3.11)."""
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    extra = re.search(r"^\[project\.optional-dependencies\]\n(?:.*\n)*?test = \[(.*?)\]",
                      pyproject, re.M | re.S).group(1)
    packages = [re.match(r"[\w.-]+", spec).group(0) for spec in re.findall(r'"([^"]+)"', extra)]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    install = re.search(r"^## Install\n(.*?)^## ", readme, re.M | re.S).group(1)
    assert packages and [p for p in packages if not re.search(rf"\b{re.escape(p)}\b", install)] == []


def test_readme_run_bullet_names_every_schedule_key():
    """The README's ``run`` bullet names, in backticks, exactly the keys that
    a run writes under ``versions`` and its ``blas``, under
    ``schedules.oamp``, under ``schedules.amp``, and under ``spectrum`` and
    each of its atoms."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    bullet = re.search(r"^- `run` (.*?)^(?:- |\S)", readme, re.M | re.S).group(1)
    versions = re.search(r"`versions` holds(.*?);", bullet, re.S).group(1)
    oamp, amp = re.search(r"`schedules\.oamp` holds(.*?)`schedules\.amp` holds(.*?)\)",
                          bullet, re.S).groups()
    spectrum = re.search(r"`spectrum` holds(.*?)\(", bullet, re.S).group(1)
    cfg = parse_config("M = 40\nN = 80\niters = 2\nseeds = 1\nmethods = oamp,amp\n")
    meta = run_experiment(cfg).metadata
    written = meta["schedules"]
    assert sorted(re.findall(r"`(\w+)`", versions)) == sorted(
        [*meta["versions"], *meta["versions"]["blas"]])
    assert sorted(re.findall(r"`(\w+)`", oamp)) == sorted(written["oamp"])
    assert sorted(re.findall(r"`(\w+)`", amp)) == sorted(written["amp"])
    assert sorted(re.findall(r"`(\w+)`", spectrum)) == sorted(
        [*meta["spectrum"], *meta["spectrum"]["atoms"][0]])


def test_src_reads_no_other_objects_private_attributes():
    """No module of ``src/`` reads an attribute whose name starts with a
    single underscore from anything but ``self`` or ``cls``: an object's
    private state is its own.  Imports of private names are not attributes
    and are not checked."""
    reads, paths = [], sorted((ROOT / "src" / "rectoamp").glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                    and not node.attr.startswith("__")
                    and not (isinstance(node.value, ast.Name)
                             and node.value.id in ("self", "cls"))):
                reads.append(f"{path.name}:{node.lineno} {ast.unparse(node)}")
    assert reads == []


def test_every_defaulted_parameter_is_passed():
    """Each parameter with a default, of any function in ``src/``, is passed
    by position or by keyword in some call in ``src/`` or ``perfbench/``: a
    default that no caller overrides is a dead option.  Calls are matched to
    definitions by name, a method's positions start after ``self`` or
    ``cls``, and a class's ``__init__`` is called by the class name."""
    sources = sorted((ROOT / "src" / "rectoamp").glob("*.py"))
    trees = [ast.parse(p.read_text(encoding="utf-8"))
             for p in sources + sorted((ROOT / "perfbench").glob("*.py"))]
    defaulted = []
    for tree in trees[:len(sources)]:
        for owner in ast.walk(tree):
            for fn in ast.iter_child_nodes(owner):
                if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                params = fn.args.posonlyargs + fn.args.args
                if isinstance(owner, ast.ClassDef) and not any(
                        getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list):
                    params = params[1:]
                name = owner.name if fn.name == "__init__" else fn.name
                first = len(params) - len(fn.args.defaults)
                defaulted += [(name, i, p.arg) for i, p in enumerate(params) if i >= first]
                defaulted += [(name, None, p.arg) for p, d in zip(
                    fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
    passed = set()
    for tree in trees:
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                passed |= {(name, i) for i in range(len(call.args))}
                passed |= {(name, kw.arg) for kw in call.keywords}
    dead = [f"{name}({arg})" for name, i, arg in defaulted
            if (name, i) not in passed and (name, arg) not in passed]
    assert dead == []


def test_import_loads_no_test_dependency(cold_start_modules):
    """Importing the package, its CLI and its harness, and building
    ``MarchenkoPastur(0.5)`` (a cold-start spectral build), loads no module
    of the ``test`` extra: ``pyproject.toml``'s one runtime dependency is
    numpy, and importing ``scipy.linalg`` alone takes several times as long
    as importing the package, numpy included."""
    assert cold_start_modules == []
