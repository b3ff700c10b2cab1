"""Static checks on the package's modules, read with ``ast``: every name a
module lists in ``__all__`` exists, and no module but ``__init__.py`` (which
re-exports) imports a name it never uses.  A deletion that leaves a stale
export or import behind fails here.  One function alone builds check
records, from the kinds' check tables, and only the parser and the CLI
raise ``ConfigError``.  One more check runs a fresh
interpreter: only the grid comparison may load scipy."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vcslab

MODULES = sorted(Path(vcslab.__file__).parent.glob("*.py"))


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def exported(tree) -> list:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [elt.value for elt in node.value.elts]
    return []


def imported(tree) -> dict:
    """Name bound by each import statement of the module -> its line."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def defined(tree) -> set:
    """Names bound at module level: definitions, assignments and imports."""
    names = set(imported(tree))
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def used(tree) -> set:
    return {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | set(exported(tree))


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_every_exported_name_exists(path):
    tree = parse(path)
    missing = sorted(set(exported(tree)) - defined(tree))
    assert not missing, f"{path.name}: __all__ lists undefined {missing}"


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=[p.name for p in MODULES if p.name != "__init__.py"]
)
def test_no_unused_imports(path):
    tree = parse(path)
    names = used(tree)
    unused = sorted(f"{name} (line {line})" for name, line in imported(tree).items() if name not in names)
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def calls_by_function(tree, callee: str) -> list:
    """The innermost function (``None`` at module level) around each call of ``callee``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call):
                target = child.func
                if getattr(target, "id", None) == callee or getattr(target, "attr", None) == callee:
                    found.append(scope)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            visit(child, getattr(child, "name", "<lambda>") if inner else scope)

    visit(tree, None)
    return found


def test_check_records_are_built_in_one_function():
    # which checks a kind reports is its ``CHECKS`` table; one function reads it
    builders = [(p.name, scope) for p in MODULES for scope in calls_by_function(parse(p), "CheckRecord")]
    assert builders == [("experiments.py", "_records")]


def test_only_the_parser_and_the_cli_raise_config_errors():
    # a ConfigError exits 2 naming the key at fault, and only the parser knows
    # the keys: the library raises VcsLabError or one of its subclasses
    raisers = sorted({p.name for p in MODULES if calls_by_function(parse(p), "ConfigError")})
    assert raisers == ["cli.py", "config.py"]


# scipy costs about 0.3 s and 27 MiB to import; a user who never runs a grid
# comparison must not pay that in ``import vcslab`` or anywhere else
_NO_SCIPY_PROBE = """
import sys
import vcslab
from vcslab import config, experiments
assert "scipy" not in sys.modules, "import vcslab"
for name in config.bundled_names():
    config.load_bundled(name)
assert "scipy" not in sys.modules, "load_bundled"
experiments.run_experiment(config.load_bundled("example1-susy-qm"))
assert "scipy" not in sys.modules, "run_experiment"
"""


def test_scipy_stays_unloaded_outside_the_grid_comparison():
    env = dict(os.environ)
    src = str(Path(vcslab.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _NO_SCIPY_PROBE], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr[-2000:]
