"""The package surface: public names, the deferred numpy import, the
integer contract for counts, no unused imports and no unread private
names."""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

import dimspec
from dimspec import construction, metrics
from dimspec.errors import ConfigError

SOLVE_WITHOUT_NUMPY = """
import contextlib, io, sys
import dimspec
from dimspec import cli
fam = dimspec.ContractionFamily.square_exponent()
iv = dimspec.solve_dimension(fam, "full", tol=1e-10)
assert iv.tier == "double", iv
assert dimspec.moran_bounds(fam, "full", iv.lo, 1e-10)[0] >= 1
assert dimspec.pressure_derivative(fam, "full", iv.mid) < 0
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(["dim", "--family", "square-exponent", "--no-timestamp"]) == 0
assert "numpy" not in sys.modules, "numpy was imported"
"""


def test_solving_and_the_dim_command_do_not_import_numpy():
    # numpy (about 13 MB resident) loads only when a metric or a fit runs.
    src = str(Path(dimspec.__file__).resolve().parents[1])
    subprocess.run([sys.executable, "-c", SOLVE_WITHOUT_NUMPY], check=True,
                   env={"PYTHONPATH": src}, timeout=120)


def test_every_public_name_resolves():
    for name in dimspec.__all__:
        assert getattr(dimspec, name) is not None, name


COUNTS = {
    "precision_bits": lambda n: dimspec.solve_dimension(
        dimspec.ContractionFamily.square_exponent(), (1, 2), tol=1e-20, precision_bits=100 + n),
    "prec": lambda n: dimspec.moran_bounds(
        dimspec.ContractionFamily.square_exponent(), (1, 2), 0.5, 1e-20, 100 + n),
    "k_set_cloud": construction.k_set_cloud,
    "cantor_truncation": metrics.cantor_truncation,
    "enumerate_word": construction.enumerate_word,
    "scale_range": lambda n: metrics.box_dimension_estimate(
        metrics.cantor_truncation(7), scale_range=(n, 6)),
    "workers": lambda n: dimspec.expand_spectrum(
        dimspec.ContractionFamily.square_exponent(), 6, workers=n),
}


# A count of 3.7 is an error, never 3.
@pytest.mark.parametrize("name", COUNTS)
def test_non_integer_counts_are_config_errors(name):
    with pytest.raises(ConfigError):
        COUNTS[name](3.7)


def _unused_imports(path):
    """Names a module imports at its top level and never reads."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{path.name}:{line} {name}"
                  for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_does_not_use():
    # __init__.py imports to re-export; every other module reads what it imports.
    package = Path(dimspec.__file__).parent
    unused = [name for path in sorted(package.glob("*.py")) if path.name != "__init__.py"
              for name in _unused_imports(path)]
    assert unused == []


def _private_definitions(path):
    """Module-level _names a module defines (functions, classes and
    assigned names; dunders excluded), with their lines."""
    defined = {}
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.endswith("__"):
                defined[name] = node.lineno
    return defined


def _reads(path):
    """Every name a module reads: loaded names, attributes and the names
    it imports from another module."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads.add(node.id)
        elif isinstance(node, ast.Attribute):
            reads.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            reads.update(alias.name for alias in node.names)
    return reads


def test_no_private_name_is_left_unread():
    # A module-level _name that nothing in the package reads is dead
    # code; reads in tests do not count.
    paths = sorted(Path(dimspec.__file__).parent.glob("*.py"))
    reads = set().union(*map(_reads, paths))
    unread = [f"{path.name}:{line} {name}" for path in paths
              for name, line in _private_definitions(path).items() if name not in reads]
    assert unread == []
