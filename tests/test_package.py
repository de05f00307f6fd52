"""The package surface: public names, the deferred numpy import, the
integer contract for counts and no unused imports."""

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
