"""The package surface: public names and the deferred numpy import."""

import subprocess
import sys
from pathlib import Path

import dimspec

SOLVE_WITHOUT_NUMPY = """
import contextlib, io, sys
import dimspec
from dimspec import cli
iv = dimspec.solve_dimension(dimspec.ContractionFamily.square_exponent(), "full", tol=1e-10)
assert iv.tier == "double", iv
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
