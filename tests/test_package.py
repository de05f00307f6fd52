"""The package surface: public names, the deferred numpy import, the
integer contract for counts, no unused imports, no unread private
names or constants and no option without a caller."""

import ast
import math
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
    "budget": lambda n: construction.f_value("1", budget=n),
    "digits": lambda n: construction.sparse_to_mpf((2, 12), n),
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


def test_the_solver_imports_nothing_from_mpmath():
    # The fixed tier's point is the int pair (at, q) from the Newton
    # iterate to the one exp, so libmp numbers are built in families.py
    # alone; function-level imports count too.
    path = Path(dimspec.__file__).parent / "solver.py"
    modules = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules.append(node.module or "")
    assert [m for m in modules if m.split(".")[0] == "mpmath"] == []


def test_the_solver_names_no_term_enclosure():
    # Fixed-point terms reach the solver only through term_table (the
    # rows of a finite selection or of the full selector's cut) and
    # term_tail (the full selector's tail), so it encloses no power and
    # no log of its own.
    path = Path(dimspec.__file__).parent / "solver.py"
    names = {getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None)
             for node in ast.walk(ast.parse(path.read_text(), str(path)))}
    assert names & {"power_enclosure", "ln_enclosure"} == set()


def _unread_parameters(path):
    """Parameters of the functions and lambdas of a module that their
    bodies, nested functions included, never read."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs + [
            a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{path.name}:{node.lineno} {name}({a.arg})" for a in params if a.arg not in read]
    return unread


def test_every_parameter_is_read():
    # A parameter that its function never reads is an input that changes
    # nothing; callers pass it for no effect.
    package = Path(dimspec.__file__).parent
    assert [u for path in sorted(package.glob("*.py")) for u in _unread_parameters(path)] == []


# Calls that build a mutable container, and decorators that memoise.
MUTABLE_CALLS = {"dict", "list", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
CACHE_DECORATORS = {"lru_cache", "cache", "cached_property"}


def _module_state(source):
    """The lines of a module that keep state between calls: a mutable
    container bound at module level or in a class body (a literal, a
    comprehension or a MUTABLE_CALLS call), and any function decorated
    with a cache, however it is named or called."""
    def name(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", None) or getattr(node, "attr", None)

    found = []
    tree = ast.parse(source)
    bodies = [tree.body] + [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in (node for body in bodies for node in body):
        value = getattr(node, "value", None) if isinstance(
            node, (ast.Assign, ast.AnnAssign, ast.AugAssign)) else None
        if isinstance(value, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)) \
                or isinstance(value, ast.Call) and name(value) in MUTABLE_CALLS:
            found.append(node.lineno)
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                name(d) in CACHE_DECORATORS for d in node.decorator_list):
            found.append(node.lineno)
    return found


def test_the_module_state_lint_sees_containers_and_caches():
    source = ("import functools\nA = {}\nB = [x for x in ()]\nC = set()\nD = (1, 2)\n"
              "class E:\n    seen = dict()\n    @functools.lru_cache(maxsize=8)\n"
              "    def f(self):\n        local = []\n")
    assert sorted(_module_state(source)) == [2, 3, 4, 7, 9]


@pytest.mark.parametrize("module", ["solver.py", "spectrum.py"])
def test_the_solver_and_the_cloud_keep_no_state_between_calls(module):
    # A cloud's tables live for one expand_spectrum call.  A container
    # or cache at module level would let one call's work serve the next,
    # a memoisation that shows as speed in a benchmark repeating calls.
    path = Path(dimspec.__file__).parent / module
    assert _module_state(path.read_text()) == []


def _definitions(path):
    """Module-level names a module defines (functions, classes and
    assigned names), with their lines."""
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


def _unread(paths, keep):
    """The module-level names of the modules at paths, kept by keep(name),
    that none of those modules reads."""
    reads = set().union(*map(_reads, paths))
    return [f"{path.name}:{line} {name}" for path in paths
            for name, line in _definitions(path).items() if keep(name) and name not in reads]


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def test_no_private_name_is_left_unread():
    # A module-level _name that nothing in the package reads is dead
    # code; reads in tests do not count.
    assert _unread(sorted(Path(dimspec.__file__).parent.glob("*.py")), _private) == []


def test_every_constant_is_read():
    # A module-level upper-case constant that no code in the package
    # reads tunes nothing: a setting left behind by a removed mechanism.
    # Reads in tests do not count, so a test patching it does not keep it.
    assert _unread(sorted(Path(dimspec.__file__).parent.glob("*.py")), str.isupper) == []


def test_the_constant_lint_sees_a_constant_only_tests_read(tmp_path):
    module, test = tmp_path / "module.py", tmp_path / "test_module.py"
    module.write_text("LIMIT = 4\nSTEP = 2\n\n\ndef f(x):\n    return x < LIMIT\n")
    test.write_text("import module\nmodule.STEP = 1\n")
    assert _unread([module], str.isupper) == ["module.py:2 STEP"]
    assert _unread([module, test], str.isupper) == []


def _options(path):
    """(qualified name, name, positional parameters, parameters with a
    default) of every public module-level function and public method of
    a module-level class; self and cls are not positional parameters."""
    options = []
    for node in ast.parse(path.read_text(), str(path)).body:
        if isinstance(node, ast.ClassDef):
            defs = [(f"{node.name}.{d.name}", d, True) for d in node.body
                    if isinstance(d, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs = [(node.name, node, False)]
        else:
            continue
        for qualified, d, method in defs:
            if d.name.startswith("_"):
                continue
            args = d.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            static = any(isinstance(x, ast.Name) and x.id == "staticmethod"
                         for x in d.decorator_list)
            if method and not static:
                positional = positional[1:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, v in zip(args.kwonlyargs, args.kw_defaults) if v is not None]
            options.append((qualified, d.name, positional, defaulted))
    return options


def _calls(paths):
    """For each called name (a plain or attribute call): the keywords
    some call passes (None for **kwargs) and the most positional
    arguments one passes (inf with *args)."""
    keywords, positional = {}, {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            positional[name] = max(positional.get(name, 0),
                                   math.inf if starred else len(node.args))
            keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
    return keywords, positional


# Options that no call in the package or the benchmark passes, kept
# because each is the only public route to what it gives.
KEPT_OPTIONS = {
    "solver.py: moran_bounds.prec": "the fixed-point tier's certified sums",
    "construction.py: f_value.budget": "an index budget above the default, to reach indices 9-10",
    "construction.py: f_tail_bound.budget": "an index budget above the default, to reach indices 9-10",
    "construction.py: SeparationCheck.difference_approx.digits": "more digits of the difference",
}


def test_every_option_has_a_caller():
    # A parameter default that no call in src/dimspec or perfbench/
    # overrides, by keyword or by position, is an option nobody sets.
    # Calls are matched by name alone, so a call to any function of the
    # same name counts.
    package = Path(dimspec.__file__).parent
    perfbench = package.parents[1] / "perfbench"
    assert perfbench.is_dir()
    sources = sorted(package.glob("*.py"))
    keywords, positional = _calls(sources + sorted(perfbench.glob("*.py")))
    unset = []
    for path in sources:
        for qualified, name, params, defaulted in _options(path):
            passed = keywords.get(name, set())
            for param in defaulted:
                by_position = param in params and params.index(param) < positional.get(name, 0)
                if not (None in passed or param in passed or by_position):
                    unset.append(f"{path.name}: {qualified}.{param}")
    assert sorted(set(unset) - set(KEPT_OPTIONS)) == []
    assert sorted(set(KEPT_OPTIONS) - set(unset)) == []


ONE_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(n):
    assert n != n


def test_passes():
    pass
"""


def test_a_failing_property_leaves_the_rest_of_the_run_reported(tmp_path):
    # Under the repo's pytest settings (every warning an error), a failing
    # @given test must be reported as one failure, not end the whole run
    # with an INTERNALERROR that hides every later test.
    root = Path(__file__).resolve().parents[1]
    (tmp_path / "test_one_property.py").write_text(ONE_FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(root / "pyproject.toml"), "--rootdir", str(tmp_path), str(tmp_path)],
        capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
