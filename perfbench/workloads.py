"""Workload inputs and the operations that run them.

``make_specs`` turns a workload name and seed into plain, JSON-ready
operation specs (the digest of these is what shows that two commits ran
identical work).  ``build_ops`` turns specs into callables into dimspec's
public API, each paired with its oracle check.  Every call looks its
target up on the module at call time, so the tracer's rebinding is seen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import oracle

WORKLOADS = ("spectrum-mp", "dim-perturb", "cloud-metrics")

CLI_FLAGS = ["--workers", "1", "--no-timestamp"]


def _spectrum_specs(tiny):
    depths = (6, 7) if tiny else (10, 11)
    return [["cli", "spectrum", "square-exponent", d, [1, 2]] for d in depths]


def _cloud_metrics_specs(tiny):
    depth = 8 if tiny else 13
    specs = [["cli", cmd, "cantor-pair", depth, None]
             for cmd in ("boxdim", "localdim", "gaps", "classify")]
    specs += [["cli", "classify", fam, depth, [1, 2]] for fam in ("geometric", "type-three")]
    return specs


def _random_subset(rng):
    return sorted(rng.sample(range(1, 13), rng.randint(2, 8)))


def _dim_perturb_specs(seed, tiny):
    rng = random.Random(seed)
    n_fixed, n_free = (20, 5) if tiny else (2000, 100)
    max_word, k_depth, sep_len = (4, 4, 3) if tiny else (8, 8, 5)
    specs = [["solve", "square-exponent", _random_subset(rng), 1e-10, True]
             for _ in range(n_fixed)]
    specs += [["solve", "square-exponent", _random_subset(rng), 10.0 ** rng.uniform(-20, -12), False]
              for _ in range(n_free)]
    specs += [["solve", fam, None, tol, False]
              for fam in ("square-exponent", "geometric", "type-three")
              for tol in (1e-10, 1e-13, 1e-20)]
    n_s = 4 if tiny else 16
    specs += [["pressure_derivative", "geometric", None, 0.01 * 300.0 ** (i / (n_s - 1))]
              for i in range(n_s)]
    specs += [["increment", "square-exponent", [1, 2], b] for b in range(3, 6 if tiny else 14)]
    specs += [["branch_increment", "square-exponent", "11" + format(m, f"0{n - 2}b") if n > 2 else "11"]
              for n in range(2, max_word + 1) for m in range(1 << (n - 2))]
    specs.append(["k_set_cloud", k_depth])
    for n in range(1, sep_len + 1):
        words = [format(m, f"0{n}b") for m in range(1 << n)]
        specs += [["separation", words[i], words[j]]
                  for i in range(len(words)) for j in range(i + 1, len(words))]
    # Interleave the kinds, so the latency samples are spread over the
    # whole pass instead of one stretch of it.
    rng.shuffle(specs)
    return specs


def make_specs(workload, seed, tiny=False):
    """Operation specs of one workload.  Only dim-perturb depends on the
    seed; the other two are fixed by definition."""
    if workload == "spectrum-mp":
        return _spectrum_specs(tiny)
    if workload == "cloud-metrics":
        return _cloud_metrics_specs(tiny)
    if workload == "dim-perturb":
        return _dim_perturb_specs(seed, tiny)
    raise ValueError(f"unknown workload {workload!r}")


def digest(specs) -> str:
    text = json.dumps(specs, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], list]
    weight: int = 1          # certified results the op delivers
    sample: bool = False     # counts toward solve_p50_ms / solve_p99_ms
    points: Callable[[object], tuple] | None = None  # (distinct, total) of an emitted cloud


def run_cli(argv):
    from dimspec import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(argv)
    return buf.getvalue()


def _cli_op(command, family, depth, base):
    argv = [command, "--family", family, "--depth", str(depth)] + CLI_FLAGS
    if base is not None:
        argv[5:5] = ["--base", ",".join(map(str, base))]
    label = f"{command} {family} d{depth}"
    if command == "spectrum":
        def check(text):
            return oracle.check_spectrum_doc(text, family, depth, tuple(base))[0]

        def points(text):
            mids = _spectrum_mids(text)
            return len(set(mids)), len(mids)

        return Op(label, lambda: run_cli(argv), check,
                  weight=(1 << (depth - len(base))) + 1, sample=True, points=points)

    def check_metric(text):
        return oracle.check_metric_doc(text, command, family)[0]

    points = None
    if command in ("boxdim", "localdim"):
        def points(text):
            n = oracle.check_metric_doc(text, command, family)[1] or 0
            return n, 1 << depth

    return Op(label, lambda: run_cli(argv), check_metric, sample=True, points=points)


def _spectrum_mids(text):
    doc = json.loads(text)
    rows = doc["rows"]
    col = rows["header"].index("mid")
    return [r[col] for r in rows["data"]]


def build_ops(specs):
    from dimspec import construction, perturbation, solver, spectrum
    from dimspec.families import ContractionFamily

    families = {}

    def fam(name):
        if name not in families:
            families[name] = ContractionFamily.from_name(name)
        return families[name]

    ops = []
    for spec in specs:
        kind = spec[0]
        if kind == "cli":
            ops.append(_cli_op(*spec[1:]))
        elif kind == "solve":
            _, name, indices, tol, sample = spec
            idx = tuple(indices) if indices is not None else None
            f = fam(name)
            ops.append(Op(
                f"solve {name} {indices or 'full'} tol={tol:.3g}",
                lambda f=f, idx=idx, tol=tol: solver.solve_dimension(
                    f, idx if idx is not None else "full", tol=tol),
                lambda iv, name=name, idx=idx: oracle.check_dimension(name, idx, iv),
                sample=sample))
        elif kind == "pressure_derivative":
            _, name, _, s = spec
            f = fam(name)
            ops.append(Op(
                f"pressure_derivative {name} s={s:.4g}",
                lambda f=f, s=s: solver.pressure_derivative(f, "full", s),
                lambda v, name=name, s=s: oracle.check_pressure_derivative(name, None, s, v)))
        elif kind == "increment":
            _, name, base, b = spec
            f = fam(name)
            ops.append(Op(
                f"increment {name} {base} b={b}",
                lambda f=f, base=tuple(base), b=b: perturbation.increment(f, base, b),
                lambda r, name=name, base=tuple(base), b=b: oracle.check_increment(name, base, b, r)))
        elif kind == "branch_increment":
            _, name, word = spec
            f = fam(name)
            ops.append(Op(
                f"branch_increment {word}",
                lambda f=f, word=word: spectrum.branch_increment(f, word),
                lambda r, name=name, word=word: oracle.check_branch_increment(name, word, r)))
        elif kind == "k_set_cloud":
            depth = spec[1]
            ops.append(Op(
                f"k_set_cloud {depth}",
                lambda depth=depth: construction.k_set_cloud(depth),
                lambda pts, depth=depth: oracle.check_k_cloud(depth, pts),
                points=lambda pts: (len({tuple(p.exponents) for p in pts}), len(pts))))
        elif kind == "separation":
            _, omega, tau = spec
            ops.append(Op(
                f"separation {omega}/{tau}",
                lambda omega=omega, tau=tau: construction.separation_check(omega, tau),
                lambda r, omega=omega, tau=tau: oracle.check_separation(omega, tau, r)))
        else:
            raise ValueError(f"unknown op kind {kind!r}")
    return ops


def fingerprint(output) -> str:
    """Exact text of an output, for comparing passes (floats repr exactly)."""
    return output if isinstance(output, str) else repr(output)
