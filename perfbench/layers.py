"""Per-layer metrics from one traced pass, source size, and the share
predictions the traced run is compared against."""

from __future__ import annotations

import inspect
from collections import defaultdict
from pathlib import Path

import tracer

SRC_MODULES = ("__init__", "acceptance", "cli", "construction", "errors", "families",
               "metrics", "perturbation", "solver", "spectrum", "words")

METRIC_SPANS = ("metrics.box", "metrics.local", "metrics.classify", "metrics.gaps")
CLOUD_DEPTHS = (10, 11)


def src_lines(root: Path) -> dict:
    pkg = root / "src" / "dimspec"
    out = {"src.lines": sum(len(p.read_text().splitlines()) for p in pkg.rglob("*.py"))}
    for mod in SRC_MODULES:
        path = pkg / f"{mod}.py"
        out[f"src.lines.{mod}"] = len(path.read_text().splitlines()) if path.is_file() else 0
    return out


def _overlapping_pairs(points):
    """Adjacent enclosures (in emitted order) that intersect."""
    return sum(1 for p, q in zip(points, points[1:])
               if max(p.interval.lo, q.interval.lo) <= min(p.interval.hi, q.interval.hi))


class LayerAnalysis:
    """Turns the spans and counts of a traced pass into named metrics."""

    def __init__(self):
        from dimspec import solver

        fn = getattr(solver.solve_dimension, "__wrapped__", solver.solve_dimension)
        self.solve_signature = inspect.signature(fn)
        self.tol_min_double = getattr(solver, "TOL_MIN_DOUBLE", 4e-14)

    def _escalated(self, span):
        try:
            bound = self.solve_signature.bind(*span.args, **span.kwargs)
        except TypeError:
            return False
        bound.apply_defaults()
        args = bound.arguments
        return args.get("precision_bits") is None and args.get("tol", 0.0) >= self.tol_min_double

    def pass_metrics(self, spans, counts, wall, bytes_out) -> dict:
        own = tracer.self_times(spans)
        by_name = defaultdict(list)
        for sp in spans:
            by_name[sp.name].append(sp)

        def self_s(*names):
            return sum(own[id(sp)] for name in names for sp in by_name[name])

        solves = by_name["solver.solve_dimension"]
        done = [sp for sp in solves if sp.error is None]
        mp = [sp for sp in done if getattr(sp.result, "tier", None) == "mpmath"]
        dbl = [sp for sp in done if getattr(sp.result, "tier", None) != "mpmath"]
        m = {f"families.{key}.calls": n for key, n in counts.items()}
        m.update({
            "solver.solve_double.calls": len(dbl),
            "solver.solve_double.self_s": sum(own[id(sp)] for sp in dbl),
            "solver.solve_mp.calls": len(mp),
            "solver.solve_mp.self_s": sum(own[id(sp)] for sp in mp),
            "solver.terms_per_solve": sum(sp.terms for sp in solves) / len(solves) if solves else 0.0,
            "solver.escalations": sum(1 for sp in mp if self._escalated(sp)),
            "solver.width_over_budget": sum(
                1 for sp in done if sp.result.hi - sp.result.lo > sp.result.width_budget),
            "solver.pressure_derivative.calls": len(by_name["solver.pressure_derivative"]),
            "solver.pressure_derivative.self_s": self_s("solver.pressure_derivative"),
            "spectrum.expand.self_s": self_s("spectrum.expand"),
            "spectrum.branch_increment.self_s": self_s("spectrum.branch_increment"),
            "perturbation.increment.calls": len(by_name["perturbation.increment"]),
            "perturbation.increment.self_s": self_s("perturbation.increment"),
            "perturbation.increment.failures": sum(
                1 for sp in by_name["perturbation.increment"] if sp.error),
            "construction.self_s": self_s(*(n for n in by_name if n.startswith("construction."))),
            "cli.self_s": self_s("cli"),
            "cli.bytes_out": bytes_out,
            "trace.wall_s": wall,
        })
        for key in ("box", "local", "classify", "gaps"):
            m[f"metrics.{key}.self_s"] = self_s(f"metrics.{key}")

        n_input = n_distinct = 0
        for name in METRIC_SPANS:
            for sp in by_name[name]:
                nested = sp.parent is not None and sp.parent.name in METRIC_SPANS
                if sp.args and not nested:
                    n_input += len(sp.args[0])
                    n_distinct += len({float(x) for x in sp.args[0]})
        m["metrics.n_input"], m["metrics.n_distinct"] = n_input, n_distinct

        totals = {"points": 0, "distinct_points": 0, "overlap_pairs": 0}
        for d in CLOUD_DEPTHS:
            for key in ("points", "distinct_points", "overlap_pairs", "auto_tol"):
                m[f"spectrum.{key}_d{d}"] = 0
            m[f"spectrum.expand_d{d}.s"] = 0.0
        for sp in by_name["spectrum.expand"]:
            if sp.error:
                continue
            cloud = sp.result
            counts_here = {
                "points": len(cloud.points),
                "distinct_points": len({p.interval.mid for p in cloud.points}),
                "overlap_pairs": _overlapping_pairs(cloud.points),
            }
            for key, n in counts_here.items():
                totals[key] += n
            if cloud.depth in CLOUD_DEPTHS:
                for key, n in counts_here.items():
                    m[f"spectrum.{key}_d{cloud.depth}"] += n
                m[f"spectrum.auto_tol_d{cloud.depth}"] = cloud.tol
                m[f"spectrum.expand_d{cloud.depth}.s"] += sp.end - sp.start
        m.update({f"spectrum.{key}": n for key, n in totals.items()})

        # shares of the traced pass, for the predictions below
        m["share.solve_mp"] = m["solver.solve_mp.self_s"] / wall
        m["share.metrics_and_double"] = (
            sum(m[f"metrics.{key}.self_s"] for key in ("box", "local", "classify", "gaps"))
            + self_s("metrics.cantor_truncation") + m["solver.solve_double.self_s"]) / wall
        return m


def _share(*keys):
    return lambda m: sum(m[k] for k in keys) / m["trace.wall_s"]


# (workload, claim, measured value, test), stated before measuring
PREDICTIONS = (
    ("spectrum-mp", "mpmath-tier solves >= 90% of the pass",
     _share("solver.solve_mp.self_s"), lambda v: v >= 0.90),
    ("spectrum-mp", "cli self time < 1% of the pass", _share("cli.self_s"), lambda v: v < 0.01),
    ("cloud-metrics", "term_mp calls = 0",
     lambda m: m["families.term_mp.calls"], lambda v: v == 0),
    ("cloud-metrics", "metrics plus double-tier solves >= 90% of the pass",
     lambda m: m["share.metrics_and_double"], lambda v: v >= 0.90),
    ("cloud-metrics", "cli self time < 1% of the pass", _share("cli.self_s"), lambda v: v < 0.01),
    ("dim-perturb", "solve_dimension about 79% of the pass (70..90%)",
     _share("solver.solve_double.self_s", "solver.solve_mp.self_s"), lambda v: 0.70 <= v <= 0.90),
    ("dim-perturb", "pressure_derivative about 21% of the pass (10..30%)",
     _share("solver.pressure_derivative.self_s"), lambda v: 0.10 <= v <= 0.30),
)


def prediction_lines(workload, metrics):
    lines = []
    for wl, claim, measure, test in PREDICTIONS:
        if wl == workload:
            value = measure(metrics)
            verdict = "holds" if test(value) else "DEPARTS"
            lines.append(f"prediction {workload}: {claim}: measured {value:.4g} -> {verdict}")
    return lines
