"""Command-line interface.

Every subcommand emits a single data document, either JSON
(``--format structured``, the default) or CSV with ``#``-prefixed
metadata lines.  The document embeds its configuration, every flag but
``--workers`` and ``--out`` (which cannot change a byte of the data),
under ``config`` (CSV: the ``# config:`` line), so any output can be
re-executed with :func:`run_from_config` and compared byte for byte.
Data goes to stdout or ``--out``; diagnostics go to stderr.  Exit code
2 signals a configuration problem, 3 a numerical failure; in both
cases a machine-readable error record is printed on the data channel.

Numbers are serialised with ``repr`` semantics (shortest round-trip,
``.`` decimal separator), which together with ordered construction and
order-preserving parallel maps makes outputs independent of
``--workers``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import mpmath

from .construction import k_set_cloud
from .errors import ConfigError, DimspecError
from .families import NAMED_FAMILIES, ContractionFamily
from .metrics import (
    box_dimension_estimate,
    cantor_truncation,
    classify_type,
    local_dimension_profile,
    uniform_perfectness_gaps,
)
from .perturbation import exponent_fit
from .solver import DEFAULT_TOL, solve_dimension
from .spectrum import expand_spectrum
from .words import subset_of_word

FAMILY_NAMES = (*NAMED_FAMILIES, "cantor-pair")


# ---------------------------------------------------------------------------
# flags and the configuration echo

# Each echoed config key and the add_argument options of its flag,
# "--" + key.replace("_", "-").  --workers and --out are not echoed, so
# _build_parser declares them itself.
_FLAGS = {
    "family": dict(choices=FAMILY_NAMES, help="named contraction family"),
    "ratios": dict(nargs="+", metavar="R",
                   help="explicit ratios (decimals or fractions), instead of --family"),
    "subset": dict(help="comma-separated symbol indices, or 'full'"),
    "word": dict(help="binary word selecting symbols by position"),
    "depth": dict(type=int, required=True, help="expansion depth"),
    "base": dict(default="1,2", help="base symbols (default 1,2)"),
    "tol": dict(type=float, help="enclosure width budget"),
    "precision_bits": dict(type=int, help="pin the high-precision tier to this many bits"),
    "scales": dict(help="dyadic scale exponents as kmin:kmax"),
    "b_range": dict(required=True,
                    help="inclusive sweep range lo:hi for the perturbing symbol"),
    "criteria": dict(help="comma-separated criterion numbers (default all)"),
    "format": dict(choices=("csv", "structured"), default="structured"),
    "no_timestamp": dict(action="store_true",
                         help="omit the generation timestamp (byte-stable output)"),
}


def _flag(key):
    return "--" + key.replace("_", "-")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of a process: parse_args leaves it as it was, so
    every main and run_from_config call shares it."""
    parser = argparse.ArgumentParser(
        prog="dimspec",
        description="Certified dimension computations for infinite contraction systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _, keys) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for key in keys:
            p.add_argument(_flag(key), **_FLAGS[key])
        p.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes (at most the number of CPUs)")
        p.add_argument("--format", **_FLAGS["format"])
        p.add_argument("--out", help="write the data document to this file")
        p.add_argument("--no-timestamp", **_FLAGS["no_timestamp"])
    return parser


def _config_of(args) -> dict:
    config = {"command": args.command}
    config.update((k, v) for k, v in vars(args).items() if k in _FLAGS and v is not None)
    return config


def _argv_from_config(config: dict) -> list:
    argv = [config["command"]]
    for key, options in _FLAGS.items():
        value = config.get(key)
        if value is None or value is False:
            continue
        argv.append(_flag(key))
        if "nargs" in options:
            argv.extend(map(str, value))
        elif value is not True:
            argv.append(str(value))
    return argv


def run_from_config(config: dict) -> str:
    """Re-execute a run from the config echo of a previous output."""
    args = _build_parser().parse_args(_argv_from_config(config))
    text, _ = _execute(args)
    return text


# ---------------------------------------------------------------------------
# parsing helpers

def _family_of(args) -> ContractionFamily:
    if args.family and args.ratios:
        raise ConfigError("give either --family or --ratios, not both")
    if args.family:
        return ContractionFamily.from_name(args.family)
    if args.ratios:
        return ContractionFamily.explicit(args.ratios)
    raise ConfigError("a contraction family is required (--family or --ratios)")


def _parse_subset(text):
    if text is None or text == "full":
        return "full"
    try:
        indices = tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ConfigError(f"bad subset {text!r}: expected comma-separated integers or 'full'")
    return indices


def _parse_pair(text, flag):
    try:
        lo, hi = (int(p) for p in text.split(":"))
    except ValueError:
        raise ConfigError(f"bad {flag} {text!r}: expected lo:hi")
    if lo > hi:
        raise ConfigError(f"bad {flag} {text!r}: lo exceeds hi")
    return lo, hi


def _metric_points(args):
    """Point set that the box/local/gap/classify commands operate on."""
    if args.ratios is not None:
        raise ConfigError("point sampling is defined for named families only")
    if args.family is None:
        raise ConfigError("a named --family is required")
    if args.family == "cantor-pair":
        return cantor_truncation(args.depth)
    cloud = expand_spectrum(ContractionFamily.from_name(args.family), args.depth,
                            base_symbols=_parse_subset(args.base), workers=args.workers)
    return cloud.midpoints()


# ---------------------------------------------------------------------------
# rendering

def _fmt(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (dict, list)):
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    return str(value)


def _timestamp(args):
    if args.no_timestamp:
        return None
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _render_structured(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_csv(config, meta, header, rows, timestamp) -> str:
    buf = io.StringIO()
    buf.write("# config: " + json.dumps(config, sort_keys=True, separators=(",", ":")) + "\n")
    if timestamp:
        buf.write(f"# generated_at: {timestamp}\n")
    for key, value in meta.items():
        buf.write(f"# {key}: {_fmt(value)}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(cell) for cell in row])
    return buf.getvalue()


def _emit(args, config, summary: dict, header, rows) -> str:
    ts = _timestamp(args)
    if args.format == "csv":
        return _render_csv(config, summary, header, rows, ts)
    doc = {"command": args.command, "config": config, **summary,
           "rows": {"header": list(header), "data": [list(r) for r in rows]}}
    if ts:
        doc["generated_at"] = ts
    return _render_structured(doc)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_dim(args, config):
    family = _family_of(args)
    if args.word is not None and args.subset is not None:
        raise ConfigError("give either --subset or --word")
    if args.word is not None:
        subset = subset_of_word(args.word)
    else:
        subset = _parse_subset(args.subset)
    tol = args.tol if args.tol is not None else DEFAULT_TOL
    interval = solve_dimension(family, subset, tol=tol, precision_bits=args.precision_bits)
    result = interval.as_dict()
    summary = {"family_resolved": family.describe(), "result": result}
    header = list(result.keys())
    rows = [[result[k] for k in header]]
    return _emit(args, config, summary, header, rows)


def _cmd_spectrum(args, config):
    family = _family_of(args)
    cloud = expand_spectrum(family, args.depth, base_symbols=_parse_subset(args.base),
                            tol=args.tol, workers=args.workers)
    summary = {
        "family_resolved": family.describe(),
        "base_dimension": cloud.base_dimension.as_dict(),
        "spacing_constant": cloud.spacing_constant,
        "covering_radius": cloud.covering_radius(),
        "tol_resolved": cloud.tol,
        "n_points": len(cloud.points),
    }
    header = ["word", "lo", "hi", "mid", "width"]
    rows = [
        [p.word, p.interval.lo, p.interval.hi, p.interval.mid, p.interval.width]
        for p in cloud.points
    ]
    return _emit(args, config, summary, header, rows)


def _cmd_boxdim(args, config):
    points = _metric_points(args)
    scale_range = _parse_pair(args.scales, "--scales") if args.scales else None
    profile = box_dimension_estimate(points, scale_range=scale_range)
    summary = {
        "slope": profile.slope,
        "residual": profile.residual,
        "n_points": profile.n_points,
        "floor": profile.floor,
        "floor_rule": profile.floor_rule,
    }
    rows = list(zip(profile.scales, profile.counts))
    return _emit(args, config, summary, ["scale", "count"], rows)


def _cmd_localdim(args, config):
    points = _metric_points(args)
    profile = local_dimension_profile(points)
    summary = {"n_points": profile.n_points}
    if args.format == "structured":
        summary["series"] = [
            {"center": c.center, "series": [[r, size, s] for r, size, s in c.series]}
            for c in profile.centers
        ]
    header = ["center", "radius", "window_kind", "window_size", "scalar"]
    rows = [
        [c.center, c.radius, c.window_kind, c.window_size, c.scalar]
        for c in profile.centers
    ]
    return _emit(args, config, summary, header, rows)


def _cmd_gaps(args, config):
    points = _metric_points(args)
    report = uniform_perfectness_gaps(points)
    result = dataclasses.asdict(report)
    header = list(result)
    return _emit(args, config, {"result": result}, header, [[result[k] for k in header]])


def _cmd_classify(args, config):
    points = _metric_points(args)
    outcome = classify_type(points)
    summary = {"result": dataclasses.asdict(outcome)}
    rows = [[i, s] for i, s in enumerate(outcome.scalars)]
    return _emit(args, config, summary, ["center_index", "scalar"], rows)


def _cmd_perturb(args, config):
    family = _family_of(args)
    lo, hi = _parse_pair(args.b_range, "--b-range")
    report = exponent_fit(family, _parse_subset(args.subset), range(lo, hi + 1), tol=args.tol)
    summary = {
        "family_resolved": family.describe(),
        "delta": report.delta,
        "base_lo": report.base_lo,
        "base_hi": report.base_hi,
        "slope": report.slope,
        "intercept": report.intercept,
        "residual": report.residual,
        "ratio_min": report.ratio_min,
        "ratio_max": report.ratio_max,
    }
    header = ["b", "ratio_b", "increment_lo", "increment_hi", "increment_mid",
              "log_ratio", "log_increment"]
    rows = [
        [e.b, e.ratio_b, e.increment_lo, e.increment_hi, e.increment_mid,
         math.log(e.ratio_b), math.log(e.increment_mid)]
        for e in report.entries
    ]
    return _emit(args, config, summary, header, rows)


def _cmd_construct_k(args, config):
    points = k_set_cloud(args.depth)
    header = ["word", "n_terms", "exponents", "approx"]
    rows = []
    for p in points:
        approx = mpmath.nstr(p.approx(30), 20)
        rows.append([p.word, len(p.exponents), ";".join(str(e) for e in p.exponents), approx])
    return _emit(args, config, {"n_points": len(points)}, header, rows)


def _cmd_verify(args, config):
    from .acceptance import ALL_CRITERIA, run_all

    numbers = None
    if args.criteria:
        try:
            numbers = tuple(int(p) for p in args.criteria.split(","))
        except ValueError:
            raise ConfigError(f"bad --criteria {args.criteria!r}")
        if any(n < 1 or n > len(ALL_CRITERIA) for n in numbers):
            raise ConfigError("criterion numbers run from 1 to 9")
    results = run_all(numbers=numbers)
    with_timing = not args.no_timestamp
    for r in results:
        print(r.line(with_timing=with_timing), file=sys.stderr)
    n_pass = sum(1 for r in results if r.passed)
    if args.format == "structured":
        docs = []
        for r in results:
            entry = {"number": r.number, "name": r.name,
                     "passed": r.passed, "details": r.details}
            if with_timing:
                entry["elapsed"] = round(r.elapsed, 1)
            docs.append(entry)
        doc = {"command": "verify", "config": config, "results": docs,
               "passed": n_pass, "total": len(results)}
        ts = _timestamp(args)
        if ts:
            doc["generated_at"] = ts
        text = _render_structured(doc)
    else:
        lines = [r.line(with_timing=with_timing) for r in results]
        lines.append(f"passed {n_pass}/{len(results)}")
        text = "\n".join(lines) + "\n"
    code = 0 if n_pass == len(results) else 1
    return text, code


# name: (help text, handler, config keys of its flags in --help order);
# every command also takes --workers, --format, --out and --no-timestamp.
_COMMANDS = {
    "dim": ("solve one Moran dimension with certificates", _cmd_dim,
            ("family", "ratios", "subset", "word", "tol", "precision_bits")),
    "spectrum": ("certified dimension cloud over words extending a base set", _cmd_spectrum,
                 ("family", "ratios", "depth", "base", "tol")),
    "boxdim": ("box-counting slope of a family's dimension cloud", _cmd_boxdim,
               ("family", "ratios", "depth", "base", "scales")),
    "localdim": ("windowed local dimension profile of the cloud", _cmd_localdim,
                 ("family", "ratios", "depth", "base")),
    "gaps": ("uniform-perfectness gap statistic of the cloud", _cmd_gaps,
             ("family", "ratios", "depth", "base")),
    "classify": ("qualitative type of the cloud (I / II / III)", _cmd_classify,
                 ("family", "ratios", "depth", "base")),
    "perturb": ("one-symbol perturbation sweep and exponent fit", _cmd_perturb,
                ("family", "ratios", "subset", "tol", "b_range")),
    "construct-k": ("exact sparse cloud of the dyadic construction", _cmd_construct_k,
                    ("depth",)),
    "verify": ("run the acceptance suite", _cmd_verify, ("criteria",)),
}


def _execute(args):
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    _, handler, _ = _COMMANDS[args.command]
    result = handler(args, _config_of(args))
    if isinstance(result, tuple):
        return result
    return result, 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text, code = _execute(args)
        if args.out:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ConfigError(f"cannot write --out {args.out}: {exc.strerror}") from None
    except DimspecError as exc:
        record = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(record, sort_keys=True))
        print(f"error: {exc}", file=sys.stderr)
        return getattr(exc, "exit_code", 1)
    if not args.out:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
