"""dimspec benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload spectrum-mp --seed 1 --seconds 25 --trace 0

Runs from the root of a source checkout and imports dimspec from its
``src/``.  Whole passes over the workload's operations repeat while
the next one is expected to end within ``--seconds`` (at least one).
With ``--trace 0`` no pass is traced and the end-to-end metrics are
reported; with ``--trace 1`` passes alternate untraced and traced, and
the per-layer metrics come from the traced ones.  The
independent oracle (oracle.py) checks the outputs after the timed
region.  The last line of stdout is the JSON result; the metric names
and units are the ones listed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
OUT_DIR = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="self-test sizes (depth-6 cloud, 20 solves); not a benchmark run")
    return p.parse_args(argv)


class ColdStarts:
    """Times `cold_start.py` in fresh interpreters and keeps their digests."""

    def __init__(self, workload, seed, tiny):
        self.cmd = [sys.executable, str(HERE / "cold_start.py"), "--workload", workload,
                    "--seed", str(seed)] + (["--tiny"] if tiny else [])
        self.times, self.digests = [], set()

    def run_one(self):
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        self.times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"cold start failed:\n{done.stderr}")
        self.digests.add(done.stdout.strip())


@dataclass
class PassResult:
    wall: float
    durations: list
    status: list            # "ok", "refused" or "error" per op
    fingerprints: list | None
    outputs: list | None = None
    mismatch: list | None = None  # per op: output differs from the first pass
    traced: bool = False
    trace_metrics: dict = field(default_factory=dict)
    spans: list | None = None


def run_pass(ops, refusals):
    n = len(ops)
    outputs, durations, status = [None] * n, [0.0] * n, ["ok"] * n
    clock = time.perf_counter
    t_pass = clock()
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            outputs[i] = op.call()
        except refusals as exc:
            outputs[i], status[i] = exc, "refused"
        except Exception as exc:  # a crashing op is a failed op, not a crashed run
            outputs[i], status[i] = "".join(traceback.format_exception(exc)), "error"
        durations[i] = clock() - t0
    wall = clock() - t_pass
    prints = [f"{type(o).__name__}: {o}" if s == "refused" else workloads.fingerprint(o)
              for o, s in zip(outputs, status)]
    return PassResult(wall, durations, status, prints, outputs)


def measure(ops, seconds, trace, refusals, between):
    """Whole passes while the next one is expected to end within `seconds`;
    with trace, every second pass is traced (at least one untraced and
    one traced pass).  `between()` runs before each pass, outside its
    timing."""
    tracer = tracing.Tracer() if trace else None
    analysis = layers.LayerAnalysis() if trace else None
    passes, rounds = [], []
    t_run = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        traced = trace and len(passes) % 2 == 1
        between()
        gc.collect()
        if traced:
            tracer.reset()
            tracer.install()
            try:
                res = run_pass(ops, refusals)
            finally:
                tracer.uninstall()
            bytes_out = sum(len(o.encode()) for o, s in zip(res.outputs, res.status)
                            if s == "ok" and isinstance(o, str))
            res.traced = True
            res.trace_metrics = analysis.pass_metrics(tracer.spans, tracer.counts,
                                                      res.wall, bytes_out)
            if not any(p.traced for p in passes):
                res.spans = tracing.dump_spans(tracer.spans)
            tracer.reset()
        else:
            res = run_pass(ops, refusals)
        # Pass 0 keeps its outputs for the oracle; later passes keep only
        # whether they reproduced it, so the harness's memory stays flat.
        ref = passes[0].fingerprints if passes else res.fingerprints
        res.mismatch = [a != b for a, b in zip(res.fingerprints, ref)]
        if passes:
            res.outputs = res.fingerprints = None
        passes.append(res)
        now = time.perf_counter()
        rounds.append(now - t_round)
        if (now - t_run + statistics.median(rounds) > seconds
                and len(passes) >= (2 if trace else 1)):
            break
    if tracer is not None and tracer.unbound:
        print("warning: not traced: " + ", ".join(tracer.unbound), file=sys.stderr)
    return passes


def run_oracle(ops, first):
    """Problems per op for the outputs of the first pass."""
    problems = []
    for op, out, st in zip(ops, first.outputs, first.status):
        if st == "error":
            problems.append([f"{op.label}: raised\n{out}"])
        elif st == "refused":
            problems.append([])
        else:
            try:
                problems.append(op.check(out))
            except Exception as exc:  # a malformed output is a rejected output
                problems.append([f"{op.label}: oracle could not read the output: {exc!r}"])
    return problems


def quantile(values, q):
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    src = ROOT / "src"
    if not (src / "dimspec" / "__init__.py").is_file():
        print(f"error: no dimspec sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import dimspec
    from dimspec.errors import InsufficientPrecision

    if not Path(dimspec.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: imported dimspec from {dimspec.__file__}, not {src}", file=sys.stderr)
        return 2

    specs = workloads.make_specs(args.workload, args.seed, args.tiny)
    digest = workloads.digest(specs)
    ops = workloads.build_ops(specs)

    # One cold start before each pass, so set-up is sampled across the run
    # like the passes are, not only in the state the shared host is in at its start.
    cold = ColdStarts(args.workload, args.seed, args.tiny)
    passes = measure(ops, args.seconds, bool(args.trace), (InsufficientPrecision,), cold.run_one)
    while len(cold.times) < SETUP_REPEATS:
        cold.run_one()
    setup_times = cold.times
    if cold.digests != {digest}:
        print(f"error: cold-start inputs {cold.digests} differ from {digest}", file=sys.stderr)
        return 1
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    t_oracle = time.perf_counter()
    problems = run_oracle(ops, passes[0])
    oracle_s = time.perf_counter() - t_oracle
    rejected = [bool(p) for p in problems]

    weights = [op.weight for op in ops]
    per_pass = sum(weights)
    failed = refused_total = mismatched = 0
    bad_per_pass = []
    for res in passes:
        bad = refused = 0
        for i, (st, differs) in enumerate(zip(res.status, res.mismatch)):
            if st == "refused" and not differs:
                refused += weights[i]
            elif st == "error" or rejected[i] or differs:
                bad += weights[i]
                mismatched += differs
        failed += bad
        refused_total += refused
        bad_per_pass.append(bad + refused)
    attempted = per_pass * len(passes)
    correct = failed == 0

    untraced = [p for p in passes if not p.traced]
    # Each op's fastest untraced run: its cost with the least interference
    # from the rest of a shared machine, whose speed drifts within a run.
    fastest = [min(p.durations[i] for p in untraced) for i in range(len(ops))]
    sampled = [i for i, op in enumerate(ops) if op.sample]
    pooled = [p.durations[i] for p in untraced for i in sampled]
    first = passes[0]
    cloud = [op.points(first.outputs[i]) for i, op in enumerate(ops)
             if op.points is not None and first.status[i] == "ok" and not rejected[i]]
    distinct, total = (sum(c[0] for c in cloud), sum(c[1] for c in cloud)) if cloud else (0, 0)

    walls = [p.wall for p in untraced]
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": sum(fastest),
        "solve_p50_ms": 1e3 * statistics.median(fastest[i] for i in sampled),
        "solve_p99_ms": 1e3 * quantile(pooled, 99),
        # Laplace's rule of succession over one pass: never 0, 1/(n+2) when nothing fails
        "fail_frac": (statistics.mean(bad_per_pass) + 1) / (per_pass + 2),
        "distinct_frac": distinct / total if total else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }

    print(f"workload {args.workload} seed {args.seed}: inputs sha256 {digest}")
    print(f"{len(ops)} ops ({per_pass} results) per pass; {len(passes)} passes "
          f"({len(untraced)} untraced); pass walls {[round(w, 4) for w in walls]}, "
          f"median {statistics.median(walls):.4f} s")
    print(f"latency samples: {len(sampled)} ops x {len(untraced)} passes; "
          f"setup runs: {[round(t, 4) for t in setup_times]}")
    print(f"oracle: {sum(rejected)} of {len(ops)} ops rejected, {mismatched} pass mismatches, "
          f"{refused_total} refused results, {oracle_s:.3f} s")
    for op, p in zip(ops, problems):
        for line in p[:3]:
            print(f"  REJECTED {line}")
    refused_labels = [op.label for op, st in zip(ops, passes[0].status) if st == "refused"]
    if refused_labels:
        print("refused (InsufficientPrecision): " + "; ".join(refused_labels))

    if args.trace:
        traced = [p for p in passes if p.traced]
        per_layer = {key: statistics.median(p.trace_metrics[key] for p in traced)
                     for key in traced[0].trace_metrics}
        per_layer["trace.overhead_frac"] = per_layer["trace.wall_s"] / statistics.median(walls) - 1.0
        per_layer.update(layers.src_lines(ROOT))
        per_layer["oracle.rejections"] = sum(rejected)
        per_layer["oracle.s"] = oracle_s
        for line in layers.prediction_lines(args.workload, per_layer):
            print(line)
        OUT_DIR.mkdir(exist_ok=True)
        dump = {"workload": args.workload, "seed": args.seed, "inputs_sha256": digest,
                "per_layer": per_layer, "spans": traced[0].spans}
        (OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(dump))
        wanted, values = spec["per_layer"], per_layer
    else:
        wanted, values = spec["end_to_end"], metrics

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
