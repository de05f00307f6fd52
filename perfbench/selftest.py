"""Self-test of the benchmark at tiny sizes (depth-6 cloud, 20 solves).

    python3 perfbench/selftest.py

Checks that every workload prints every metric of BENCHMARK.json with
its unit in both trace modes, and that the oracle gate bites: shifted
intervals, a tampered CLI document and a perturbed pressure derivative
are rejected, and a run against a solver whose enclosures are shifted
reports correct=false.  Exits 1 if any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def check_metric_names():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in workloads.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
                   "--seconds", "0.5", "--trace", str(trace), "--tiny"]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, cwd=ROOT)
            if done.returncode != 0:
                expect(False, f"{workload} trace {trace}: exit {done.returncode}\n{done.stderr}")
                continue
            result = last_json(done.stdout)
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            numeric = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            expect(got == want and numeric, f"{workload} trace {trace}: every {key} metric with its unit")
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                   f"{workload} trace {trace}: correct, 0 failed")


def check_oracle_rejects():
    from dimspec import ContractionFamily, solve_dimension

    fam = ContractionFamily.square_exponent()
    iv = solve_dimension(fam, (1, 2), tol=1e-10)
    w = iv.hi - iv.lo
    expect(not oracle.check_interval("square-exponent", (1, 2), iv.lo, iv.hi),
           "oracle accepts a certified interval")
    expect(bool(oracle.check_interval("square-exponent", (1, 2), iv.hi + w, iv.hi + 2 * w)),
           "oracle rejects an interval shifted above the root")
    expect(bool(oracle.check_interval("square-exponent", (1, 2), iv.lo - 2 * w, iv.lo - w)),
           "oracle rejects an interval shifted below the root")
    full = solve_dimension(ContractionFamily.type_three(), "full", tol=1e-10)
    expect(bool(oracle.check_interval("type-three", None, full.hi, full.hi + w)),
           "oracle rejects a shifted interval of an infinite selector")

    text = workloads.run_cli(["spectrum", "--family", "square-exponent", "--depth", "6"]
                             + workloads.CLI_FLAGS)
    expect(not oracle.check_spectrum_doc(text, "square-exponent", 6, (1, 2))[0],
           "oracle accepts the depth-6 spectrum document")
    doc = json.loads(text)
    row = doc["rows"]["data"][3]
    row[1], row[2] = row[2] + (row[2] - row[1]), row[2] + 2 * (row[2] - row[1])
    expect(bool(oracle.check_spectrum_doc(json.dumps(doc), "square-exponent", 6, (1, 2))[0]),
           "oracle rejects a spectrum document with one shifted row")

    from dimspec import pressure_derivative

    v = pressure_derivative(ContractionFamily.geometric(), "full", 0.5)
    expect(not oracle.check_pressure_derivative("geometric", None, 0.5, v),
           "oracle accepts pressure_derivative")
    expect(bool(oracle.check_pressure_derivative("geometric", None, 0.5, v * (1 + 1e-9))),
           "oracle rejects a pressure_derivative off by 1e-9")


def check_gate_bites():
    """A full tiny run against a solver that shifts every enclosure up by
    its own width must come out correct=false."""
    import dimspec
    from dimspec import solver

    original = solver.solve_dimension

    def shifted(*args, **kwargs):
        iv = original(*args, **kwargs)
        w = max(iv.hi - iv.lo, 1e-12)
        return dataclasses.replace(iv, lo=iv.lo + 2 * w, hi=iv.hi + 2 * w)

    patched = [(m, a) for m in list(sys.modules.values())
               if m is not None and getattr(m, "__name__", "").startswith("dimspec")
               for a, v in list(vars(m).items()) if v is original]
    assert patched, dimspec.__file__
    for m, a in patched:
        setattr(m, a, shifted)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            run.main(["--workload", "dim-perturb", "--seed", "7", "--seconds", "0.1", "--tiny"])
    finally:
        for m, a in patched:
            setattr(m, a, original)
    result = last_json(out.getvalue())
    expect(result["correct"] is False and result["failed"] > 0,
           f"run against a shifted solver is rejected ({result['failed']} failed results)")


def main():
    check_oracle_rejects()
    check_gate_bites()
    check_metric_names()
    print(f"{len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
