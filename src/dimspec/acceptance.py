"""Self-contained acceptance suite.

Nine numbered checks cover the quantitative mechanisms end to end:
closed-form roots, bracketing certificates against an independent
high-precision oracle, the perturbation exponent law, the pressure
derivative band, the branch-increment band, the shrinking spectrum
profile, the exact separation construction, the qualitative type
taxonomy, and CLI determinism.  The CLI `verify` subcommand and the
test suite both call these functions, so a criterion has exactly one
implementation.

Checks 3 and 4 assert the idealised asymptotic constants on a finite
sweep; the measured deviations (about 3.4% where 3% is demanded, and a
17% spread of the per-symbol suprema where 5% is demanded) are real
properties of the b = 6..16 window, not bugs, and those two checks fail
honestly.  See the docstrings below for the numbers.
"""

from __future__ import annotations

import math
import random
import tempfile
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import mpmath

from .construction import g_exponent, separation_check
from .families import ContractionFamily
from .metrics import box_dimension_estimate, classify_type, uniform_perfectness_gaps
from .perturbation import derivative_comparability, exponent_fit
from .solver import moran_bounds, solve_dimension
from .spectrum import branch_increment, expand_spectrum

GOLDEN_RATIO_DIM = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
CANTOR_DIM = math.log(2.0) / math.log(3.0)
TYPE_THREE_DIM = math.log(2.0 / (3.0 - math.sqrt(5.0))) / math.log(3.0)


@dataclass
class CriterionResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self, with_timing=True) -> str:
        status = "PASS" if self.passed else "FAIL"
        timing = f" [{self.elapsed:.1f}s]" if with_timing else ""
        return f"criterion {self.number} {status}{timing} {self.name}: {self.details}"


class CloudCache:
    """Memoises spectrum clouds shared between the spectrum checks.

    A cache lives as long as its holder: run_all makes a fresh one per
    call and hands it to criteria 6 and 8.
    """

    def __init__(self):
        self._clouds = {}

    def cloud(self, family_name: str, depth: int):
        key = (family_name, depth)
        if key not in self._clouds:
            fam = ContractionFamily.from_name(family_name)
            self._clouds[key] = expand_spectrum(fam, depth, base_symbols=(1, 2))
        return self._clouds[key]


def _sweep_family():
    """Explicit family {1/2, 1/4} plus the dyadic sweep 2**-6 .. 2**-16."""
    ratios = [Fraction(1, 2), Fraction(1, 4)] + [Fraction(1, 2**k) for k in range(6, 17)]
    return ContractionFamily.explicit(ratios), tuple(range(3, 14))


def criterion_1() -> CriterionResult:
    """Closed-form dimensions at tolerance 1e-10, each solve under 1 s."""
    t0 = time.perf_counter()
    tol = 1e-10
    checks = []

    def closed_form(name, family, subset, target):
        t = time.perf_counter()
        iv = solve_dimension(family, subset, tol=tol)
        dt = time.perf_counter() - t
        ok = iv.lo <= target <= iv.hi and abs(iv.mid - target) <= tol and dt < 1.0
        checks.append((name, ok, iv.mid, target, dt))

    closed_form("cantor-pair", ContractionFamily.from_name("cantor-pair"), "full", CANTOR_DIM)
    closed_form(
        "half-quarter",
        ContractionFamily.explicit([Fraction(1, 2), Fraction(1, 4)]),
        "full",
        GOLDEN_RATIO_DIM,
    )
    closed_form("geometric-full", ContractionFamily.geometric(), "full", 1.0)
    closed_form("type-three-full", ContractionFamily.type_three(), "full", TYPE_THREE_DIM)
    closed_form("singleton", ContractionFamily.explicit([Fraction(1, 2)]), "full", 0.0)

    passed = all(ok for _, ok, *_ in checks)
    details = "; ".join(
        f"{name} mid={mid:.12f} target={target:.12f} {'ok' if ok else 'BAD'}"
        for name, ok, mid, target, _ in checks
    )
    return CriterionResult(1, "closed-form dimensions", passed, details, time.perf_counter() - t0)


def _oracle_sum_sqexp(indices, x, prec=200):
    """Independent (lower, upper) bounds of the defining sum
    sum 2**(-a*a*x) at the exact float x, evaluated at prec bits with an
    outward slack 2**-(prec-16) that covers the rounding of every power
    and of the sum.  No shared code with the production solver."""
    with mpmath.workprec(prec + 20):
        x = mpmath.mpf(x)
        total = mpmath.fsum(mpmath.power(2, -(a * a) * x) for a in indices)
        slack = mpmath.mpf(2) ** (16 - prec)
        return total * (1 - slack), total * (1 + slack)


def criterion_2() -> CriterionResult:
    """1000 random square-exponent subsets: certificates + oracle containment."""
    t0 = time.perf_counter()
    fam = ContractionFamily.square_exponent()
    rng = random.Random(20260814)
    bad = 0
    first_bad = ""
    for trial in range(1000):
        size = rng.randint(2, 8)
        indices = tuple(sorted(rng.sample(range(1, 13), size)))
        iv = solve_dimension(fam, indices, tol=1e-10)
        cert_ok = (
            moran_bounds(fam, indices, iv.lo, iv.width_budget)[0] >= 1.0
            and moran_bounds(fam, indices, iv.hi, iv.width_budget)[1] <= 1.0
        )
        # The sum is strictly decreasing in s, so sum(lo) >= 1 >= sum(hi)
        # proves that the root lies in [lo, hi].
        contains = (_oracle_sum_sqexp(indices, iv.lo)[0] >= 1
                    and _oracle_sum_sqexp(indices, iv.hi)[1] <= 1)
        if not (cert_ok and contains):
            bad += 1
            if not first_bad:
                first_bad = f" first failure: subset={indices} iv=[{iv.lo},{iv.hi}]"
    elapsed = time.perf_counter() - t0
    passed = bad == 0 and elapsed < 30.0
    details = f"1000 subsets, {bad} failures (budget 30s){first_bad}"
    return CriterionResult(2, "bracketing certificates vs 200-bit oracle", passed, details, elapsed)


def criterion_3() -> CriterionResult:
    """Perturbation exponent law on the dyadic sweep.

    Gate: slope within 3% of delta = 0.694241913 and normalised-ratio
    max/min < 10, in under 10 s.  The slope gate fails honestly: the
    least-squares slope over b = 6..16 is 0.67092, a 3.36% deviation,
    because the correction to the asymptotic law still decays only like
    ratio(b)**delta inside this window (restricting the fit to the
    five smallest ratios already lands within 0.1%).
    """
    t0 = time.perf_counter()
    fam, b_range = _sweep_family()
    report = exponent_fit(fam, (1, 2), b_range)
    delta_ref = 0.694241913
    rel_dev = abs(report.slope - delta_ref) / delta_ref
    ratio_spread = report.ratio_max / report.ratio_min
    elapsed = time.perf_counter() - t0
    slope_ok = rel_dev <= 0.03
    spread_ok = ratio_spread < 10.0
    passed = slope_ok and spread_ok and elapsed < 10.0
    details = (
        f"slope={report.slope:.10f} dev={100 * rel_dev:.2f}% (gate 3%) "
        f"{'ok' if slope_ok else 'FAIL'}; ratio max/min={ratio_spread:.4f} "
        f"(gate 10) {'ok' if spread_ok else 'FAIL'}"
    )
    return CriterionResult(3, "perturbation exponent law", passed, details, elapsed)


def criterion_4() -> CriterionResult:
    """Pressure-derivative band across the sweep.

    Gate: per-b inf and sup of -P' over s in [delta, 3] each spread
    less than 5% across b.  The inf side passes with a 0.01% spread;
    the sup side fails honestly at about 17%: the sup sits at s = delta
    where the b-term 2**(-b*delta) still carries weight for b = 6.
    """
    t0 = time.perf_counter()
    fam, b_range = _sweep_family()
    infs, sups = [], []
    for b in b_range:
        lo, hi = derivative_comparability(fam, (1, 2), b)
        infs.append(lo)
        sups.append(hi)
    inf_spread = (max(infs) - min(infs)) / min(infs)
    sup_spread = (max(sups) - min(sups)) / min(sups)
    positive = min(infs) > 0.0
    inf_ok = inf_spread < 0.05
    sup_ok = sup_spread < 0.05
    passed = positive and inf_ok and sup_ok
    details = (
        f"band positive={positive}; inf spread={100 * inf_spread:.3f}% "
        f"{'ok' if inf_ok else 'FAIL'}; sup spread={100 * sup_spread:.2f}% "
        f"{'ok' if sup_ok else 'FAIL'} (gates 5%)"
    )
    return CriterionResult(4, "pressure derivative comparability", passed, details, time.perf_counter() - t0)


def criterion_5() -> CriterionResult:
    """Branch-increment band over all coded words up to length 8."""
    t0 = time.perf_counter()
    fam = ContractionFamily.square_exponent()
    ratios_by_len = {}
    for length in range(2, 9):
        words = ["11" + format(m, f"0{length - 2}b") if length > 2 else "11" for m in range(1 << (length - 2))]
        vals = []
        for w in sorted(set(words)):
            vals.append(branch_increment(fam, w).ratio)
        ratios_by_len[length] = vals

    all_ratios = [r for vals in ratios_by_len.values() for r in vals]
    band = (min(all_ratios), max(all_ratios))
    band6 = [r for length in range(2, 7) for r in ratios_by_len[length]]
    band6 = (min(band6), max(band6))
    spread_ok = band[1] / band[0] < 20.0
    drift_lo = band6[0] / band[0]
    drift_hi = band6[1] / band[1]
    drift_ok = 0.5 < drift_lo < 2.0 and 0.5 < drift_hi < 2.0
    elapsed = time.perf_counter() - t0
    passed = spread_ok and drift_ok and elapsed < 120.0
    details = (
        f"band=[{band[0]:.4f},{band[1]:.4f}] max/min={band[1] / band[0]:.3f} (gate 20) "
        f"{'ok' if spread_ok else 'FAIL'}; depth6 band=[{band6[0]:.4f},{band6[1]:.4f}] "
        f"drift=({drift_lo:.3f},{drift_hi:.3f}) (gate 2x) {'ok' if drift_ok else 'FAIL'}"
    )
    return CriterionResult(5, "branch increment band", passed, details, elapsed)


def criterion_6(cache: CloudCache) -> CriterionResult:
    """Spectrum cloud profile shrinks; gap ratios grow (depths 6..10)."""
    t0 = time.perf_counter()
    slopes = {}
    gap_ratios = {}
    for depth in range(6, 11):
        cloud = cache.cloud("square-exponent", depth)
        mids = cloud.midpoints()
        slopes[depth] = box_dimension_estimate(mids).slope
        gap_ratios[depth] = uniform_perfectness_gaps(mids).max_ratio
    decreasing = all(slopes[d] > slopes[d + 1] for d in range(6, 10))
    small_end = slopes[10] < 0.2
    increasing = all(gap_ratios[d] < gap_ratios[d + 1] for d in range(6, 10))
    elapsed = time.perf_counter() - t0
    passed = decreasing and small_end and increasing and elapsed < 300.0
    details = (
        "slopes=" + ",".join(f"{slopes[d]:.4f}" for d in range(6, 11))
        + f" strict-decr={decreasing} end<0.2={small_end}; gap-ratios="
        + ",".join(f"{gap_ratios[d]:.1f}" for d in range(6, 11))
        + f" strict-incr={increasing}"
    )
    return CriterionResult(6, "shrinking spectrum profile", passed, details, elapsed)


def criterion_7() -> CriterionResult:
    """Exact separation and factorial decay, exhaustively."""
    t0 = time.perf_counter()
    sep_bad = 0
    pairs = 0
    for length in range(1, 6):
        words = [format(m, f"0{length}b") for m in range(1 << length)]
        for i in range(len(words)):
            for j in range(i + 1, len(words)):
                pairs += 1
                if not separation_check(words[i], words[j]).satisfied:
                    sep_bad += 1

    decay_bad = 0
    decay_checks = 0
    for length in range(1, 9):
        for m in range(1 << length):
            w = format(m, f"0{length}b")
            exps = [g_exponent(w[:j]) for j in range(length + 1)]
            for n in range(length):
                for k in range(1, length - n + 1):
                    decay_checks += 1
                    if exps[n + k] < exps[n] + 2 * k:
                        decay_bad += 1
    elapsed = time.perf_counter() - t0
    passed = sep_bad == 0 and decay_bad == 0 and elapsed < 60.0
    details = (
        f"{pairs} equal-length pairs, {sep_bad} separation failures; "
        f"{decay_checks} decay inequalities, {decay_bad} failures"
    )
    return CriterionResult(7, "exact separation construction", passed, details, elapsed)


def criterion_8(cache: CloudCache) -> CriterionResult:
    """Type taxonomy: geometric I, square-exponent II, type-three III."""
    t0 = time.perf_counter()
    outcomes = {}
    for name, depth, want in (
        ("geometric", 12, "Type I"),
        ("square-exponent", 10, "Type II"),
        ("type-three", 12, "Type III"),
    ):
        cloud = cache.cloud(name, depth)
        got = classify_type(cloud.midpoints()).label
        outcomes[name] = (got, want)
    elapsed = time.perf_counter() - t0
    passed = all(got == want for got, want in outcomes.values()) and elapsed < 300.0
    details = "; ".join(
        f"{name}: {got} (want {want})" for name, (got, want) in outcomes.items()
    )
    return CriterionResult(8, "local type taxonomy", passed, details, elapsed)


def criterion_9() -> CriterionResult:
    """Byte-identical outputs across --workers 1 and --workers 8.

    Runs every data subcommand twice into temp files.  verify itself is
    excluded: it is the suite being run, and its reproducibility is
    exactly the reproducibility of the commands checked here.
    """
    from . import cli  # deferred: cli imports this module for `verify`

    t0 = time.perf_counter()
    commands = [
        ["dim", "--family", "square-exponent", "--subset", "1,2", "--tol", "1e-10"],
        ["dim", "--family", "cantor-pair", "--tol", "1e-12", "--format", "csv"],
        ["spectrum", "--family", "square-exponent", "--depth", "6", "--base", "1,2", "--format", "csv"],
        ["spectrum", "--family", "square-exponent", "--depth", "6", "--base", "1,2"],
        ["boxdim", "--family", "square-exponent", "--depth", "6"],
        ["boxdim", "--family", "cantor-pair", "--depth", "8", "--format", "csv"],
        ["localdim", "--family", "geometric", "--depth", "8"],
        ["gaps", "--family", "square-exponent", "--depth", "6", "--format", "csv"],
        ["classify", "--family", "geometric", "--depth", "8"],
        ["perturb", "--family", "square-exponent", "--subset", "1,2", "--b-range", "4:7", "--format", "csv"],
        ["construct-k", "--depth", "4"],
    ]
    mismatches = []
    with tempfile.TemporaryDirectory() as tmp:
        for idx, cmd in enumerate(commands):
            outputs = []
            for workers in ("1", "8"):
                out = Path(tmp) / f"cmd{idx}_w{workers}.out"
                argv = cmd + ["--workers", workers, "--no-timestamp", "--out", str(out)]
                code = cli.main(argv)
                if code != 0:
                    mismatches.append(f"{cmd[0]} exited {code}")
                    break
                outputs.append(out.read_bytes())
            if len(outputs) == 2 and outputs[0] != outputs[1]:
                mismatches.append(f"{cmd[0]} differs between worker counts")
    elapsed = time.perf_counter() - t0
    passed = not mismatches
    details = (
        f"{len(commands)} commands byte-identical across workers 1/8"
        if passed
        else "; ".join(mismatches)
    )
    return CriterionResult(9, "worker-count determinism", passed, details, elapsed)


ALL_CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_all(numbers=None):
    """Run the numbered criteria (all by default); criteria 6 and 8
    share one fresh CloudCache."""
    cache = CloudCache()
    if numbers is None:
        numbers = range(1, len(ALL_CRITERIA) + 1)
    results = []
    for n in numbers:
        fn = ALL_CRITERIA[n - 1]
        if fn in (criterion_6, criterion_8):
            results.append(fn(cache))
        else:
            results.append(fn())
    return results
