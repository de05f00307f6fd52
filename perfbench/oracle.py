"""Independent certificate oracle.

Shares no code with ``dimspec``: the ratios, truncation rule and tail
bounds below are written out again here.  A returned enclosure [lo, hi]
of a Moran root counts only if the defining sum, evaluated at 200 bits
at the exact returned endpoints, satisfies sum(lo) >= 1 and, unless hi
is the ambient bound 1, sum(hi) <= 1.  Every check returns a list of
problems; an empty list means accepted.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction

import mpmath

PREC = 200
LABELS = ("Type I", "Type II", "Type III", "Unclassified")

# symbol a -> (base, exponent k(a)) with ratio(a) = base**(-k(a))
_SHAPES = {
    "square-exponent": (2, lambda a: a * a),
    "geometric": (2, lambda a: a),
    "type-three": (3, lambda a: 1 if a == 1 else a - 1),
}


def _tail_bound(family, n, x):
    """Upper bound on the sum of ratio(a)**x over a > n (n >= 1), and
    whether the bound is the exact tail value."""
    if family == "square-exponent":
        # a*a - (n+1)**2 = (a-n-1)(a+n+1) >= (a-n-1)(2n+2) for a > n
        return 2 ** (-((n + 1) ** 2) * x) / (1 - 2 ** (-(2 * n + 2) * x)), False
    if family == "geometric":
        return 2 ** (-(n + 1) * x) / (1 - 2 ** (-x)), True
    return 3 ** (-n * x) / (1 - 3 ** (-x)), True  # type-three, n >= 1


def moran_bounds(family, indices, x, prec=PREC):
    """(lower, upper) bounds of sum over the selected a of ratio(a)**x.

    indices is a tuple of symbols, or None for the whole infinite
    family.  Evaluated at prec bits with an outward slack that covers
    the rounding of every power and of the sum.
    """
    base, k = _SHAPES[family]
    with mpmath.workprec(prec + 20):
        x = mpmath.mpf(x)
        slack = mpmath.mpf(2) ** (-(prec - 16))
        if x == 0:
            exact = mpmath.inf if indices is None else mpmath.mpf(len(indices))
            return exact, exact
        if indices is not None:
            total = mpmath.fsum(mpmath.power(base, -k(a) * x) for a in indices)
            return total * (1 - slack), total * (1 + slack)
        if x < 0:
            return mpmath.inf, mpmath.inf
        n = 16
        while True:
            total = mpmath.fsum(mpmath.power(base, -k(a) * x) for a in range(1, n + 1))
            tail, exact = _tail_bound(family, n, x)
            if exact or tail <= total * slack or n >= 1 << 16:
                break
            n *= 2
        lower = (total + tail) if exact else total
        return lower * (1 - slack), (total + tail) * (1 + slack)


def _sum_at_least_one(family, indices, x):
    for prec in (PREC, 2 * PREC):
        lower, upper = moran_bounds(family, indices, x, prec)
        if lower >= 1:
            return True
        if upper < 1:
            return False
    return False


def _sum_at_most_one(family, indices, x):
    for prec in (PREC, 2 * PREC):
        lower, upper = moran_bounds(family, indices, x, prec)
        if upper <= 1:
            return True
        if lower > 1:
            return False
    return False


def check_interval(family, indices, lo, hi, hi_is_ambient=False, what="interval"):
    """Certificate check of one Moran root enclosure [lo, hi]."""
    problems = []
    lo_q, hi_q = Fraction(lo), Fraction(hi)
    if not (0 <= lo_q <= hi_q):
        return [f"{what}: bad endpoints [{lo}, {hi}]"]
    if not _sum_at_least_one(family, indices, lo):
        problems.append(f"{what}: sum(lo={lo!r}) < 1 for {family} {indices}")
    if hi_is_ambient:
        if hi_q > 1:
            problems.append(f"{what}: ambient hi={hi!r} exceeds 1")
    elif not _sum_at_most_one(family, indices, hi):
        problems.append(f"{what}: sum(hi={hi!r}) > 1 for {family} {indices}")
    return problems


def check_dimension(family, indices, iv, what="solve"):
    """check_interval on a DimensionInterval-like object."""
    return check_interval(family, indices, iv.lo, iv.hi,
                          bool(getattr(iv, "hi_is_ambient", False)), what)


def _log_sum(family, indices, s, prec):
    lower, upper = moran_bounds(family, indices, s, prec)
    with mpmath.workprec(prec):
        return mpmath.log((lower + upper) / 2)


def pressure_slope(family, indices, s, prec=PREC):
    """Central finite difference of log(sum ratio**s), step 2**-50."""
    with mpmath.workprec(prec):
        s = mpmath.mpf(s)
        h = mpmath.mpf(2) ** -50
        return (_log_sum(family, indices, s + h, prec)
                - _log_sum(family, indices, s - h, prec)) / (2 * h)


# pressure_derivative is a double-precision estimate, not a certificate
PRESSURE_REL_TOL = 1e-11


def check_pressure_derivative(family, indices, s, value):
    ref = pressure_slope(family, indices, s)
    if not math.isfinite(value) or abs(mpmath.mpf(value) - ref) > PRESSURE_REL_TOL * abs(ref):
        return [f"pressure_derivative({family}, s={s}) = {value!r}, reference {mpmath.nstr(ref, 20)}"]
    return []


def _check_difference(enclosure, lower_iv, upper_iv, what):
    """[lo, hi] must contain every difference upper - lower of points of
    the two enclosures, and lo must be positive."""
    lo, hi = (Fraction(v) for v in enclosure)
    inner_lo = Fraction(upper_iv.lo) - Fraction(lower_iv.hi)
    inner_hi = Fraction(upper_iv.hi) - Fraction(lower_iv.lo)
    if not (0 < lo <= inner_lo and inner_hi <= hi):
        return [f"{what}: enclosure {enclosure} does not contain [{float(inner_lo)}, {float(inner_hi)}]"]
    return []


def check_increment(family, base, b, result):
    """increment(family, base, b) -> ((lo, hi), d0, d1)."""
    enclosure, d0, d1 = result
    extended = tuple(sorted(tuple(base) + (b,)))
    return (check_dimension(family, tuple(base), d0, f"increment b={b} base")
            + check_dimension(family, extended, d1, f"increment b={b} extended")
            + _check_difference(enclosure, d0, d1, f"increment b={b}"))


def word_symbols(word):
    return tuple(i + 1 for i, c in enumerate(word) if c == "1")


def check_branch_increment(family, word, result):
    problems = (check_dimension(family, word_symbols(word + "0"), result.child0, f"branch {word}+0")
                + check_dimension(family, word_symbols(word + "1"), result.child1, f"branch {word}+1")
                + _check_difference(result.enclosure, result.child0, result.child1, f"branch {word}"))
    if not (result.normalizer > 0 and math.isfinite(result.ratio) and result.ratio > 0):
        problems.append(f"branch {word}: normalizer {result.normalizer}, ratio {result.ratio}")
    return problems


# -- the dyadic construction, written out independently ------------------

@functools.cache
def weight_exponent(prefix):
    """g(prefix) = 2**-(2 * n!) with n the length-first enumeration index."""
    n = 1 if prefix == "" else (1 << len(prefix)) + int(prefix, 2)
    return 2 * math.factorial(n)


def f_exponents(word):
    return tuple(sorted(weight_exponent(word[:i]) for i, c in enumerate(word) if c == "1"))


def sparse_less(a, b):
    """Value order of two sums of distinct powers 2**-e (ascending tuples)."""
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return len(a) < len(b)


def check_k_cloud(depth, points):
    words = [p.word for p in points]
    if sorted(words) != [format(m, f"0{depth}b") for m in range(1 << depth)]:
        return [f"k_set_cloud({depth}): words are not every length-{depth} word once"]
    problems = [f"k_set_cloud: exponents of {p.word}" for p in points
                if tuple(p.exponents) != f_exponents(p.word)]
    for p, q in zip(points, points[1:]):
        if not sparse_less(tuple(p.exponents), tuple(q.exponents)):
            problems.append(f"k_set_cloud: {p.word} not below {q.word}")
    return problems


def check_separation(omega, tau, result):
    """|f(tau) - f(omega)| >= (2/3) g(common prefix), evaluated at 200 bits
    relative to g(prefix); the program's verdict must match."""
    n = 0
    while omega[n] == tau[n]:
        n += 1
    e_sigma = weight_exponent(omega[:n])
    eo, et = f_exponents(omega), f_exponents(tau)
    big, small = (et, eo) if sparse_less(eo, et) else (eo, et)
    pos = tuple(sorted(set(big) - set(small)))
    neg = tuple(sorted(set(small) - set(big)))
    with mpmath.workprec(PREC):
        delta = (mpmath.fsum(mpmath.ldexp(1, e_sigma - e) for e in pos)
                 - mpmath.fsum(mpmath.ldexp(1, e_sigma - e) for e in neg))
        margin = 3 * delta - 2
    problems = []
    if abs(margin) <= mpmath.mpf(2) ** -150 or (margin > 0) != bool(result.satisfied):
        problems.append(f"separation {omega}/{tau}: program says {result.satisfied}, "
                        f"oracle margin {mpmath.nstr(margin, 8)}")
    if (tuple(result.positive_exponents), tuple(result.negative_exponents)) != (pos, neg):
        problems.append(f"separation {omega}/{tau}: wrong difference exponents")
    return problems


# -- CLI documents ---------------------------------------------------------

def parse_doc(text, what):
    try:
        doc = json.loads(text)
    except ValueError:
        return None, [f"{what}: output is not one JSON document"]
    if "error" in doc:
        return None, [f"{what}: error record {doc['error']}"]
    return doc, []


def check_spectrum_doc(text, family, depth, base):
    """Rows of `dimspec spectrum`: every word extending base once, each
    row a certified enclosure.  Returns (problems, mids)."""
    what = f"spectrum {family} depth {depth}"
    doc, problems = parse_doc(text, what)
    if doc is None:
        return problems, []
    rows = doc.get("rows", {})
    header, data = rows.get("header", []), rows.get("data", [])
    want = 1 << (depth - len(base))
    if len(data) != want or doc.get("n_points") != want:
        return [f"{what}: {len(data)} rows, want {want}"], []
    col = {name: header.index(name) for name in ("word", "lo", "hi", "mid")}
    words = [r[col["word"]] for r in data]
    if len(set(words)) != want or any(
            len(w) != depth or any(w[b - 1] != "1" for b in base) for w in words):
        problems.append(f"{what}: words do not enumerate the extensions of {base}")
    for r in data:
        problems += check_interval(family, word_symbols(r[col["word"]]),
                                   r[col["lo"]], r[col["hi"]], what=f"{what} {r[col['word']]}")
    bd = doc.get("base_dimension", {})
    problems += check_interval(family, tuple(base), bd.get("lo"), bd.get("hi"),
                               bool(bd.get("hi_is_ambient")), f"{what} base")
    return problems, [r[col["mid"]] for r in data]


def _finite(*values):
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_metric_doc(text, command, family):
    """Metric subcommand output: finite numbers, known label, expected
    row counts.  Returns (problems, n_points or None)."""
    what = f"{command} {family}"
    doc, problems = parse_doc(text, what)
    if doc is None:
        return problems, None
    data = doc.get("rows", {}).get("data", [])
    if command == "boxdim":
        if not _finite(doc.get("slope"), doc.get("residual")) or len(data) < 3 or not all(
                _finite(*r) for r in data):
            problems.append(f"{what}: non-finite slope or fewer than 3 scales")
    elif command == "localdim":
        if len(data) != 9 or not all(r[4] is None or _finite(r[4]) for r in data):
            problems.append(f"{what}: want 9 finite center rows, got {len(data)}")
    elif command == "gaps":
        res = doc.get("result", {})
        if len(data) != 1 or not _finite(res.get("max_ratio")) or res["max_ratio"] < 1:
            problems.append(f"{what}: bad gap record {res}")
    elif command == "classify":
        res = doc.get("result", {})
        scalars = res.get("scalars", [])
        if res.get("label") not in LABELS:
            problems.append(f"{what}: unknown label {res.get('label')!r}")
        if len(data) != 9 or len(scalars) != 9 or not all(
                s is None or _finite(s) for s in scalars):
            problems.append(f"{what}: want 9 finite scalars")
        if None in scalars and res.get("label") != "Unclassified":
            problems.append(f"{what}: empty window but label {res.get('label')!r}")
    return problems, doc.get("n_points")
