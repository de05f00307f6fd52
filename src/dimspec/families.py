"""Contraction ratio families.

A family assigns to each symbol index a = 1, 2, ... a contraction ratio
in (0, 1).  Three built-in infinite families are supported next to
finite explicit lists.  Each built-in family is one row of NAMED_FAMILIES,
ratio(a) = base**(-e(a)) with an increasing convex integer exponent e:

* ``square-exponent``: base 2, e(a) = a*a
* ``geometric``:       base 2, e(a) = a
* ``type-three``:      base 3, e(a) = max(1, a-1), so ratio(1) = ratio(2) = 1/3
* ``explicit``:        a finite list of exact rationals

For the infinite families one closed-form tail majorant bounds the sum
of ratio(a)**s over all a > N, which is what makes certified upper sums
possible.  The sum of ratio(a)**s over every symbol of a named family
is finite for every s > 0 and infinite at s = 0.

Terms come in two tiers.  term_double and tail_majorant evaluate in
doubles.  The mpmath tier encloses terms in fixed point between two
integers: power_enclosure encloses one ratio**s with one exp, and
ln_enclosure encloses |ln ratio|, for the derivative bounds the mpmath
tier certifies with.  The solver reaches both through two functions.
term_table gives the rows of any finite list of symbols, named or
explicit, which single solves, cloud words and the full selector's cut
sum alike; a named family's terms step from y = base**(-s) by integer
multiply and shift along each run of consecutive symbols, rounded down
for the lower sum and up for the upper sum.  term_tail majorises the
full selector's tail in the same integers.  The mpmath tier's point s
is an exact dyadic at * 2**-q, passed as the int pair (at, q); libmp
numbers are built here alone, and dyadic_mpf turns fixed-point units
into an mpf.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import lru_cache

from mpmath import mp
from mpmath.libmp import from_man_exp, from_rational, mpf_exp, mpf_log, mpf_mul, round_nearest, to_fixed

from .errors import ConfigError, ToleranceNotReachable

_LN2 = math.log(2.0)

# The exponents are module-level functions, not lambdas, because
# families are pickled for worker processes.
def _square(a: int) -> int:
    return a * a


def _linear(a: int) -> int:
    return a


def _shifted(a: int) -> int:
    return max(1, a - 1)


# kind -> (base, e): ratio(a) = base**(-e(a)).
NAMED_FAMILIES = {
    "square-exponent": (2, _square),
    "geometric": (2, _linear),
    "type-three": (3, _shifted),
}


def parse_ratio(text) -> Fraction:
    """Parse a ratio given as a decimal or fraction string, exactly.

    Decimal strings are rational numbers, so '0.3' becomes 3/10 with no
    rounding.  Fraction syntax like '1/3' is accepted too.
    """
    # floats are exact binary rationals; accept but do not guess digits
    number = text if isinstance(text, (Fraction, int, float)) else str(text).strip()
    try:
        value = Fraction(number)
    except (ValueError, OverflowError, ZeroDivisionError) as exc:
        raise ConfigError(f"cannot parse ratio {text!r}: {exc}") from None
    if not (0 < value < 1):
        raise ConfigError(f"ratio must lie strictly between 0 and 1, got {value}")
    return value


class ContractionFamily:
    """A (possibly infinite) list of contraction ratios indexed from 1."""

    def __init__(self, kind: str, ratios=None):
        if kind in NAMED_FAMILIES:
            if ratios is not None:
                raise ConfigError(f"kind {kind!r} takes no explicit ratios")
            self.kind = kind
            self._ratios = None
            self._base, self._e = NAMED_FAMILIES[kind]
            self._log2_base = math.log2(self._base)
        elif kind == "explicit":
            if not ratios:
                raise ConfigError("an explicit family needs at least one ratio")
            self.kind = "explicit"
            self._ratios = tuple(parse_ratio(r) for r in ratios)
        else:
            raise ConfigError(f"unknown family kind {kind!r}")

    # -- constructors ----------------------------------------------------

    @classmethod
    def square_exponent(cls) -> "ContractionFamily":
        return cls("square-exponent")

    @classmethod
    def geometric(cls) -> "ContractionFamily":
        return cls("geometric")

    @classmethod
    def type_three(cls) -> "ContractionFamily":
        return cls("type-three")

    @classmethod
    def explicit(cls, ratios) -> "ContractionFamily":
        return cls("explicit", ratios)

    @classmethod
    def from_name(cls, name: str) -> "ContractionFamily":
        if name in NAMED_FAMILIES:
            return cls(name)
        if name == "cantor-pair":
            return cls.explicit([Fraction(1, 3), Fraction(1, 3)])
        raise ConfigError(f"unknown family name {name!r}")

    # -- basic queries ----------------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self._ratios is None

    @property
    def size(self):
        """Number of symbols, or None for an infinite family."""
        return None if self._ratios is None else len(self._ratios)

    @property
    def row(self):
        """(base, e) of a named family, ratio(a) = base**(-e(a)); None
        for an explicit family."""
        return None if self._ratios is not None else (self._base, self._e)

    def check_index(self, a) -> int:
        """a as a validated int; ConfigError for anything that is not an
        integer index of this family (floats are not truncated)."""
        try:
            a = operator.index(a)
        except TypeError:
            raise ConfigError(f"symbol index must be an integer, got {a!r}") from None
        if a < 1:
            raise ConfigError(f"symbol indices start at 1, got {a}")
        if self._ratios is not None and a > len(self._ratios):
            raise ConfigError(
                f"index {a} out of range for explicit family of size {len(self._ratios)}"
            )
        return a

    def ratio(self, a: int) -> Fraction:
        """Exact contraction ratio of symbol a."""
        a = self.check_index(a)
        if self._ratios is not None:
            return self._ratios[a - 1]
        return Fraction(1, self._base ** self._e(a))

    def log2_ratio(self, a: int) -> float:
        """log2 of ratio(a) as a float; exact for the dyadic kinds.

        An explicit ratio num/den is first scaled by 2**k into [1/2, 1),
        so log2 is -k + log1p(((num << k) - den) / den) / ln 2, with no
        cancellation for a ratio near 1 (log2(num) - log2(den) loses
        the low bits of 999/1000)."""
        a = self.check_index(a)
        if self._ratios is not None:
            num, den = self._ratios[a - 1].as_integer_ratio()
            k = den.bit_length() - num.bit_length()
            if num << k >= den:
                k -= 1
            return -k + math.log1p(((num << k) - den) / den) / _LN2
        return -self._e(a) * self._log2_base

    # -- pointwise terms ---------------------------------------------------

    def term_double(self, a: int, s: float) -> float:
        """ratio(a)**s in double precision."""
        return 2.0 ** (s * self.log2_ratio(a))

    # -- tail majorants ----------------------------------------------------

    def _tail_exponents(self, n_cut: int) -> tuple[int, int]:
        """(e(n_cut+1), e(n_cut+2) - e(n_cut+1)) of a named family.

        e is convex, so the terms beyond n_cut decay at least
        geometrically with ratio base**(-step*s) and
        base**(-head*s) / (1 - base**(-step*s)) majorises their sum.
        """
        head = self._e(n_cut + 1)
        step = self._e(n_cut + 2) - head
        if step == 0:
            raise ConfigError(
                f"{self.kind} tail majorant needs e(n_cut+2) > e(n_cut+1), got n_cut = {n_cut}"
            )
        return head, step

    def tail_majorant(self, n_cut: int, s: float) -> float:
        """Upper bound for the sum of ratio(a)**s over all a > n_cut.

        One closed form for the named kinds; an explicit family is finite
        and has no tail to bound (ConfigError).  Requires s > 0 (returns
        +inf at s <= 0, where the series diverges anyway).
        """
        if self._ratios is not None:
            raise ConfigError("an explicit family is finite and has no tail majorant")
        if s <= 0.0:
            return math.inf
        head, step = self._tail_exponents(n_cut)
        base = float(self._base)
        den = 1.0 - base ** (-step * s)
        if den == 0.0:
            raise ToleranceNotReachable(f"s = {s} is too small for a tail majorant in doubles")
        return base ** (-head * s) / den

    # -- misc ----------------------------------------------------------------

    def describe(self) -> dict:
        """JSON-ready description used in CLI config echoes."""
        if self._ratios is None:
            return {"kind": self.kind}
        return {"kind": "explicit", "ratios": [str(r) for r in self._ratios]}

    @classmethod
    def from_description(cls, desc: dict) -> "ContractionFamily":
        kind = desc.get("kind")
        if kind == "explicit":
            return cls.explicit(desc.get("ratios", []))
        return cls(kind)

    def __repr__(self) -> str:
        if self._ratios is None:
            return f"ContractionFamily({self.kind!r})"
        shown = ", ".join(str(r) for r in self._ratios[:4])
        if len(self._ratios) > 4:
            shown += ", ..."
        return f"ContractionFamily(explicit, [{shown}])"

    def __eq__(self, other) -> bool:
        return isinstance(other, ContractionFamily) and (
            (self.kind, self._ratios) == (other.kind, other._ratios)
        )

    def __hash__(self):
        return hash((self.kind, self._ratios))


# -- fixed-point enclosures (the mpmath tier) ---------------------------------
#
# An enclosure of x at `bits` bits is a pair of ints lo <= x * 2**bits <= hi.
# power_enclosure(v, s, bits) encloses v**s = exp(s * ln v) with one libmp
# exp at w = bits + EXP_GUARD_BITS + max(0, k) bits, for s = at * 2**-q
# below 2**k, k = at.bit_length() - q.
#
# Accuracy assumption: libmp's from_rational, mpf_log, mpf_mul and mpf_exp
# at w bits each return a value within 2**(4-w) relative of the exact
# result (mpf_exp itself works with 14 guard bits).  For s >= 0, with
# y = v**s <= 1 and z = s ln v, the computed exp is then within
# y * (s + 2|z| + 1) * 2**(4-w) <= (s + 1.8) * 2**(4-w) of y, which is
# below 2**-10 units of 2**-bits; flooring it and widening by WIDEN_UNITS
# on each side encloses y.  At w = prec bits it keeps a prec-bit mpf
# Moran sum within a relative 2**-(prec-8) of the exact sum.

EXP_GUARD_BITS = 16
WIDEN_UNITS = 2


@lru_cache(maxsize=256)
def _ln(numerator: int, denominator: int, bits: int):
    """ln(numerator/denominator) as a raw libmp number at bits precision."""
    return mpf_log(from_rational(numerator, denominator, bits, round_nearest), bits)


@lru_cache(maxsize=256)
def ln_enclosure(numerator: int, denominator: int, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= |ln(numerator/denominator)| * 2**bits <= hi,
    for 0 < numerator/denominator <= 1.

    One log at w = bits + EXP_GUARD_BITS + bit_length(bit_length(den))
    bits: |ln r| < bit_length(den), so the accuracy assumption above
    puts the computed log within 2**-12 units of 2**-bits of the exact
    one, and flooring and widening by WIDEN_UNITS encloses it.
    """
    w = bits + EXP_GUARD_BITS + denominator.bit_length().bit_length()
    mid = -to_fixed(_ln(numerator, denominator, w), bits)
    return max(mid - WIDEN_UNITS, 0), mid + WIDEN_UNITS


def dyadic_mpf(units: int, bits: int):
    """units * 2**-bits as an mpf, exactly."""
    return mp.make_mpf(from_man_exp(units, -bits))


def power_enclosure(value: Fraction, s, bits: int) -> tuple[int, int]:
    """(lo, hi) with lo <= value**s * 2**bits <= hi <= 2**bits, for
    0 < value <= 1 and s = at * 2**-q >= 0 given as the int pair
    (at, q): one exp."""
    at, q = s
    if at < 0:
        raise ConfigError("fixed-point powers need s >= 0")
    w = bits + EXP_GUARD_BITS + max(0, at.bit_length() - q)
    ln = _ln(value.numerator, value.denominator, w)
    mid = to_fixed(mpf_exp(mpf_mul(from_man_exp(at, -q), ln, w), w), bits)
    return max(mid - WIDEN_UNITS, 0), min(mid + WIDEN_UNITS, 1 << bits)


class _Powers(dict):
    """Enclosures (lo, hi) of y**k at `bits` bits, keyed by k >= 0, from
    y, the enclosure of y**1 (one power_enclosure of base**(-s)): every
    other power is filled in on first use by square and multiply over
    the powers already held.  The product of lower (upper) bounds of
    non-negative numbers, floored (ceiled), is a lower (upper) bound."""

    def __init__(self, y, bits):
        one = 1 << bits
        super().__init__({0: (one, one), 1: y})
        self.bits = bits

    def __missing__(self, k):
        x, z = (self[k - 1], self[1]) if k % 2 else (self[k // 2],) * 2
        bits = self.bits
        self[k] = power = x[0] * z[0] >> bits, (x[1] * z[1] + (1 << bits) - 1) >> bits
        return power


def term_table(family, s, bits, symbols):
    """An iterator over one row per symbol a of symbols, in their order,
    each made as it is read, enclosing its term at `bits` bits:
    (t_lo, t_hi, m_lo, m_hi, l_hi), ints with
    t_lo <= ratio(a)**s * 2**bits <= t_hi, l_lo <= |ln ratio(a)| *
    2**bits <= l_hi, m_lo = t_lo * l_lo and m_hi = t_hi * l_hi.  s =
    at * 2**-q is the int pair (at, q).  This is how every selection is
    evaluated, named or explicit, alone, as a cloud word or as the full
    selector's cut.

    A named family visits only the listed symbols (_named_terms); an
    explicit family takes one power_enclosure and one ln_enclosure per
    distinct ratio.
    """
    if family.is_infinite:
        terms = _named_terms(family.row, s, bits, symbols)
    else:
        ratios = list(map(family.ratio, symbols))
        distinct = {r: ln_enclosure(r.numerator, r.denominator, bits) + power_enclosure(r, s, bits)
                    for r in set(ratios)}
        terms = map(distinct.__getitem__, ratios)
    return ((t_lo, t_hi, t_lo * l_lo, t_hi * l_hi, l_hi) for l_lo, l_hi, t_lo, t_hi in terms)


def _named_terms(row, s, bits, symbols):
    """(l_lo, l_hi, t_lo, t_hi) per symbol a of a named family's row
    (base, e): |ln ratio(a)| = e(a) * ln(base) from one ln_enclosure, and
    ratio(a)**s = y**e(a), y = base**(-s), from one power_enclosure.
    Along a run of consecutive symbols each term is the one before times
    the step factor y**(e(a) - e(a-1)), and that factor the one before
    times y to the second difference of e, rounded down for lo and up
    for hi (2 multiplies per square-exponent symbol); a run starts from
    _Powers, with step factor y**0 = 1.
    """
    base, e = row
    powers = _Powers(power_enclosure(Fraction(1, base), s, bits), bits)
    ln_lo, ln_hi = ln_enclosure(1, base, bits)
    up = (1 << bits) - 1  # (x + up) >> bits rounds x / 2**bits up
    last = None
    for a in symbols:
        k = e(a)
        if a - 1 != last:
            (t_lo, t_hi), (d_lo, d_hi), gap = powers[k], powers[0], 0
        else:
            if k - last_k != gap:
                c_lo, c_hi = powers[k - last_k - gap]
                d_lo, d_hi = d_lo * c_lo >> bits, (d_hi * c_hi + up) >> bits
            t_lo, t_hi, gap = t_lo * d_lo >> bits, (t_hi * d_hi + up) >> bits, k - last_k
        last, last_k = a, k
        yield k * ln_lo, k * ln_hi, t_lo, t_hi


def term_tail(family, row, n, bits):
    """An upper bound, in units of 2**-bits, for the sum of ratio(a)**s
    over all a > n of a named family, n >= 1, from row, symbol 1's
    term_table row at `bits` bits: y**e(n+1) over
    1 - y**(e(n+2) - e(n+1)), y = base**(-s), both powers rounded up and
    the quotient rounded up (the geometric majorant of tail_majorant).
    The powers are filled from symbol 1's row, which encloses y itself
    (e(1) = 1 in every named family), so the tail takes no exp of its
    own.  ConfigError when e(n+2) == e(n+1), ToleranceNotReachable when
    the step factor rounds up to 1.
    """
    head, step = family._tail_exponents(n)
    powers = _Powers(row[:2], bits)
    one = 1 << bits
    d_hi = powers[step][1]
    if d_hi >= one:
        raise ToleranceNotReachable(f"s is too small for a tail majorant at {bits} bits")
    return -(-powers[head][1] * one // (one - d_hi))
