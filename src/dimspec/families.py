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
possible.  All families here have finiteness exponent theta = 0: the
sum of ratio(a)**s is finite for every s > 0 and infinite at s = 0.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import mpmath

from .errors import ConfigError, ToleranceNotReachable


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
    if isinstance(text, Fraction):
        value = text
    elif isinstance(text, int):
        value = Fraction(text)
    elif isinstance(text, float):
        # floats are exact binary rationals; accept but do not guess digits
        value = Fraction(text)
    else:
        try:
            value = Fraction(str(text).strip())
        except (ValueError, ZeroDivisionError) as exc:
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
    def theta(self) -> float:
        """Finiteness exponent: inf of s with a finite moran sum."""
        return 0.0

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
        """log2 of ratio(a) as a float; exact for the dyadic kinds."""
        a = self.check_index(a)
        if self._ratios is not None:
            frac = self._ratios[a - 1]
            return math.log2(frac.numerator) - math.log2(frac.denominator)
        return -self._e(a) * self._log2_base

    # -- pointwise terms ---------------------------------------------------

    def term_double(self, a: int, s: float) -> float:
        """ratio(a)**s in double precision."""
        return 2.0 ** (s * self.log2_ratio(a))

    def term_mp(self, a: int, s) -> mpmath.mpf:
        """ratio(a)**s at the current mpmath working precision."""
        a = self.check_index(a)
        if self._ratios is not None:
            frac = self._ratios[a - 1]
            base = mpmath.mpf(frac.numerator) / mpmath.mpf(frac.denominator)
            return mpmath.power(base, s)
        return mpmath.power(self._base, -self._e(a) * mpmath.mpf(s))

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

        One closed form for the named kinds; zero for explicit families
        once n_cut reaches their size.  Requires s > 0 for the infinite
        kinds (returns +inf at s <= 0, where the series diverges anyway).
        """
        if self._ratios is not None:
            if n_cut >= len(self._ratios):
                return 0.0
            return math.fsum(self.term_double(a, s) for a in range(n_cut + 1, len(self._ratios) + 1))
        if s <= 0.0:
            return math.inf
        head, step = self._tail_exponents(n_cut)
        base = float(self._base)
        den = 1.0 - base ** (-step * s)
        if den == 0.0:
            raise ToleranceNotReachable(f"s = {s} is too small for a tail majorant in doubles")
        return base ** (-head * s) / den

    def tail_majorant_mp(self, n_cut: int, s) -> mpmath.mpf:
        """Same bound evaluated in the mpmath tier."""
        if self._ratios is not None:
            if n_cut >= len(self._ratios):
                return mpmath.mpf(0)
            return mpmath.fsum(self.term_mp(a, s) for a in range(n_cut + 1, len(self._ratios) + 1))
        s = mpmath.mpf(s)
        if s <= 0:
            return mpmath.inf
        head, step = self._tail_exponents(n_cut)
        den = 1 - mpmath.power(self._base, -step * s)
        if den == 0:
            raise ToleranceNotReachable(f"s = {s} is too small for a tail majorant in mpmath")
        return mpmath.power(self._base, -head * s) / den

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
