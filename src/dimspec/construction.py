"""Exact dyadic point sets built from factorial-exponent weights.

Finite binary words are enumerated length-first, then lexicographically:

    index 1 -> "" (empty), 2 -> "0", 3 -> "1", 4 -> "00", ..., 7 -> "11"

Each word sigma gets the weight g(sigma) = 4**(-n!) where n is its
enumeration index.  A word omega is then mapped to

    f(omega) = sum of g(omega[:i]) over positions i with omega[i] == '1'

(0-based i, so the bit at position i+1 charges the length-i prefix).
These are finite sums of distinct powers 2**(-2*n!), which supports two
exact representations:

* a ``Fraction``.  Fine while the enumeration indexes stay small; the
  denominator 2**(2*n!) already has 80640 bits at n = 8, so
  materialisation is gated by an index budget and a hard ceiling.
* a sparse form, just the ascending tuple of exponents: the binary
  expansion has a 1 exactly at those positions, so ordering two values
  is a lexicographic walk and no huge integer is ever built.

The factorial gaps make distinct equal-length words provably separated:
the difference of two f-values is at least two thirds of g at their
longest common prefix.  separation_check certifies that inequality with
one exact integer over a 256-bit window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

import mpmath

from .errors import CapExceeded, ConfigError, ExponentBudgetError, InsufficientPrecision, require_int
from .words import MAX_WORD_LENGTH, longest_common_prefix, validate_word

# Largest enumeration index whose weight is materialised by default.
# 2 * 8! = 80640-bit denominators are still cheap; the next index
# already needs ~725k bits and it only gets worse factorially.
DEFAULT_INDEX_BUDGET = 8

# No budget admits an index above this: 2 * 10! is about 7.3 Mbit,
# while index 12 would allocate about 120 MB and index 15 about 330 GB.
MAX_INDEX = 10

# Depth cap for exact clouds (2**depth points, prefix indexes < 2**depth).
DEFAULT_CLOUD_DEPTH_CAP = 8

# separation_check counts in units of 2**-_WINDOW_BITS * g(prefix).
_WINDOW_BITS = 256


def word_index(word: str) -> int:
    """Enumeration index of a word: 1 for the empty word, then blocks of
    equal length in lexicographic order starting at 2**len."""
    validate_word(word)
    return (1 << len(word)) + int(word or "0", 2)


def enumerate_word(n: int) -> str:
    """Inverse of word_index."""
    n = require_int(n, "enumeration index")
    if n < 1:
        raise ConfigError(f"enumeration index starts at 1, got {n}")
    if n == 1:
        return ""
    length = n.bit_length() - 1
    if length > MAX_WORD_LENGTH:
        raise CapExceeded(f"index {n} needs a word longer than cap {MAX_WORD_LENGTH}")
    return format(n - (1 << length), f"0{length}b")


def g_exponent(word: str) -> int:
    """Binary exponent of the weight: g(word) = 2**(-g_exponent(word))."""
    return 2 * math.factorial(word_index(word))


def _check_budget(word: str, budget: int) -> int:
    n = word_index(word)
    budget = min(require_int(budget, "budget"), MAX_INDEX)
    if n > budget:
        raise ExponentBudgetError(
            f"index {n} of word {word!r} exceeds the materialisation budget {budget} "
            f"(weight exponent 2*{n}! too large); use the sparse cloud API instead"
        )
    return n


def g_value(word: str, budget: int = DEFAULT_INDEX_BUDGET) -> Fraction:
    """Weight g(word) = 4**(-word_index(word)!) as an exact Fraction."""
    return Fraction(1, 1 << 2 * math.factorial(_check_budget(word, budget)))


def f_value(word: str, budget: int = DEFAULT_INDEX_BUDGET) -> Fraction:
    """f(word) as an exact Fraction; needs every charged prefix in budget."""
    validate_word(word)
    require_int(budget, "budget")
    return sum((g_value(word[:i], budget) for i, bit in enumerate(word) if bit == "1"), Fraction(0))


def f_tail_bound(word: str, budget: int = DEFAULT_INDEX_BUDGET) -> Fraction:
    """Exact bound g(word)/3 on the f-mass of proper extensions.

    Extending word by any suffix adds weights of prefixes strictly
    longer than word; the factorial gaps majorise that mass by the
    geometric series g(word) * (1/4 + 1/16 + ...) = g(word)/3.  The
    first extension step itself may add up to g(word) on top, which is
    the content of the consistency identity
    f(word + '1') - f(word) == 3 * f_tail_bound(word).
    """
    return g_value(word, budget) / 3


def f_exponents(word: str) -> tuple[int, ...]:
    """Sparse form of f(word): ascending binary exponents of its terms."""
    return _exponents(validate_word(word))


def _exponents(word: str) -> tuple[int, ...]:
    """f_exponents of a valid word.  The prefix word[:i] has index n_i,
    with n_0 = 1 and n_{i+1} = 2*n_i + word[i]; indexes grow with i, so
    the exponents come out ascending."""
    exps, n = [], 1
    for bit in word:
        if bit == "1":
            exps.append(2 * math.factorial(n))
        n = 2 * n + (bit == "1")
    return tuple(exps)


def sparse_compare(a: tuple[int, ...], b: tuple[int, ...]) -> int:
    """Order two sparse sums of distinct powers 2**(-e).

    Walk both ascending exponent tuples; at the first disagreement the
    value owning the smaller exponent is larger (its leading spare bit
    outweighs everything after it).  A proper prefix is smaller.
    """
    for x, y in zip(a, b):
        if x != y:
            return 1 if x < y else -1
    if len(a) == len(b):
        return 0
    return 1 if len(a) > len(b) else -1


def sparse_to_mpf(exponents, digits: int = 30):
    """Approximate a sparse value for display, at >= digits precision."""
    digits = require_int(digits, "digits")
    if digits < 1:
        raise ConfigError(f"digits must be at least 1, got {digits}")
    if not exponents:
        return mpmath.mpf(0)
    e0 = exponents[0]
    window = int(digits * 3.33) + 40
    with mpmath.workprec(window + 20):
        acc = mpmath.mpf(0)
        for e in exponents:
            if e - e0 > window:
                break
            acc += mpmath.power(2, -(e - e0))
        return acc * mpmath.power(2, -e0)


@dataclass(frozen=True)
class KPoint:
    """One exact cloud point: the word and the sparse form of f(word)."""

    word: str
    exponents: tuple[int, ...]

    def approx(self, digits: int = 30):
        return sparse_to_mpf(self.exponents, digits)


def k_set_cloud(depth: int) -> tuple[KPoint, ...]:
    """All 2**depth exact values f(omega), |omega| = depth, sorted.

    Points are exact sparse dyadics, sorted in sparse_compare's order:
    ascending by their negated exponents, no floating point involved.
    """
    depth = require_int(depth, "depth")
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    if depth > DEFAULT_CLOUD_DEPTH_CAP:
        raise CapExceeded(f"cloud depth {depth} exceeds cap {DEFAULT_CLOUD_DEPTH_CAP}")
    points = [KPoint(w, _exponents(w)) for w in map("".join, product("01", repeat=depth))]
    points.sort(key=lambda p: [-e for e in p.exponents])
    return tuple(points)


@dataclass(frozen=True)
class SeparationCheck:
    """Outcome of the two-thirds separation certificate for a word pair.

    The difference f(larger) - f(smaller) is reported sparsely:
    positive exponents from the larger value, negative ones from the
    smaller.  margin is (3*|difference| / g(prefix)) - 2, certified
    nonnegative when satisfied is True.
    """

    omega: str
    tau: str
    prefix: str
    threshold_exponent: int
    positive_exponents: tuple[int, ...]
    negative_exponents: tuple[int, ...]
    satisfied: bool
    margin: float

    def difference_approx(self, digits: int = 30):
        pos = sparse_to_mpf(self.positive_exponents, digits)
        neg = sparse_to_mpf(self.negative_exponents, digits)
        return pos - neg


def separation_check(omega: str, tau: str) -> SeparationCheck:
    """Certify |f(tau) - f(omega)| >= (2/3) * g(common prefix).

    Words must be distinct and of equal length (so neither is an
    extension of the other and the difference is genuinely two-sided).
    The certificate is exact: 3*delta - 2, delta the difference rescaled
    by g(prefix), is one integer in units of 2**-256, and each term
    outside that window weighs less than one unit of delta.
    """
    validate_word(omega)
    validate_word(tau)
    if len(omega) != len(tau):
        raise ConfigError("separation_check compares words of equal length")
    if omega == tau:
        raise ConfigError("separation_check needs two distinct words")
    sigma = longest_common_prefix(omega, tau)

    # The word carrying '1' right after the common prefix owns the
    # dominant weight g(sigma) and therefore the larger f-value.  Both
    # share the terms of sigma's prefixes; the rest are their difference.
    larger, smaller = (tau, omega) if tau[len(sigma)] == "1" else (omega, tau)
    shared = sigma.count("1")
    pos = _exponents(larger)[shared:]
    neg = _exponents(smaller)[shared:]
    e_sigma = pos[0]

    # One window always decides.  pos holds e_sigma; every other exponent
    # belongs to a prefix longer than sigma, of index n > m = index(sigma),
    # so it lies at least 2*(n! - m!) >= 2*m*m! >= 2 above e_sigma.  The
    # smaller word's prefixes have distinct indexes, so they weigh at most
    # 1/4 + 2**-10 + 2**-46 + ... < 0.2511 and 3*delta - 2 > 0.24, while
    # the at most 40 omitted terms weigh below 2**-250.
    terms = [(e - e_sigma, 3) for e in pos] + [(e - e_sigma, -3) for e in neg]
    units = sum(c << (_WINDOW_BITS - r) for r, c in terms if r <= _WINDOW_BITS) - (2 << _WINDOW_BITS)
    omitted = sum(r > _WINDOW_BITS for r, _ in terms)
    if -3 * omitted <= units < 3 * omitted:
        raise InsufficientPrecision(
            f"separation margin for {omega!r}/{tau!r} straddles the window budget"
        )
    return SeparationCheck(
        omega=omega, tau=tau, prefix=sigma, threshold_exponent=e_sigma,
        positive_exponents=pos, negative_exponents=neg,
        satisfied=units >= 0, margin=units / (1 << _WINDOW_BITS),
    )
