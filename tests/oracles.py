"""Independent high-precision reference values for the tests.

Everything here is computed directly from the defining sums with
mpmath at 200+ bits or with exact Fractions, sharing no code with the
package under test.  The frozen decimal constants below were produced
by the same routines at 240 bits and are kept literal so a regression
in the oracle itself would also be caught.
"""

import math
from fractions import Fraction

import mpmath

PREC = 200
BISECT_ITERS = 170

# 240-bit reference roots, 25 significant digits.
LOG2_OVER_LOG3 = 0.6309297535714574370995271
GOLDEN_LOG2 = 0.6942419136306173017387903
TYPE_THREE_FULL = 0.8760357589718848242280105
HALF_QUARTER_EIGHTH = 0.8791464216066381694970208
GEOMETRIC_1234 = 0.9467772467989155348993097
SQEXP_12 = 0.4649584172162090816584708
SQEXP_123 = 0.5008927780181887865170297
SQEXP_124 = 0.4693130480161949424993010
SQEXP_FULL = 0.5035955713151913011381480
SQEXP_1_16 = 0.1890767723733553869539865
SQEXP_SUM_AT_1 = 0.5644684136059385793347293
SQEXP_PRESSURE_SLOPE_AT_1 = -0.9428594099487287358132487


def bisect_root(sum_at, lo=0.0, hi=1.0, prec=PREC, iters=BISECT_ITERS):
    """Plain bisection on sum_at(s) - 1, strictly decreasing assumed."""
    with mpmath.workprec(prec):
        a, b = mpmath.mpf(lo), mpmath.mpf(hi)
        for _ in range(iters):
            mid = (a + b) / 2
            if sum_at(mid) >= 1:
                a = mid
            else:
                b = mid
        return (a + b) / 2


def sqexp_sum(indices):
    return lambda s: mpmath.fsum(mpmath.power(2, -(a * a) * s) for a in indices)


def sqexp_full_sum(s, cutoff_bits=260):
    total = mpmath.mpf(0)
    a = 1
    while True:
        term = mpmath.power(2, -(a * a) * s)
        total += term
        if term < mpmath.power(2, -cutoff_bits):
            return total
        a += 1


def geometric_full_sum(s):
    """sum over a >= 1 of 2**(-a*s), in closed form."""
    return 1 / (mpmath.power(2, s) - 1)


def type_three_full_sum(s):
    """2 * 3**(-s) plus the geometric series over a >= 3 of 3**((1-a)*s)."""
    x = mpmath.power(3, -s)
    return 2 * x + x * x / (1 - x)


def ratio_sum(ratios):
    fracs = [Fraction(r) for r in ratios]
    return lambda s: mpmath.fsum(
        mpmath.power(mpmath.mpf(f.numerator) / f.denominator, s) for f in fracs
    )


def sqexp_root(indices):
    return bisect_root(sqexp_sum(indices))


def ratio_root(ratios):
    return bisect_root(ratio_sum(ratios))


# --- exact construction oracle -------------------------------------------

def oracle_word_index(word: str) -> int:
    return (1 << len(word)) + (int(word, 2) if word else 0)


def oracle_g_exponent(word: str) -> int:
    return 2 * math.factorial(oracle_word_index(word))


def oracle_f_fraction(word: str) -> Fraction:
    """f as an exact Fraction; only for words with small prefix indexes."""
    total = Fraction(0)
    for i, bit in enumerate(word):
        if bit == "1":
            total += Fraction(1, 2 ** oracle_g_exponent(word[:i]))
    return total
