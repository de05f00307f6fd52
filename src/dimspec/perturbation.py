"""Dimension response to adjoining one symbol.

Adding a symbol b to a finite subsystem F raises the Moran root by an
increment that scales like ratio(b)**delta, delta being the unperturbed
dimension.  This module measures that response: certified increment
intervals, the log-log slope across a sweep of symbols, bounds on the
normalised increments, and the band of the pressure derivative over
[delta, 3] that controls the first-order prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, InsufficientPrecision
from .metrics import fit_line
from .solver import DEFAULT_TOL, _indices, pressure_derivative, solve_dimension

# numpy (about 13 MB resident) is imported inside the functions that
# use it, so solving and constructing never load it.


def _extended(family, base, b):
    """(b, base + {b}) for a decoded base subset and a new symbol b;
    ConfigError when base is the full selector, is empty or already
    holds b.  Adjoining b to the empty set gives a singleton, and both
    have dimension 0, so there is no increment to measure."""
    if base is None:
        raise ConfigError("perturbation needs a finite base subset")
    if not base:
        raise ConfigError("perturbation needs a nonempty base subset: the empty set and"
                          " a singleton both have dimension 0")
    b = family.check_index(b)
    if b in base:
        raise ConfigError(f"symbol {b} is already in the base subset")
    return b, tuple(sorted(base + (b,)))


def increment(family, base_subset, b, tol=None):
    """Certified interval for dim(F + {b}) - dim(F).

    Both dimensions are enclosed tightly below the expected increment
    scale ratio(b)**delta, and their float endpoints are subtracted with
    outward rounding.  The difference interval must come out strictly
    positive, otherwise the tolerance is retried once and then
    InsufficientPrecision is raised; it says so when the interval is
    within a few ulps of the endpoints, which no tol can mend.  With tol
    None it is derived from ratio(b)**delta, and InsufficientPrecision
    is raised before any solve of the pair when that scale underflows
    to 0 in doubles.
    """
    base = _indices(family, base_subset)
    b, extended = _extended(family, base, b)
    if tol is None:
        tol = _scale_tol(family, b, _pilot(family, base))

    for attempt_tol in (tol, tol / 64.0):
        d0 = solve_dimension(family, base, tol=attempt_tol)
        d1 = solve_dimension(family, extended, tol=attempt_tol)
        lo = _difference(d1.lo, d0.hi, -math.inf)
        hi = _difference(d1.hi, d0.lo, math.inf)
        if lo > 0.0:
            return (lo, hi), d0, d1
    if hi - lo <= 4 * math.ulp(d1.hi):
        raise InsufficientPrecision(
            f"increment enclosure [{lo}, {hi}] not positive: the float endpoints of the two"
            f" dimensions, near {d1.hi}, cannot resolve an increment within a few ulps of"
            " them, at any tol")
    raise InsufficientPrecision(
        f"increment enclosure [{lo}, {hi}] not positive at tol {attempt_tol}"
    )


def _pilot(family, base):
    """The coarse solve of the base that increment's default tol reads."""
    return solve_dimension(family, base, tol=1e-9)


def _scale_tol(family, b, pilot):
    """increment's default tol for adjoining b to a base whose pilot
    solve is pilot: ratio(b)**delta / 64, capped at DEFAULT_TOL;
    InsufficientPrecision when it underflows to 0 in doubles."""
    tol = min(DEFAULT_TOL, family.term_double(b, pilot.mid) / 64.0)
    if tol == 0.0:
        raise InsufficientPrecision(
            f"the increment scale ratio({b})**{pilot.mid!r} / 64 underflows to 0 in doubles")
    return tol


def _difference(a, b, toward):
    """a - b for finite floats, rounded toward -inf or inf (toward) when
    the subtraction is inexact, so that it encloses the exact difference.
    The rounding error (a - b) - d is itself a float, found exactly by
    Knuth's TwoSum (TAOCP vol. 2, 4.2.2)."""
    d = a - b
    z = d - a
    error = (a - (d - z)) - (b + z)
    if error and (error > 0) == (toward > 0):
        d = math.nextafter(d, toward)
    return d


@dataclass(frozen=True)
class SweepEntry:
    b: int
    ratio_b: float
    increment_lo: float
    increment_hi: float

    @property
    def increment_mid(self) -> float:
        return 0.5 * (self.increment_lo + self.increment_hi)


@dataclass(frozen=True)
class PerturbationReport:
    """Result of sweeping one-symbol perturbations over b_range.

    ratio_min and ratio_max are the min and max of the normalised
    increments increment_mid / ratio_b**delta over the sweep."""

    family: dict
    base_subset: tuple[int, ...]
    delta: float
    base_lo: float
    base_hi: float
    entries: tuple[SweepEntry, ...]
    slope: float
    intercept: float
    residual: float
    ratio_min: float
    ratio_max: float


def exponent_fit(family, base_subset, b_range, tol=None) -> PerturbationReport:
    """Least-squares exponent of increments against perturbing ratios.

    Fits ln(increment) = slope * ln(ratio(b)) + intercept over the
    sweep.  The first-order prediction puts the slope at the base
    dimension delta as ratio(b) goes to 0; finite sweeps land close but
    systematically below (the correction term decays only like
    ratio(b)**delta itself).  The report's ratio_min and ratio_max bound
    increment / ratio(b)**delta across the sweep.  The sweep is checked
    before any solve, on the ratios the fit logs: one that underflows to
    0 in doubles is InsufficientPrecision, and fewer than two distinct
    ones is a ConfigError.
    """
    import numpy as np

    base = _indices(family, base_subset)
    bs = [_extended(family, base, b)[0] for b in b_range]
    ratios = [family.term_double(b, 1.0) for b in bs]
    if 0.0 in ratios:
        raise InsufficientPrecision(
            f"ratio({bs[ratios.index(0.0)]}) underflows to 0 in doubles, so its log cannot be fitted")
    xs = [math.log(r) for r in ratios]
    if len(set(xs)) < 2:
        raise ConfigError("the sweep needs two distinct perturbing ratios")
    base_dim = solve_dimension(family, base, tol=min(1e-11, tol or DEFAULT_TOL))
    delta = base_dim.mid

    # With tol None every symbol's tol comes from one pilot solve.
    pilot = _pilot(family, base) if tol is None else None
    entries = []
    for b, ratio_b in zip(bs, ratios):
        b_tol = tol if pilot is None else _scale_tol(family, b, pilot)
        (lo, hi), _, _ = increment(family, base, b, tol=b_tol)
        entries.append(SweepEntry(b=b, ratio_b=ratio_b, increment_lo=lo, increment_hi=hi))

    ys = np.array([math.log(e.increment_mid) for e in entries])
    slope, intercept, resid = fit_line(np.array(xs), ys)
    normalised = [e.increment_mid / e.ratio_b**delta for e in entries]

    return PerturbationReport(
        family=family.describe(),
        base_subset=base,
        delta=delta,
        base_lo=base_dim.lo,
        base_hi=base_dim.hi,
        entries=tuple(entries),
        slope=slope,
        intercept=intercept,
        residual=resid,
        ratio_min=min(normalised),
        ratio_max=max(normalised),
    )


def derivative_comparability(family, base_subset, b):
    """Inf and sup of -P'(F + {b}, s) over s in [delta, 3], delta the
    midpoint of a 1e-11 enclosure of dim F, sampled at 64 log-spaced
    points.

    The derivative of the pressure stays within a positive band there;
    its inf and sup bound the constants relating increments to
    ratio(b)**delta.  A base of one symbol has dimension 0, where the
    band has no log-spaced grid: ConfigError.
    """
    import numpy as np

    base = _indices(family, base_subset)
    b, extended = _extended(family, base, b)
    if len(base) < 2:
        raise ConfigError(f"the base subset {base} has dimension 0; the band [dim F, 3]"
                          " needs a base of at least two symbols")
    delta = solve_dimension(family, base, tol=1e-11).mid
    grid = np.geomspace(delta, 3.0, 64)
    values = [-pressure_derivative(family, extended, float(s)) for s in grid]
    return min(values), max(values)
