"""Dimension response to adjoining one symbol.

Adding a symbol b to a finite subsystem F raises the Moran root by an
increment that scales like ratio(b)**delta, delta being the unperturbed
dimension.  This module measures that response: certified increment
intervals, the log-log slope across a sweep of symbols, bounds on the
normalised increments, and the comparability window of the pressure
derivative that controls the first-order prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError, DegenerateScales, InsufficientPrecision
from .metrics import fit_line
from .solver import DEFAULT_TOL, _as_selector, pressure_derivative, solve_dimension

# numpy (about 13 MB resident) is imported inside the functions that
# use it, so solving and constructing never load it.


def _base_indices(subset) -> tuple[int, ...]:
    selector = _as_selector(subset)
    if selector.is_full:
        raise ConfigError("perturbation needs a finite base subset")
    return selector.indices


def increment(family, base_subset, b, tol=None):
    """Certified interval for dim(F + {b}) - dim(F).

    Both dimensions are enclosed tightly below the expected increment
    scale ratio(b)**delta; the difference interval must come out
    strictly positive, otherwise the tolerance is retried once and then
    InsufficientPrecision is raised.
    """
    base = _base_indices(base_subset)
    b = family.check_index(b)
    if b in base:
        raise ConfigError(f"symbol {b} is already in the base subset")
    extended = tuple(sorted(base + (b,)))

    if tol is None:
        pilot = solve_dimension(family, base, tol=1e-9)
        tol = min(DEFAULT_TOL, family.term_double(b, pilot.mid) / 64.0)

    for attempt_tol in (tol, tol / 64.0):
        d0 = solve_dimension(family, base, tol=attempt_tol)
        d1 = solve_dimension(family, extended, tol=attempt_tol)
        lo = d1.lo - d0.hi
        hi = d1.hi - d0.lo
        if lo > 0.0:
            return (lo, hi), d0, d1
    raise InsufficientPrecision(
        f"increment enclosure [{lo}, {hi}] not positive at tol {attempt_tol}"
    )


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
    """Result of sweeping one-symbol perturbations over b_range."""

    family: dict
    base_subset: tuple[int, ...]
    delta: float
    base_lo: float
    base_hi: float
    entries: tuple[SweepEntry, ...]
    slope: float
    intercept: float
    residual: float

    def ratio_bounds(self, delta=None) -> tuple[float, float]:
        """Min and max of increment / ratio(b)**delta over the sweep;
        delta defaults to the base dimension."""
        if delta is None:
            delta = self.delta
        normalised = [e.increment_mid / e.ratio_b**delta for e in self.entries]
        return min(normalised), max(normalised)

    @property
    def ratio_min(self) -> float:
        return self.ratio_bounds()[0]

    @property
    def ratio_max(self) -> float:
        return self.ratio_bounds()[1]

    def as_dict(self) -> dict:
        return {
            "family": self.family,
            "base_subset": list(self.base_subset),
            "delta": self.delta,
            "base_lo": self.base_lo,
            "base_hi": self.base_hi,
            "entries": [
                {
                    "b": e.b,
                    "ratio_b": e.ratio_b,
                    "increment_lo": e.increment_lo,
                    "increment_hi": e.increment_hi,
                    "increment_mid": e.increment_mid,
                }
                for e in self.entries
            ],
            "slope": self.slope,
            "intercept": self.intercept,
            "residual": self.residual,
            "ratio_min": self.ratio_min,
            "ratio_max": self.ratio_max,
        }


def exponent_fit(family, base_subset, b_range, tol=None) -> PerturbationReport:
    """Least-squares exponent of increments against perturbing ratios.

    Fits ln(increment) = slope * ln(ratio(b)) + intercept over the
    sweep.  The first-order prediction puts the slope at the base
    dimension delta as ratio(b) goes to 0; finite sweeps land close but
    systematically below (the correction term decays only like
    ratio(b)**delta itself).  The report's ratio_bounds gives min and
    max of increment / ratio(b)**delta across the sweep.
    """
    import numpy as np

    base = _base_indices(base_subset)
    bs = [family.check_index(b) for b in b_range]
    if not bs:
        raise ConfigError("empty perturbation sweep")
    base_dim = solve_dimension(family, base, tol=min(1e-11, tol or DEFAULT_TOL))
    delta = base_dim.mid

    entries = []
    for b in bs:
        (lo, hi), _, _ = increment(family, base, b, tol=tol)
        entries.append(
            SweepEntry(b=b, ratio_b=family.term_double(b, 1.0), increment_lo=lo, increment_hi=hi)
        )

    xs = np.array([math.log(e.ratio_b) for e in entries])
    if len(set(xs.tolist())) < 2:
        raise DegenerateScales(
            "all perturbing ratios equal; the sweep has no regression range"
        )
    ys = np.array([math.log(e.increment_mid) for e in entries])
    slope, intercept, resid = fit_line(xs, ys)

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
    )


def derivative_comparability(family, base_subset, b, s_range=None, n_grid=64):
    """Inf and sup of -P'(F + {b}, s) over a log-spaced s grid.

    The derivative of the pressure stays within a positive band on
    [delta, s_max]; its inf and sup bound the constants relating
    increments to ratio(b)**delta.  Defaults: delta = dim(F) midpoint,
    s_max = 3.
    """
    import numpy as np

    base = _base_indices(base_subset)
    b = family.check_index(b)
    extended = tuple(sorted(set(base + (b,))))
    if s_range is None:
        delta = solve_dimension(family, base, tol=1e-11).mid
        s_range = (delta, 3.0)
    s_lo, s_hi = s_range
    if not (0 < s_lo < s_hi):
        raise ConfigError(f"need 0 < s_lo < s_hi, got {s_range}")
    grid = np.geomspace(s_lo, s_hi, int(n_grid))
    values = [-pressure_derivative(family, extended, float(s)) for s in grid]
    return min(values), max(values)
