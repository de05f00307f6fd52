"""Box-counting and local-dimension diagnostics for 1-d point clouds.

Two counting conventions coexist on purpose.  ``box_count`` is the
textbook grid count: occupied cells [k*eps, (k+1)*eps), evaluated in
exact rational arithmetic so a point never lands on the wrong side of a
cell wall.  The regression profiles use ``covering_count`` instead, the
greedy minimal number of half-open length-eps intervals: it is
translation invariant, so a sub-resolution pair of points (gap far
below eps) can never be split by an unlucky grid offset.  Grid counts
make log-log slopes noisy exactly because of such splits; covering
counts remove that noise without touching the scaling exponent.

The scale schedule is dyadic from the diameter down to twice the
smallest gap (global profiles) or twice the median gap (local window
profiles, whose smallest gaps are routinely degenerate).  Saturated
counts at the fine end are trimmed to a single representative and the
ends are dropped from the fit when enough scales remain.

Local profiles estimate a scalar at each of N_CENTERS centers on a
window chosen by the first lacunarity boundary of the sorted distance
sequence (a jump by more than JUMP_RATIO), falling back to half the
sample.  A nested series over all boundary and dyadic nearest-neighbour
windows is attached for trend checks.  Classification into the three
qualitative types follows from the scalars alone: all near 1, all near
0, or a reciprocal-shaped middle band fitted by min(1, c/x).

Costs, for n distinct points.  A covering count is one binary search
per interval it places.  Each center's distances are sorted once, by
_distances, which merges the two sorted runs (left and right
neighbours) in O(n) with a stable sort; the window radii and the gap
statistic read that one array.  A window is an index range of the
sorted cloud, found by two binary searches on the differences to its
center, never a mask over the whole cloud.  classify_type measures
only the scalar windows, not the nested series.  The gap statistic is
O(n^2), and a center whose cheap upper bound cannot beat the running
best is skipped (the bound is proven conservative in
uniform_perfectness_gaps).  The reciprocal fit is one vectorised pass
over its 8000-point grid, and every log-log slope is one fit_line.
Every public metric raises ConfigError on a non-finite point.
"""

from __future__ import annotations

import math
import statistics
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction

from .errors import CapExceeded, ConfigError, DegenerateScales, NumericError, require_int

# numpy (about 13 MB resident) is imported inside the functions that
# use it, so solving and constructing never load it.

MAX_SCALES = 60
JUMP_RATIO = 4.0
N_CENTERS = 9
MIN_FIT_SCALES = 3


def _exact(x) -> Fraction:
    """x as an exact Fraction; ConfigError for NaN and infinities."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise ConfigError(f"metrics need finite values, got {x!r}") from None


def _distinct_sorted(points) -> list[float]:
    """Sorted distinct float values of points; ConfigError on a
    non-finite one (NaN would break the sort, inf every distance)."""
    vals = set(float(x) for x in points)
    if not all(map(math.isfinite, vals)):
        raise ConfigError("metrics need finite points, got a NaN or infinity")
    return sorted(vals)


def box_count(points, eps) -> int:
    """Number of occupied grid cells [k*eps, (k+1)*eps), exactly.

    Points and eps are converted to Fractions (floats convert exactly),
    so ties on cell walls resolve by arithmetic rather than rounding.
    """
    f_eps = _exact(eps)
    if f_eps <= 0:
        raise ConfigError(f"box_count needs eps > 0, got {eps}")
    cells = set()
    for x in points:
        q = _exact(x) / f_eps
        k = q.numerator // q.denominator  # true floor
        cells.add(k)
    return len(cells)


def covering_count(sorted_pts, eps) -> int:
    """Greedy minimal number of half-open length-eps intervals covering
    the sorted points.  Translation invariant; one binary search per
    interval placed.  ConfigError for eps <= 0 or a non-finite point."""
    if not eps > 0:
        raise ConfigError(f"covering_count needs eps > 0, got {eps}")
    if not all(map(math.isfinite, sorted_pts)):
        raise ConfigError("metrics need finite points, got a NaN or infinity")
    return _covering_count(sorted_pts, eps)


def _covering_count(pts, eps) -> int:
    """covering_count on checked input.  Each interval [p, p + eps)
    ends at the first point >= p + eps, found by bisection; the search
    starts past p, so the count always moves forward, also when p + eps
    rounds back to p (then the interval holds the copies of p only)."""
    n = 0
    i = 0
    m = len(pts)
    while i < m:
        p = pts[i]
        lim = p + eps
        n += 1
        i = bisect_left(pts, lim, i + 1) if lim > p else bisect_right(pts, p, i + 1)
    return n


@dataclass(frozen=True)
class ScaleProfile:
    """Log-log covering profile with its fitted slope.

    residual is the RMS of the fit over the scales actually used (ends
    are excluded from the fit when five or more scales survive).
    floor_rule records which gap statistic set the finest scale: 'min'
    for global profiles, 'median' for the per-window variants used by
    local profiles.
    """

    scales: tuple[float, ...]
    counts: tuple[int, ...]
    slope: float
    residual: float
    n_points: int
    floor: float
    floor_rule: str


def fit_line(xs, ys):
    """Least-squares line ys = slope * xs + intercept over two equal
    length arrays; returns (slope, intercept, rms_residual)."""
    import numpy as np

    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = float(np.sqrt(np.mean((ys - design @ coef) ** 2)))
    return float(coef[0]), float(coef[1]), resid


def _profile(pts, floor_rule="min", scale_range=None):
    """Shared profile core on sorted distinct finite floats; returns
    None when fewer than MIN_FIT_SCALES scales survive (callers decide
    whether that is an error).  The fit skips both end scales when five
    or more survive."""
    import numpy as np

    n = len(pts)
    if n < 2:
        return None
    diam = pts[-1] - pts[0]
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    if floor_rule == "min":
        floor = 2.0 * min(gaps)
    elif floor_rule == "median":
        floor = 2.0 * statistics.median(gaps)
    else:
        raise ConfigError(f"unknown floor rule {floor_rule!r}")

    if scale_range is None:
        k_lo, k_hi = 2, None
    else:
        k_lo, k_hi = scale_range
        k_lo = require_int(k_lo, "a scale_range bound")
        k_hi = require_int(k_hi, "a scale_range bound") if k_hi is not None else None
        if k_lo < 1 or (k_hi is not None and k_hi < k_lo):
            raise ConfigError(f"bad scale range {scale_range!r}")

    scales = []
    k = k_lo
    while len(scales) < MAX_SCALES:
        eps = diam * 2.0 ** (-k)
        # The schedule also stops where the fit's log(1/eps) would
        # overflow: eps below about 5.6e-309, in subnormal clouds only.
        if eps < floor or 1.0 / eps == math.inf or (k_hi is not None and k > k_hi):
            break
        scales.append(eps)
        k += 1
    counts = [_covering_count(pts, e) for e in scales]
    while len(counts) >= 2 and counts[-1] == n and counts[-2] == n:
        counts.pop()
        scales.pop()
    if len(scales) < MIN_FIT_SCALES:
        return None
    fit = slice(1, -1) if len(scales) >= 5 else slice(None)
    slope, _, resid = fit_line(np.log([1.0 / e for e in scales[fit]]), np.log(counts[fit]))
    return ScaleProfile(
        scales=tuple(scales),
        counts=tuple(counts),
        slope=slope,
        residual=resid,
        n_points=n,
        floor=floor,
        floor_rule=floor_rule,
    )


def box_dimension_estimate(points, scale_range=None) -> ScaleProfile:
    """Covering-count dimension estimate of a finite point set.

    Scales run dyadically from diameter/4 down to twice the minimum
    gap; raises DegenerateScales when fewer than three scales fit
    between those bounds (too few points, or a near-arithmetic set).
    """
    pts = _distinct_sorted(points)
    prof = _profile(pts, floor_rule="min", scale_range=scale_range)
    if prof is None:
        raise DegenerateScales(
            f"{len(set(points))} points leave fewer than {MIN_FIT_SCALES} usable scales"
        )
    return prof


def _distances(pts, x):
    """Sorted distances |pts - x| from a point x of the sorted distinct
    array pts; x's own 0 comes first, so d[1:] are the positive ones.

    The points left of x give a descending run and those right of it
    an ascending one; a stable sort (timsort) merges the two runs in
    O(n).  This is the only sort of a center's distances.
    """
    import numpy as np

    return np.sort(np.abs(pts - x), kind="stable")


def _boundaries(d):
    """Indices i >= 2 with d[i + 1] > JUMP_RATIO * d[i]: the lacunarity
    boundaries of the positive sorted distances d."""
    import numpy as np

    return np.flatnonzero(d[3:] > JUMP_RATIO * d[2:-1]) + 2


def _scalar_radius(d, hits, n):
    """(radius, kind) of the scalar window of a center among n points,
    from its positive sorted distances d and their boundaries hits: the
    first boundary stops the window inside it (geometric mean of the
    straddling distances), else the window holds half the sample."""
    if len(d) < 2:
        return None, "empty"
    if len(hits):
        i = hits[0]
        return math.sqrt(d[i] * d[i + 1]), "boundary"
    return float(d[min(len(d) - 1, n // 2)]), "half-sample"


def _series_radii(d, hits):
    """Radii of the nested series: every boundary radius plus the
    dyadic nearest-neighbour distances d[4], d[8], ..."""
    radii = [math.sqrt(d[i] * d[i + 1]) for i in hits]
    m = 4
    while m < len(d):
        radii.append(float(d[m]))
        m *= 2
    return sorted(set(radii))


def _windows(pts, x):
    """The window function of center x: r -> the points of the sorted
    array pts within distance r of x, as a list.

    The differences pts - x are computed once, and each window is the
    slice between two binary searches instead of a mask over the whole
    cloud.  The slice is exactly the mask |pts - x| <= r: rounding is
    monotone, so fl(p - x) is nondecreasing in p, and symmetric, so
    |fl(p - x)| = fl(|p - x|).  The mask therefore holds on the one run
    -r <= fl(p - x) <= r, also where a difference overflows to +-inf.
    """
    import numpy as np

    rel = pts - x

    def window(r):
        return pts[np.searchsorted(rel, -r, "left"):np.searchsorted(rel, r, "right")].tolist()

    return window


@dataclass(frozen=True)
class CenterProfile:
    """Local estimate at one center.

    scalar is the window slope at the scalar window (None when the
    window degenerates: that is the empty-window record, not an
    exception).  series holds (radius, points_in_window, slope) over
    the nested candidate windows that produced a usable profile.
    """

    center: float
    radius: float | None
    window_kind: str
    window_size: int
    scalar: float | None
    series: tuple[tuple[float, int, float], ...]


@dataclass(frozen=True)
class LocalProfile:
    n_points: int
    centers: tuple[CenterProfile, ...]

    def scalars(self):
        return [c.scalar for c in self.centers]


def _centers(points):
    """The sorted distinct points as an array, and the N_CENTERS centers
    at evenly spaced order statistics of them."""
    import numpy as np

    pts = np.asarray(_distinct_sorted(points))
    n = len(pts)
    if n < 2:
        raise DegenerateScales(f"local profile needs at least 2 points, got {n}")
    return pts, [
        float(pts[min(n - 1, int(round((i + 1) / (N_CENTERS + 1) * (n - 1))))])
        for i in range(N_CENTERS)
    ]


def _center_scalar(pts, x):
    """(record, window, d, hits) at center x of the sorted array pts:
    the CenterProfile without its series, and the window function,
    positive sorted distances and boundaries the series reuses."""
    d = _distances(pts, x)[1:]
    hits = _boundaries(d)
    window = _windows(pts, x)
    radius, kind = _scalar_radius(d, hits, len(pts))
    scalar = None
    size = 0
    if radius is not None:
        sel = window(radius)
        size = len(sel)
        prof = _profile(sel, floor_rule="median")
        if prof is not None:
            scalar = prof.slope
    return CenterProfile(x, radius, kind, size, scalar, ()), window, d, hits


def local_dimension_profile(points) -> LocalProfile:
    """Per-center window dimension estimates at decile-style centers.

    N_CENTERS centers sit at evenly spaced order statistics of the
    sorted cloud.  Each gets a scalar from its own window plus the
    nested series; a degenerate window yields an empty record rather
    than an error.
    """
    pts, centers = _centers(points)
    out = []
    for x in centers:
        record, window, d, hits = _center_scalar(pts, x)
        series = []
        for r in _series_radii(d, hits):
            sel = window(r)
            prof = _profile(sel, floor_rule="median")
            if prof is not None:
                series.append((r, len(sel), prof.slope))
        out.append(replace(record, series=tuple(series)))
    return LocalProfile(n_points=len(pts), centers=tuple(out))


def fit_reciprocal_band(centers, scalars):
    """Best constant c for the profile min(1, c/x) by grid search.

    Returns (c, rms_residual) over an 8000-point grid spanning
    (1e-3, 2*max(centers)), evaluated in one vectorised pass over the
    grid x centers residual matrix; ties keep the smallest c.
    """
    import numpy as np

    xs = np.asarray(centers, dtype=float)
    es = np.asarray(scalars, dtype=float)
    if len(xs) < 2:
        raise NumericError("reciprocal fit needs at least 2 centers")
    if not (np.isfinite(xs).all() and np.isfinite(es).all()):
        raise ConfigError("reciprocal fit needs finite centers and scalars")
    grid = np.linspace(1e-3, 2 * xs.max(), 8000)
    # Row j is (es - min(1, grid[j]/xs))**2, computed in place.
    sq = grid[:, None] / xs
    np.minimum(sq, 1.0, out=sq)
    np.subtract(es, sq, out=sq)
    np.square(sq, out=sq)
    rms = np.sqrt(np.mean(sq, axis=1))
    j = int(np.argmin(rms))
    return float(grid[j]), float(rms[j])


@dataclass(frozen=True)
class Classification:
    label: str
    scalars: tuple
    fit_constant: float | None
    fit_residual: float | None
    band: tuple[float, float]

    def as_dict(self) -> dict:
        return {
            "label": self.label,
            "scalars": list(self.scalars),
            "fit_constant": self.fit_constant,
            "fit_residual": self.fit_residual,
            "band": list(self.band),
        }


def classify_type(points) -> Classification:
    """Qualitative local-dimension type of a point cloud.

    Type I: every local scalar above 0.9 (locally full-dimensional).
    Type II: every scalar below 0.1 (locally degenerate everywhere).
    Type III: scalars follow min(1, c/x) with RMS residual below 0.1
    and c strictly inside 5..95 percent of the cloud supremum.
    Anything else is Unclassified.  Only the scalar windows of the
    N_CENTERS centers are measured, not the nested series.
    """
    pts, centers = _centers(points)
    scalars = tuple(_center_scalar(pts, x)[0].scalar for x in centers)
    sup = max(float(x) for x in points)
    band = (0.05 * sup, 0.95 * sup)
    if any(s is None for s in scalars):
        return Classification("Unclassified", scalars, None, None, band)
    if all(s > 0.9 for s in scalars):
        return Classification("Type I", scalars, None, None, band)
    if all(s < 0.1 for s in scalars):
        return Classification("Type II", scalars, None, None, band)
    c_fit, resid = fit_reciprocal_band(centers, scalars)
    if resid < 0.1 and band[0] < c_fit < band[1]:
        return Classification("Type III", scalars, c_fit, resid, band)
    return Classification("Unclassified", scalars, c_fit, resid, band)


@dataclass(frozen=True)
class GapReport:
    """Worst annulus-emptiness ratio over all centers and radii.

    For each point x and each sorted unique distance d_k, the midpoint
    radius r = (d_k + d_{k+1})/2 sees an empty annulus (d_k, r]; the
    ratio r/d_k measures how far from uniformly perfect the set looks
    at that spot.  max_ratio is the maximum over all (x, k).
    """

    max_ratio: float
    center: float
    inner_distance: float
    radius: float

    def as_dict(self) -> dict:
        return {
            "max_ratio": self.max_ratio,
            "center": self.center,
            "inner_distance": self.inner_distance,
            "radius": self.radius,
        }


def uniform_perfectness_gaps(points) -> GapReport:
    """The GapReport of the distinct points; O(n^2) time, O(n) memory.

    Each center costs an O(n) stable-sort merge of its distances d, in
    _distances; repeated distances are dropped.  A center is
    skipped when its bound (1 + max d[k+1]/d[k])/2 * (1 + 1e-12) is at
    most the best ratio found so far.  The bound is conservative: with
    a = d[k], b = d[k+1] and u = 2**-53, the computed ratio
    ((a+b)/2)/a carries two roundings (the halving is exact) and is at
    most ((a+b)/2a)(1+u)^2, while the computed bound carries four and
    the rounded factor 1 + 1e-12 - 2u, so it is at least
    ((a+b)/2a)(1-u)^4(1 + 1e-12 - 2u).  The bound is thus strictly
    larger, and a skipped center could never have replaced the best,
    which only a strictly larger ratio does.  This needs a + b to stay
    finite and (a+b)/2 normal; when the diameter or the smallest gap
    leaves that range, no center is skipped.
    """
    import numpy as np

    pts = np.asarray(_distinct_sorted(points))
    if len(pts) < 3:
        raise DegenerateScales(f"gap statistic needs >= 3 points, got {len(pts)}")
    # Every distance lies between the smallest gap and the diameter.
    may_skip = (float(np.min(np.diff(pts))) >= sys.float_info.min
                and pts[-1] - pts[0] <= 2.0**1022)
    best = None
    for x in pts:
        # Sorted distances with the center's own zero in front; repeated
        # distances only add ratios of 1, so the bound may see them.
        d = _distances(pts, x)
        if (best is not None and may_skip
                and (1 + float(np.max(d[2:] / d[1:-1]))) / 2 * (1 + 1e-12) <= best[0]):
            continue
        d = d[1:][d[1:] != d[:-1]]
        if len(d) < 2:
            continue
        rmid = (d[:-1] + d[1:]) / 2
        ratios = rmid / d[:-1]
        j = int(np.argmax(ratios))
        c = float(ratios[j])
        if best is None or c > best[0]:
            best = (c, float(x), float(d[j]), float(rmid[j]))
    if best is None:
        raise DegenerateScales("no usable center for the gap statistic")
    return GapReport(max_ratio=best[0], center=best[1], inner_distance=best[2], radius=best[3])


def cantor_truncation(depth: int):
    """Left endpoints of the depth-n middle-thirds construction (2**n
    points in [0, 1)); CapExceeded above the spectrum depth cap."""
    from .spectrum import DEPTH_CAP

    depth = require_int(depth, "depth")
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    if depth > DEPTH_CAP:
        raise CapExceeded(f"cloud depth {depth} exceeds cap {DEPTH_CAP}")
    pts = [0.0]
    for _ in range(depth):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    return sorted(pts)
