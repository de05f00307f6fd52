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

Local profiles estimate a per-center scalar on a window chosen by the
first lacunarity boundary of the sorted distance sequence (a jump by
more than 4x), falling back to half the sample.  A nested series over
all boundary and dyadic nearest-neighbour windows is attached for trend
checks.  Classification into the three qualitative types follows from
the scalars: all near 1, all near 0, or a reciprocal-shaped middle band
fitted by min(1, c/x).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from fractions import Fraction

from .errors import ConfigError, DegenerateScales, NumericError

# numpy (about 13 MB resident) is imported inside the functions that
# use it, so solving and constructing never load it.

MAX_SCALES = 60
JUMP_RATIO = 4.0
MIN_FIT_SCALES = 3


def box_count(points, eps) -> int:
    """Number of occupied grid cells [k*eps, (k+1)*eps), exactly.

    Points and eps are converted to Fractions (floats convert exactly),
    so ties on cell walls resolve by arithmetic rather than rounding.
    """
    f_eps = Fraction(eps)
    if f_eps <= 0:
        raise ConfigError(f"box_count needs eps > 0, got {eps}")
    cells = set()
    for x in points:
        q = Fraction(x) / f_eps
        k = q.numerator // q.denominator  # true floor
        cells.add(k)
    return len(cells)


def covering_count(sorted_pts, eps) -> int:
    """Greedy minimal number of half-open length-eps intervals covering
    the sorted points.  Translation invariant."""
    n = 0
    i = 0
    m = len(sorted_pts)
    while i < m:
        lim = sorted_pts[i] + eps
        n += 1
        while i < m and sorted_pts[i] < lim:
            i += 1
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

    def as_dict(self) -> dict:
        return {
            "scales": list(self.scales),
            "counts": list(self.counts),
            "slope": self.slope,
            "residual": self.residual,
            "n_points": self.n_points,
            "floor": self.floor,
            "floor_rule": self.floor_rule,
        }


def _fit_loglog(scales, counts):
    import numpy as np

    sl = slice(1, -1) if len(scales) >= 5 else slice(None)
    xs = np.log([1.0 / e for e in scales[sl]])
    ys = np.log(counts[sl])
    design = np.vstack([xs, np.ones_like(xs)]).T
    coef, *_ = np.linalg.lstsq(design, ys, rcond=None)
    resid = float(np.sqrt(np.mean((ys - design @ coef) ** 2)))
    return float(coef[0]), resid


def _profile(points, floor_rule="min", scale_range=None):
    """Shared profile core; returns None when fewer than MIN_FIT_SCALES
    scales survive (callers decide whether that is an error)."""
    pts = sorted(set(float(x) for x in points))
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
        k_lo = int(k_lo)
        k_hi = int(k_hi) if k_hi is not None else None
        if k_lo < 1 or (k_hi is not None and k_hi < k_lo):
            raise ConfigError(f"bad scale range {scale_range!r}")

    scales = []
    k = k_lo
    while diam * 2.0 ** (-k) >= floor and len(scales) < MAX_SCALES:
        if k_hi is not None and k > k_hi:
            break
        scales.append(diam * 2.0 ** (-k))
        k += 1
    counts = [covering_count(pts, e) for e in scales]
    while len(counts) >= 2 and counts[-1] == n and counts[-2] == n:
        counts.pop()
        scales.pop()
    if len(scales) < MIN_FIT_SCALES:
        return None
    slope, resid = _fit_loglog(scales, counts)
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
    prof = _profile(points, floor_rule="min", scale_range=scale_range)
    if prof is None:
        raise DegenerateScales(
            f"{len(set(points))} points leave fewer than {MIN_FIT_SCALES} usable scales"
        )
    return prof


def _scalar_window_radius(pts, x, jump_ratio=JUMP_RATIO):
    """Radius of the scalar window at center x.

    Walks the sorted positive distances; the first jump by more than
    jump_ratio at index >= 2 is a lacunarity boundary and the window
    stops inside it (geometric mean of the straddling distances).
    Without a boundary the window holds half the sample.
    """
    import numpy as np

    d = np.sort(np.abs(pts - x))
    d = d[d > 0]
    n = len(d)
    if n < 2:
        return None, "empty"
    for i in range(2, n - 1):
        if d[i + 1] > jump_ratio * d[i]:
            return math.sqrt(d[i] * d[i + 1]), "boundary"
    return float(d[min(n - 1, len(pts) // 2)]), "half-sample"


def _candidate_radii(pts, x, jump_ratio=JUMP_RATIO):
    """All lacunarity-boundary radii plus dyadic nearest-neighbour radii."""
    import numpy as np

    d = np.sort(np.abs(pts - x))
    d = d[d > 0]
    radii = []
    for i in range(2, len(d) - 1):
        if d[i + 1] > jump_ratio * d[i]:
            radii.append(math.sqrt(d[i] * d[i + 1]))
    m = 4
    while m < len(d):
        radii.append(float(d[m]))
        m *= 2
    return sorted(set(radii))


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

    @property
    def empty(self) -> bool:
        return self.scalar is None


@dataclass(frozen=True)
class LocalProfile:
    n_points: int
    centers: tuple[CenterProfile, ...]

    def scalars(self):
        return [c.scalar for c in self.centers]


def local_dimension_profile(points, n_centers=9) -> LocalProfile:
    """Per-center window dimension estimates at decile-style centers.

    Centers sit at evenly spaced order statistics of the sorted cloud.
    Each gets a scalar from its own window plus the nested series; a
    degenerate window yields an empty record rather than an error.
    """
    import numpy as np

    if n_centers < 1:
        raise ConfigError(f"n_centers must be positive, got {n_centers}")
    pts = np.asarray(sorted(set(float(x) for x in points)))
    n = len(pts)
    if n < 2:
        raise DegenerateScales(f"local profile needs at least 2 points, got {n}")
    idxs = [
        min(n - 1, int(round((i + 1) / (n_centers + 1) * (n - 1))))
        for i in range(n_centers)
    ]
    out = []
    for ci in idxs:
        x = float(pts[ci])
        radius, kind = _scalar_window_radius(pts, x)
        scalar = None
        size = 0
        if radius is not None:
            sel = list(pts[np.abs(pts - x) <= radius])
            size = len(sel)
            prof = _profile(sel, floor_rule="median")
            if prof is not None:
                scalar = prof.slope
        series = []
        for r in _candidate_radii(pts, x):
            sel = list(pts[np.abs(pts - x) <= r])
            prof = _profile(sel, floor_rule="median")
            if prof is not None:
                series.append((float(r), len(sel), prof.slope))
        out.append(
            CenterProfile(
                center=x,
                radius=radius,
                window_kind=kind,
                window_size=size,
                scalar=scalar,
                series=tuple(series),
            )
        )
    return LocalProfile(n_points=n, centers=tuple(out))


def fit_reciprocal_band(centers, scalars):
    """Best constant c for the profile min(1, c/x) by grid search.

    Returns (c, rms_residual) over an 8000-point grid spanning
    (1e-3, 2*max(centers)).
    """
    import numpy as np

    xs = np.asarray(centers, dtype=float)
    es = np.asarray(scalars, dtype=float)
    if len(xs) < 2:
        raise NumericError("reciprocal fit needs at least 2 centers")
    grid = np.linspace(1e-3, 2 * xs.max(), 8000)
    best_c, best_r = None, None
    for c in grid:
        pred = np.minimum(1.0, c / xs)
        r = float(np.sqrt(np.mean((es - pred) ** 2)))
        if best_r is None or r < best_r:
            best_c, best_r = float(c), r
    return best_c, best_r


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


def classify_type(points, n_centers=9) -> Classification:
    """Qualitative local-dimension type of a point cloud.

    Type I: every local scalar above 0.9 (locally full-dimensional).
    Type II: every scalar below 0.1 (locally degenerate everywhere).
    Type III: scalars follow min(1, c/x) with RMS residual below 0.1
    and c strictly inside 5..95 percent of the cloud supremum.
    Anything else is Unclassified.  Needs at least 8 centers to be
    meaningful.
    """
    if n_centers < 8:
        raise ConfigError(f"classification needs >= 8 centers, got {n_centers}")
    prof = local_dimension_profile(points, n_centers=n_centers)
    scalars = prof.scalars()
    sup = max(float(x) for x in points)
    band = (0.05 * sup, 0.95 * sup)
    if any(s is None for s in scalars):
        return Classification("Unclassified", tuple(scalars), None, None, band)
    if all(s > 0.9 for s in scalars):
        return Classification("Type I", tuple(scalars), None, None, band)
    if all(s < 0.1 for s in scalars):
        return Classification("Type II", tuple(scalars), None, None, band)
    centers = [c.center for c in prof.centers]
    c_fit, resid = fit_reciprocal_band(centers, scalars)
    if resid < 0.1 and band[0] < c_fit < band[1]:
        return Classification("Type III", tuple(scalars), c_fit, resid, band)
    return Classification("Unclassified", tuple(scalars), c_fit, resid, band)


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
    import numpy as np

    pts = np.asarray(sorted(set(float(x) for x in points)))
    if len(pts) < 3:
        raise DegenerateScales(f"gap statistic needs >= 3 points, got {len(pts)}")
    best = None
    for x in pts:
        d = np.unique(np.abs(pts - x))
        d = d[d > 0]
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
    points in [0, 1))."""
    depth = int(depth)
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    pts = [0.0]
    for _ in range(depth):
        pts = [p / 3 for p in pts] + [2 / 3 + p / 3 for p in pts]
    return sorted(pts)
