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
profiles, whose smallest gaps are routinely degenerate).  Both floors
are at least twice the smallest gap, so no count but the finest reaches
the number of points; the ends are dropped from the fit when enough
scales remain.

Local profiles estimate a scalar at each of N_CENTERS centers on a
window chosen by the first lacunarity boundary of the sorted distance
sequence (a jump by more than JUMP_RATIO), falling back to half the
sample.  A nested series over all boundary and dyadic nearest-neighbour
windows is attached for trend checks.  Classification into the three
qualitative types follows from the scalars alone: all near 1, all near
0, or a reciprocal-shaped middle band fitted by min(1, c/x).

Costs, for n distinct points.  The points are made distinct by one
stable sort and one pass over adjacent values (_distinct_sorted), a
linear pass on an already sorted cloud such as cantor_truncation's,
which builds its levels as arrays in order.  A profile counts all its
scales in one pass (_covering_counts).  No interval crosses a gap with w[i+1] >=
fl(w[i] + eps), since an interval from p <= w[i] ends at fl(p + eps)
<= fl(w[i] + eps), so those gaps split the window into clusters whose
counts add up to the greedy walk's; one comparison per gap and scale
finds and counts them.  The clusters that need more than one interval,
from every scale, are walked in lockstep, one searchsorted per step
for all of them, in groups of scales that bound its arrays by a
constant times the window.  One crossover, CROSSOVER clusters, makes
both choices: a scale with more clusters is vectorised, the others take
the walk, one binary search per interval placed, and the lockstep walk
hands its walkers to the walk once CROSSOVER or fewer are left.  A
window of CROSSOVER or fewer points walks every scale, as no scale has
more clusters than points.  On the depth-13 Cantor cloud the 108 local
windows count in about 10 ms instead of 40 ms, and the 9 series
windows that are also a center's scalar window are not counted again.
Each center's distances are sorted once, by _distances, which merges
the two sorted runs (left and right neighbours) in O(n) with a stable
sort; the window radii and the gap statistic read that one array.  A window is an index range of the
sorted cloud, found by two binary searches on the differences to its
center, never a mask over the whole cloud.  classify_type measures
only the scalar windows, not the nested series.  The gap statistic
sorts the distances of only the centers whose bound can reach the
maximum: the bounds come from candidate pairs (a gap and a center on
one side of it), one searchsorted range per gap and, per pair, one
searchsorted and a walk that corrects its start (mostly by zero or one
point), in blocks of GAP_BLOCK pairs; uniform_perfectness_gaps
proves they find the same maximum.  On the depth-13 Cantor cloud
(8192 points) that is 2 sorts instead of 8192.  The pairs can number
O(n^2) on clouds whose ratios all sit near the maximum, and outside
the float range of the proof every center takes a sort of its own.  The
reciprocal fit is one vectorised pass over its 8000-point grid, and
every log-log slope is one fit_line.
Every public metric raises ConfigError on a non-finite point, and the
profiles on a cloud whose diameter overflows the float range.
"""

from __future__ import annotations

import math
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
# _covering_counts vectorises the scales of more than CROSSOVER clusters
# and hands the lockstep walk's last CROSSOVER walkers to the walk; of 8
# to 32, 20 slowed the depth-13 metric calls least (BENCH_27.json).
# GROUP_ENTRIES bounds the lockstep walk's points times scales per group.
CROSSOVER = 20
GROUP_ENTRIES = 1 << 18


def _exact(x) -> Fraction:
    """x as an exact Fraction; ConfigError for NaN and infinities."""
    try:
        return Fraction(x)
    except (OverflowError, ValueError):
        raise ConfigError(f"metrics need finite values, got {x!r}") from None


def _distinct_sorted(points) -> list[float]:
    """Sorted distinct float values of points; ConfigError on a
    non-finite one (NaN would break the sort, inf every distance).

    One stable sort, then one pass that drops each value equal to the
    one before it: of 0.0 and -0.0 the first given is kept, as a set
    keeps it.  A NaN or inf is never dropped (a NaN equals nothing, an
    inf only another inf), so the check on the result sees it.  On a
    sorted cloud the sort is one linear pass."""
    vals = sorted(map(float, points))
    out = vals[:1]
    out += [x for p, x in zip(vals, vals[1:]) if x != p]
    if not all(map(math.isfinite, out)):
        raise ConfigError("metrics need finite points, got a NaN or infinity")
    return out


def _profiled_points(points) -> list[float]:
    """_distinct_sorted(points), and ConfigError when their diameter
    overflows the float range: every scale of a profile would be inf.
    The check reads the Python floats, before numpy sees the points."""
    pts = _distinct_sorted(points)
    if len(pts) > 1 and pts[-1] - pts[0] == math.inf:
        raise ConfigError(f"metrics need a cloud diameter below the float range, "
                          f"got the points {pts[0]!r} to {pts[-1]!r}")
    return pts


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
    interval placed.  ConfigError for eps <= 0, a non-finite point or
    points out of order (the greedy count needs them sorted)."""
    if not eps > 0:
        raise ConfigError(f"covering_count needs eps > 0, got {eps}")
    sorted_pts = list(sorted_pts)
    if not all(map(math.isfinite, sorted_pts)):
        raise ConfigError("metrics need finite points, got a NaN or infinity")
    if not all(a <= b for a, b in zip(sorted_pts, sorted_pts[1:])):
        raise ConfigError("covering_count needs the points in ascending order")
    return _covering_count(sorted_pts, eps)


def _covering_count(pts, eps, start=0, stop=None) -> int:
    """covering_count on checked input, of the points pts[start:stop]
    of the list pts.  Each interval [p, p + eps) ends at the first point
    >= p + eps, found by bisection; the search starts past p, so the
    count always moves forward, also when p + eps rounds back to p (then
    the interval holds the copies of p only)."""
    n = 0
    i = start
    m = len(pts) if stop is None else stop
    while i < m:
        p = pts[i]
        lim = p + eps
        n += 1
        i = bisect_left(pts, lim, i + 1, m) if lim > p else bisect_right(pts, p, i + 1, m)
    return n


def _covering_counts(pts, scales, gaps) -> list[int]:
    """[_covering_count(pts, eps) for eps in scales] on the sorted
    distinct float array pts; gaps holds its consecutive differences,
    sorted.

    Exactness: an interval placed at p <= w[i] ends at fl(p + eps) <=
    fl(w[i] + eps), as rounding is monotone, so no interval crosses a
    gap with w[i+1] >= fl(w[i] + eps), and the count is the sum of the
    walk's counts over the clusters between such gaps.

    A scale is vectorised when it has more than CROSSOVER clusters,
    counted in advance as the sorted gaps of at least eps, and such
    scales are counted by _lockstep_counts, GROUP_ENTRIES // len(pts) at
    a time.  The other scales are walked; so is every scale of a window
    of CROSSOVER or fewer points, which no scale splits into more
    clusters than points.
    """
    import numpy as np

    n = len(pts)
    lst = pts.tolist()
    fast = []
    if n > CROSSOVER:
        heads = (n - np.searchsorted(gaps, scales)).tolist()
        fast = [k for k, h in enumerate(heads) if h > CROSSOVER]
    counts = [0 if k in fast else _covering_count(lst, e) for k, e in enumerate(scales)]
    per = max(1, GROUP_ENTRIES // n)
    for g in range(0, len(fast), per):
        group = fast[g:g + per]
        for k, c in zip(group, _lockstep_counts(pts, lst, [scales[k] for k in group])):
            counts[k] = c
    return counts


def _lockstep_counts(pts, lst, scales) -> list[int]:
    """The covering counts of the sorted distinct float array pts (lst
    is pts.tolist()) at scales, from its clusters at every scale at once.

    One comparison per gap and scale finds the clusters and counts them
    with no walk.  A cluster needs more than one interval only when its
    last point is >= fl(first + eps); those clusters, from every scale,
    are walked together, each step one searchsorted for the same
    fl(p + eps) that the walk bisects for, until CROSSOVER or fewer are
    left, which the walk finishes.
    """
    import numpy as np

    n = len(pts)
    eps = np.array(scales)
    # p + eps may overflow to inf, as it does in the walk's floats.
    with np.errstate(over="ignore"):
        # head[r, i]: w[i] starts a cluster at the scale eps[r].
        head = np.ones((len(eps), n), dtype=bool)
        np.greater_equal(pts[1:], pts[:-1] + eps[:, None], out=head[:, 1:])
        flat = np.flatnonzero(head)
        row, first = np.divmod(flat, n)
        last = np.append(flat[1:], head.size) - 1 - row * n
        counts = np.bincount(row, minlength=len(eps))
        e = eps[row]
        walk = pts[last] >= pts[first] + e
        pos, last, e, row = first[walk], last[walk], e[walk], row[walk]
        # Each walker's current interval is counted; a step places the next.
        while len(pos) > CROSSOVER:
            pos = np.maximum(np.searchsorted(pts, pts[pos] + e, "left"), pos + 1)
            live = pos <= last
            pos, last, e, row = pos[live], last[live], e[live], row[live]
            counts += np.bincount(row, minlength=len(eps))
    counts = counts.tolist()
    for i, j, ek, r in zip(pos.tolist(), last.tolist(), e.tolist(), row.tolist()):
        counts[r] += _covering_count(lst, ek, i, j + 1) - 1
    return counts


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

    pts = np.asarray(pts, dtype=float)
    n = len(pts)
    if n < 2:
        return None
    diam = float(pts[-1]) - float(pts[0])
    gaps = pts[1:] - pts[:-1]
    gaps.sort()  # the floor and _covering_counts read them sorted
    if floor_rule == "min":
        floor = 2.0 * float(gaps[0])
    else:
        # "median": the middle gap, or the mean (a + b) / 2 of the two
        # middle ones, as statistics.median takes it
        mid = (n - 1) // 2
        floor = 2.0 * float(gaps[mid] if n % 2 == 0 else (gaps[mid - 1] + gaps[mid]) / 2)

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
    counts = _covering_counts(pts, scales, gaps)
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
    pts = _profiled_points(points)
    prof = _profile(pts, floor_rule="min", scale_range=scale_range)
    if prof is None:
        raise DegenerateScales(
            f"{len(pts)} points leave fewer than {MIN_FIT_SCALES} usable scales"
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

    # JUMP_RATIO * d[i] overflows to inf only where it exceeds every
    # float, so no d[i + 1] passes it, as none passes the exact product.
    with np.errstate(over="ignore"):
        return np.flatnonzero(d[3:] > JUMP_RATIO * d[2:-1]) + 2


def _geometric_mean(a, b):
    """sqrt(a * b) for floats a, b >= 0, also where a * b overflows:
    then sqrt(a) * sqrt(b), which stays inside the float range."""
    a, b = float(a), float(b)
    product = a * b
    return math.sqrt(product) if product < math.inf else math.sqrt(a) * math.sqrt(b)


def _scalar_radius(d, hits, n):
    """(radius, kind) of the scalar window of a center among n points,
    from its positive sorted distances d and their boundaries hits: the
    first boundary stops the window inside it (geometric mean of the
    straddling distances), else the window holds half the sample."""
    if len(d) < 2:
        return None, "empty"
    if len(hits):
        i = hits[0]
        return _geometric_mean(d[i], d[i + 1]), "boundary"
    return float(d[min(len(d) - 1, n // 2)]), "half-sample"


def _series_radii(d, hits):
    """Radii of the nested series: every boundary radius plus the
    dyadic nearest-neighbour distances d[4], d[8], ..."""
    radii = [_geometric_mean(d[i], d[i + 1]) for i in hits]
    m = 4
    while m < len(d):
        radii.append(float(d[m]))
        m *= 2
    return sorted(set(radii))


def _windows(pts, x):
    """The window function of center x: r -> the points of the sorted
    array pts within distance r of x, as a slice of pts.

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
        return pts[np.searchsorted(rel, -r, "left"):np.searchsorted(rel, r, "right")]

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

    pts = np.asarray(_profiled_points(points))
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
    than an error.  A series radius equal to the scalar window's (its
    first boundary radius, or a half-sample distance d[m] at a dyadic m)
    takes that window's size and slope instead of profiling the same
    window again: 9 of the 108 windows of the depth-13 Cantor cloud.
    """
    pts, centers = _centers(points)
    out = []
    for x in centers:
        record, window, d, hits = _center_scalar(pts, x)
        series = []
        for r in _series_radii(d, hits):
            if r == record.radius:
                if record.scalar is not None:
                    series.append((r, record.window_size, record.scalar))
                continue
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
    ConfigError when 2*max(centers) <= 1e-3: the grid would be empty or
    run backwards.
    """
    import numpy as np

    xs = np.asarray(centers, dtype=float)
    es = np.asarray(scalars, dtype=float)
    if len(xs) < 2:
        raise NumericError("reciprocal fit needs at least 2 centers")
    if not (np.isfinite(xs).all() and np.isfinite(es).all()):
        raise ConfigError("reciprocal fit needs finite centers and scalars")
    if not 2 * xs.max() > 1e-3:
        raise ConfigError(f"reciprocal fit needs a center above 5e-4, got max {xs.max()!r}")
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


def classify_type(points) -> Classification:
    """Qualitative local-dimension type of a point cloud.

    Type I: every local scalar above 0.9 (locally full-dimensional).
    Type II: every scalar below 0.1 (locally degenerate everywhere).
    Type III: scalars follow min(1, c/x) with RMS residual below 0.1
    and c strictly inside 5..95 percent of the cloud supremum.
    Anything else is Unclassified, without a fit when no center lies
    above 5e-4 (fit_reciprocal_band has no grid there).  Only the
    scalar windows of the N_CENTERS centers are measured, not the
    nested series.
    """
    pts, centers = _centers(points)
    scalars = tuple(_center_scalar(pts, x)[0].scalar for x in centers)
    sup = float(pts[-1])
    band = (0.05 * sup, 0.95 * sup)
    if any(s is None for s in scalars):
        return Classification("Unclassified", scalars, None, None, band)
    if all(s > 0.9 for s in scalars):
        return Classification("Type I", scalars, None, None, band)
    if all(s < 0.1 for s in scalars):
        return Classification("Type II", scalars, None, None, band)
    if not 2 * max(centers) > 1e-3:
        # No grid for min(1, c/x), and no band above 0 to put c in.
        return Classification("Unclassified", scalars, None, None, band)
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


GAP_BLOCK = 2048


def _center_gap(pts, x):
    """(ratio, inner_distance, radius) of the largest ratio at center x
    of the sorted array pts, the first one on a tie; None when x sees
    fewer than two distinct distances.  This is the exact per-center
    evaluation, repeated distances dropped."""
    import numpy as np

    d = _distances(pts, x)
    d = d[1:][d[1:] != d[:-1]]
    if len(d) < 2:
        return None
    rmid = (d[:-1] + d[1:]) / 2
    with np.errstate(over="ignore"):  # a tiny inner distance gives a ratio of +inf
        ratios = rmid / d[:-1]
    j = int(np.argmax(ratios))
    return float(ratios[j]), float(d[j]), float(rmid[j])


def _left_pair_bounds(pts, tau):
    """Per center of the sorted array pts, the largest computed ratio
    over its candidate pairs whose inner point lies left of it; 0 where
    it has none.  The proof is in uniform_perfectness_gaps.

    The pair of center i with inner point j < i has a = fl(x_i - p_j)
    and b = min(fl(x_i - p_{j-1}), the first right distance above a);
    for j = 0 (the hull end) b is that right distance alone.  A pair
    with j >= 1 is a candidate when x_i <= p_j + (p_j - p_{j-1})/tau,
    the threshold rounded up; tau <= 0 makes every pair a candidate.
    The pairs are walked GAP_BLOCK at a time.

    The first right distance above a is fl(p_{pos+1} - x_i), pos the
    last m with fl(p_m - x_i) <= a.  That predicate holds on a run of m
    from i on, as fl(p_m - x_i) is nondecreasing in m, so pos is the one
    m >= i where it holds at m and fails at m + 1 (or m = n - 1).  One
    searchsorted on fl(x_i + a) gives a start near it, and each start
    is walked down while the predicate fails at it, then up while it
    holds one further: the walk stops at that m, exactly, however far
    the rounding of x_i + a put the start from it.  Mostly it moves
    zero or one step; where x_i + a is much smaller than a in magnitude
    (a center just left of 0, say), every point up to about ulp(a) / 2
    past it can hold, and the walk takes one step per point.
    """
    import numpy as np

    n = len(pts)
    # Inner point j pairs with the centers j+1 .. last[j]-1.
    last = np.full(n - 1, n)
    if tau > 0:
        with np.errstate(over="ignore"):  # an overflowed reach admits every center
            reach = np.maximum(np.diff(pts[:-1]) / tau * (1 + 2.0**-40), 2.0**-1021)
            last[1:] = np.searchsorted(pts, np.nextafter(pts[1:-1] + reach, np.inf), "right")
    ends = np.cumsum(np.maximum(last - np.arange(1, n), 0))
    bound = np.zeros(n)
    for start in range(0, int(ends[-1]), GAP_BLOCK):
        flat = np.arange(start, min(start + GAP_BLOCK, int(ends[-1])))
        j = np.searchsorted(ends, flat, "right")
        i = last[j] - (ends[j] - flat)
        x = pts[i]
        a = x - pts[j]
        # x + a >= x, so the start is at least i, where the predicate holds;
        # an x + a that overflows starts the walk at the last point.
        with np.errstate(over="ignore"):
            pos = np.searchsorted(pts, x + a, "right") - 1
        k = np.flatnonzero(pts[pos] - x > a)
        while len(k):
            pos[k] -= 1
            k = k[pts[pos[k]] - x[k] > a[k]]
        k = np.flatnonzero(pos < n - 1)
        while len(k):
            k = k[pts[pos[k] + 1] - x[k] <= a[k]]
            pos[k] += 1
            k = k[pos[k] < n - 1]
        b = np.where(pos < n - 1, pts[np.minimum(pos + 1, n - 1)] - x, np.inf)
        b = np.where(j > 0, np.minimum(b, x - pts[j - 1]), b)
        keep = b < np.inf
        with np.errstate(over="ignore"):  # as in _center_gap, a ratio may be +inf
            np.maximum.at(bound, i[keep], (a[keep] + b[keep]) / 2 / a[keep])
    return bound


def uniform_perfectness_gaps(points) -> GapReport:
    """The GapReport of the distinct points, sorting the distances of
    only the centers whose bound can reach the maximum.

    The reference is the ascending scan over all centers with
    _center_gap, where only a strictly larger ratio replaces the best:
    the largest ratio, at the smallest center reaching it, at its first
    distance.  Here the center with the largest ratio between its two
    neighbouring gaps is evaluated first, for a lower bound beta.  Every
    center then gets a bound from its candidate pairs (_left_pair_bounds
    on pts, and on the mirror -pts[::-1] for inner points right of it).
    The centers are evaluated in descending bound order, the smallest
    first on equal bounds, until the bound and center of the next one
    cannot beat the best.  Extra memory is O(n + GAP_BLOCK).

    Why no center is missed.  Float subtraction is monotone, so the
    left distances L_k = fl(x - p_{i-k}) and the right ones are
    nondecreasing in k, and rounding is symmetric, so |fl(p - x)| =
    fl(|p - x|).  Let (a, b) be neighbours in a center's distinct sorted
    distances, with a = L_k, k largest (or the mirror).  Then L_{k+1} is
    the first left distance above a, so b is exactly min(L_{k+1}, the
    first right distance above a), and the candidate pair computes the
    ratio with the same float operations as _center_gap; at the hull end
    b is the right distance alone.  A pair with L_{k+1} = L_k only adds
    the ratio 1, the least a ratio can be.  So a center's bound is its
    ratio whenever the pairs reaching beta are candidates.

    They are, with a margin.  Let u = 2**-53 and beta' = min(beta,
    2**1000).  While every distance lies in [2**-1022, 2**1022] (the
    smallest gap and the diameter are checked in floats), a + b stays
    finite, the halving is exact, and the ratio c = fl(fl(a+b)/2 / a) is
    at most ((a+b)/2a)(1+u)**2 or is +inf above the largest float, so
    c >= beta gives (1 + b/a)/2 >= beta'(1+u)**-2.  Each subtraction is
    within a factor 1 +- u (a subnormal difference is exact) and b <=
    fl(x - q), so the real rho = (x - q)/(x - p) satisfies rho - 1 >=
    (2beta' - 1)(1 - 6u) - 1 >= tau, which is (2beta' - 1)(1 - 2**-40)
    - 1 computed in floats: 2**-40 outweighs its roundings.  tau <= 0
    makes every pair a candidate.  Else, as rho - 1 = (p - q)/(x - p),
    a candidate center has x <= p + (p - q)/tau.  The computed reach
    max(fl(fl(fl(p - q)/tau)(1 + 2**-40)), 2**-1021) is at least
    (p - q)/tau (three roundings against 2**-40, a quotient below
    2**-1022 against the floor), and nextafter covers the rounding of
    p + reach.  Where the distances leave that range, every center's
    bound is +inf and the same loop evaluates all of them, ascending.
    """
    import numpy as np

    pts = np.asarray(_distinct_sorted(points))
    n = len(pts)
    if n < 3:
        raise DegenerateScales(f"gap statistic needs >= 3 points, got {n}")
    gaps = np.diff(pts)
    with np.errstate(all="ignore"):
        i0 = 1 + int(np.argmax(np.maximum(gaps[1:], gaps[:-1]) / np.minimum(gaps[1:], gaps[:-1])))
    gap = _center_gap(pts, pts[i0])
    # (ratio, -center index, the center's gap): larger is better.  Every
    # ratio is >= 1, so (1.0, -n) loses to any center.
    best = (gap[0], -i0, gap) if gap else (1.0, -n, None)
    # Every distance lies between the smallest gap and the diameter.
    if float(np.min(gaps)) >= sys.float_info.min and pts[-1] - pts[0] <= 2.0**1022:
        tau = (2 * min(best[0], 2.0**1000) - 1) * (1 - 2.0**-40) - 1
        bound = np.maximum(_left_pair_bounds(pts, tau), _left_pair_bounds(-pts[::-1], tau)[::-1])
    else:
        bound = np.full(n, np.inf)
    order = np.flatnonzero(bound >= best[0])
    for i in order[np.argsort(-bound[order], kind="stable")].tolist():
        if (bound[i], -i) <= best[:2]:
            break
        gap = _center_gap(pts, pts[i])
        if gap and (gap[0], -i) > best[:2]:
            best = (gap[0], -i, gap)
    if best[2] is None:
        raise DegenerateScales("no usable center for the gap statistic")
    ratio, inner, radius = best[2]
    return GapReport(max_ratio=ratio, center=float(pts[-best[1]]), inner_distance=inner,
                     radius=radius)


def cantor_truncation(depth: int):
    """Left endpoints of the depth-n middle-thirds construction (2**n
    points in [0, 1), a sorted list); CapExceeded above the spectrum
    depth cap.

    Each level maps the sorted points p to p / 3 and then to 2/3 + p / 3,
    the same IEEE operations in numpy as in Python floats.  Both maps
    are nondecreasing and the first half stays below 1/3, so the points
    come out sorted with no sort."""
    import numpy as np

    from .spectrum import DEPTH_CAP

    depth = require_int(depth, "depth")
    if depth < 0:
        raise ConfigError(f"depth must be >= 0, got {depth}")
    if depth > DEPTH_CAP:
        raise CapExceeded(f"cloud depth {depth} exceeds cap {DEPTH_CAP}")
    pts = np.zeros(1)
    for _ in range(depth):
        third = pts / 3
        pts = np.concatenate([third, 2 / 3 + third])
    return pts.tolist()
