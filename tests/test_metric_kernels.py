"""The fast metric kernels and the double-tier term loop against their
straightforward references in oracles.py, compared exactly (==)."""

import math
import signal
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from dimspec import metrics
from dimspec.errors import ConfigError, DegenerateScales
from dimspec.families import ContractionFamily
from dimspec.solver import moran_bounds, pressure_derivative

# Clouds mixing subnormal and unit distances overflow some ratios to inf,
# in the references as in the kernels.
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)

random_sets = st.lists(unit, min_size=3, max_size=60)
# Small integer grids: many centers see the same distance on both sides.
tie_sets = st.lists(st.integers(0, 16), min_size=3, max_size=40).map(
    lambda ks: [k / 8 for k in ks])
dyadic_grids = st.tuples(
    st.integers(1, 40), st.lists(st.integers(0, 4095), min_size=3, max_size=50)
).map(lambda t: [k * 2.0 ** -t[0] for k in t[1]])
# Points accumulating on one side of the cloud, as in a geometric spectrum.
one_sided = st.tuples(st.floats(1.05, 4.0), st.integers(3, 40), st.floats(-2.0, 2.0)).map(
    lambda t: [t[2] + t[0] ** -k for k in range(t[1])])


def _ulp_cluster(args):
    base, size, far = args
    pts = [base]
    for _ in range(size - 1):
        pts.append(math.nextafter(pts[-1], math.inf))
    scale = max(abs(base), 1.0)
    return pts + [base + f * scale for f in far]


# Runs of adjacent floats, some subnormal (base 0) or huge, plus far points.
ulp_clusters = st.tuples(
    st.sampled_from([0.0, 0.5, 1.0, 1e-300, -3.7, 1e300]),
    st.integers(3, 12),
    st.lists(st.floats(-1.0, 1.0), max_size=6),
).map(_ulp_cluster)

point_sets = st.one_of(random_sets, tie_sets, dyadic_grids, one_sided, ulp_clusters)

# Self-similar clouds, shifted and scaled: many centers tie exactly on
# the largest ratio, and the smallest of them must win.
cantor_sets = st.tuples(
    st.integers(3, 9),
    st.sampled_from([1.0, 0.5, 2.0**-20, 3.0, 0.1, 1e3]),
    st.floats(-2.0, 2.0),
).map(lambda t: [t[2] + t[1] * p for p in metrics.cantor_truncation(t[0])])
# x and -x: every center near 0 sees equal distances on both sides.
mirrored = st.one_of(random_sets, tie_sets, one_sided, cantor_sets).map(
    lambda pts: pts + [-p for p in pts])
# Geometric accumulation at both ends of [lo, lo + 1].
two_sided = st.tuples(
    st.floats(1.05, 4.0), st.integers(2, 30), st.integers(2, 30), st.floats(-2.0, 2.0),
).map(lambda t: [t[3] + t[0] ** -k for k in range(t[1])]
      + [t[3] + 1 - t[0] ** -k for k in range(t[2])])

gap_sets = st.one_of(point_sets, cantor_sets, mirrored, two_sided)


def _distinct(points):
    return sorted(set(float(x) for x in points))


# --- gap statistic --------------------------------------------------------------

@settings(max_examples=1200, deadline=None)
@given(gap_sets)
def test_gaps_equal_the_unique_sort_reference(points):
    if len(_distinct(points)) < 3:
        with pytest.raises(DegenerateScales):
            metrics.uniform_perfectness_gaps(points)
        return
    want = oracles.ref_uniform_perfectness_gaps(points)
    if want is None:
        with pytest.raises(DegenerateScales):
            metrics.uniform_perfectness_gaps(points)
        return
    got = metrics.uniform_perfectness_gaps(points)
    assert (got.max_ratio, got.center, got.inner_distance, got.radius) == want


def test_gaps_equal_the_reference_when_distances_overflow():
    points = [-1.5e308, -1e308, 0.0, 3.0, 1e308]
    with np.errstate(over="ignore"):
        got = metrics.uniform_perfectness_gaps(points)
        want = oracles.ref_uniform_perfectness_gaps(points)
    assert (got.max_ratio, got.center, got.inner_distance, got.radius) == want


def test_gaps_sort_few_centers_on_a_deep_cantor_cloud(monkeypatch):
    # Every center's distances used to be sorted: 8192 calls at depth 13.
    calls = []
    distances = metrics._distances

    def counted(pts, x):
        calls.append(x)
        return distances(pts, x)

    monkeypatch.setattr(metrics, "_distances", counted)
    got = metrics.uniform_perfectness_gaps(metrics.cantor_truncation(13))
    assert got.max_ratio > 2.0
    assert len(calls) <= 1024


# --- local-profile kernels ------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(point_sets)
def test_window_radii_equal_the_loop_references(points):
    pts = np.asarray(_distinct(points))
    for x in pts:
        x = float(x)
        d = metrics._distances(pts, x)
        # On distinct points only the center's own distance is 0.
        assert d[0] == 0.0 and np.array_equal(d[1:], d[d > 0])
        d = d[1:]
        hits = metrics._boundaries(d)
        assert metrics._scalar_radius(d, hits, len(pts)) == oracles.ref_scalar_window_radius(pts, x)
        assert metrics._series_radii(d, hits) == oracles.ref_candidate_radii(pts, x)


@settings(max_examples=100, deadline=None)
@given(point_sets, st.lists(st.floats(min_value=0.0, allow_nan=False), max_size=3))
# Differences that overflow to +-inf.
@example([-1.7e308, -1.5e308, -1e308, 0.0, 3.0, 1e308, 1.7e308], [math.inf, 1e308])
def test_windows_equal_the_mask_reference(points, radii):
    # Every distance is a radius where the window changes; its float
    # neighbours check both sides of the step.
    pts = np.asarray(_distinct(points))
    for x in pts:
        x = float(x)
        window = metrics._windows(pts, x)
        for r in [*metrics._distances(pts, x).tolist(), *radii]:
            for radius in (r, math.nextafter(r, -math.inf), math.nextafter(r, math.inf)):
                assert window(radius).tolist() == oracles.ref_window(pts, x, radius)


@settings(max_examples=50, deadline=None)
@given(point_sets)
def test_classify_scalars_equal_the_local_profile_scalars(points):
    if len(_distinct(points)) < 2:
        with pytest.raises(DegenerateScales):
            metrics.classify_type(points)
        return
    assert list(metrics.classify_type(points).scalars) == \
        metrics.local_dimension_profile(points).scalars()


@pytest.mark.parametrize("family", ["cantor-pair", "geometric", "type-three"])
def test_classify_scalars_equal_the_local_profile_scalars_on_metric_clouds(family, cloud_cache):
    # The clouds the cloud-metrics benchmark classifies, at depth 13.
    if family == "cantor-pair":
        points = metrics.cantor_truncation(13)
    else:
        points = cloud_cache.cloud(family, 13).midpoints()
    assert list(metrics.classify_type(points).scalars) == \
        metrics.local_dimension_profile(points).scalars()


def test_classify_reads_a_one_shot_iterable():
    points = metrics.cantor_truncation(8)
    assert metrics.classify_type(iter(points)) == metrics.classify_type(points)


def test_classify_without_a_positive_center_fits_nothing(cloud_cache):
    # Mirrored, the type-three cloud keeps its mixed scalars, and no
    # center is left for the reciprocal grid (1e-3 .. 2*max center).
    points = [-x for x in cloud_cache.cloud("type-three", 10).midpoints()]
    got = metrics.classify_type(points)
    assert got.label == "Unclassified"
    assert got.fit_constant is None and got.fit_residual is None


def test_classify_builds_no_window_series(monkeypatch):
    def no_series(d, hits):
        raise AssertionError("classify_type measured a nested series")

    monkeypatch.setattr(metrics, "_series_radii", no_series)
    assert metrics.classify_type(metrics.cantor_truncation(8)).label == "Unclassified"


@settings(max_examples=300, deadline=None)
@given(point_sets.map(sorted), st.floats(min_value=1e-300, max_value=4.0))
def test_covering_count_equals_the_linear_walk(pts, eps):
    want = oracles.ref_covering_count(pts, eps)
    assert metrics.covering_count(pts, eps) == want
    assert metrics._covering_count(pts, eps) == want


def _binade_run(args):
    """size adjacent floats, starting below steps below the power of two
    base, so the run's gaps halve where it crosses into base's binade."""
    base, below, size = args
    pts = [base]
    for _ in range(below):
        pts[0] = math.nextafter(pts[0], 0.0)
    for _ in range(size - 1):
        pts.append(math.nextafter(pts[-1], math.inf))
    return pts


binade_runs = st.tuples(st.integers(-1022, 1000).map(lambda k: 2.0**k), st.integers(1, 8),
                        st.integers(2, 16)).map(_binade_run)
# Points of either sign with magnitudes from 1e-300 to 1e300.
magnitudes = st.lists(st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-300.0, 300.0)).map(
    lambda t: t[0] * 10.0**t[1]), min_size=2, max_size=40)


@settings(max_examples=400, deadline=None)
@given(st.one_of(random_sets, binade_runs, magnitudes).map(_distinct).filter(lambda p: len(p) >= 2))
@example([0.0, 0.5, 1.0])
@example([0.0, 0.9999999999999999, 1.0])
def test_no_profile_scale_but_the_finest_leaves_every_point_alone(pts):
    # Both floors are at least twice the smallest gap g, so every scale
    # but the finest is at least 4 g, and the interval from the left
    # point p of that gap ends at fl(p + eps) > p + g: it covers the
    # right point too.  The finest scale may be 2 g exactly, and
    # fl(p + 2 g) may round down onto p + g where that is a power of two
    # (p = 1 - 2**-53), so only the finest count can reach n_points.
    for floor_rule in ("min", "median"):
        prof = metrics._profile(pts, floor_rule)
        if prof is not None:
            assert prof.n_points == len(pts)
            assert max(prof.counts[:-1]) < prof.n_points


# Every way _covering_counts can take a scale: as it dispatches; with
# CROSSOVER = 0, every scale vectorised and every cluster walked in
# lockstep to the end; and with CROSSOVER = 2, every scale of more than
# two clusters vectorised in a group of its own, the walk taking the
# other scales and finishing the last two clusters.
KERNEL_SETTINGS = [
    {"CROSSOVER": metrics.CROSSOVER, "GROUP_ENTRIES": metrics.GROUP_ENTRIES},
    {"CROSSOVER": 0},
    {"CROSSOVER": 2, "GROUP_ENTRIES": 1},
]


def _counts_equal_the_walk(pts, scales):
    """_covering_counts(pts, scales) under every KERNEL_SETTINGS entry
    equals the linear walk at each scale."""
    pts = np.asarray(pts, dtype=float)
    gaps = np.sort(np.diff(pts))
    want = [oracles.ref_covering_count(pts.tolist(), e) for e in scales]
    for setting in KERNEL_SETTINGS:
        with mock.patch.multiple(metrics, **setting):
            assert metrics._covering_counts(pts, scales, gaps) == want, setting


# Arithmetic progressions: runs of equal gaps, also in the last bits.
progressions = st.tuples(
    st.floats(-2.0, 2.0), st.sampled_from([1.0, 0.1, 1 / 3, 2.0**-30, 5e-324]), st.integers(2, 80),
).map(lambda t: [t[0] + k * t[1] for k in range(t[2])])
distinct_clouds = st.one_of(point_sets, progressions).map(_distinct).filter(lambda p: len(p) >= 1)
# Scales down to the smallest subnormal: many make p + eps round back to p.
kernel_scales = st.lists(st.one_of(
    st.floats(min_value=5e-324, max_value=4.0),
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-17, 2.0**-53]),
), min_size=1, max_size=12)


@st.composite
def clouds_and_scales(draw):
    """A distinct cloud, with scales that are random or differences of
    its points, so that p + eps often lands on a point exactly."""
    pts = draw(distinct_clouds)
    diffs = st.tuples(st.sampled_from(pts), st.sampled_from(pts)).map(
        lambda pq: abs(pq[1] - pq[0])).filter(lambda d: d > 0)
    return pts, draw(st.lists(st.one_of(kernel_scales.map(min), diffs), min_size=1, max_size=12))


@settings(max_examples=500, deadline=None)
@given(clouds_and_scales())
@example(([0.5, math.nextafter(0.5, 1.0), 0.75], [1e-30, 2.0**-54, 0.2]))
@example(([0.0, 5e-324, 1e-323, 1.5e-323, 1.0], [5e-324, 1e-323, 0.5]))
@example(([0.0, 0.25, 0.5, 0.75, 1.0], [0.5, 0.25]))
# p + eps overflows to inf near the top of the float range.
@example(([1e308 + k * 7e305 for k in range(100)], [8e307, 7.5e307, 2e306]))
def test_all_scales_kernel_equals_the_walk_at_every_scale(case):
    _counts_equal_the_walk(*case)


def test_all_scales_kernel_overflows_quietly():
    # p + eps overflows to inf silently in the walk's Python floats; the
    # vectorised scales warn no more than the walk does.
    pts = np.array([1e308 + k * 7e305 for k in range(100)])
    with mock.patch.multiple(metrics, **KERNEL_SETTINGS[1]), warnings.catch_warnings():
        warnings.simplefilter("error")
        assert metrics._covering_counts(pts, [8e307, 2e306], np.sort(np.diff(pts))) == [1, 34]


@pytest.mark.parametrize("family", ["cantor-pair", "geometric", "type-three"])
def test_all_scales_kernel_equals_the_walk_on_the_metric_windows(family, cloud_cache, monkeypatch):
    # Every window the depth-13 local profiles count, at its own scales.
    if family == "cantor-pair":
        points = metrics.cantor_truncation(13)
    else:
        points = cloud_cache.cloud(family, 13).midpoints()
    windows = {}
    kernel = metrics._covering_counts

    def recorded(pts, scales, gaps):
        windows[(len(pts), float(pts[0]), float(pts[-1]))] = (pts, scales)
        return kernel(pts, scales, gaps)

    monkeypatch.setattr(metrics, "_covering_counts", recorded)
    metrics.local_dimension_profile(points)
    monkeypatch.undo()
    assert len(windows) >= 40
    for pts, scales in windows.values():
        _counts_equal_the_walk(pts, scales)


# VmHWM is the peak resident set of the child's own memory.
RANDOM_PROFILE = """
import random
from dimspec.metrics import box_dimension_estimate
rng = random.Random(26)
prof = box_dimension_estimate([rng.random() for _ in range(1 << 18)])
peak = [line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")]
print(prof.n_points, len(prof.scales), *peak)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc/self/status")
def test_a_large_random_profile_counts_in_memory_linear_in_the_cloud():
    # 2**18 random points resolve 34 scales; most of the fine ones have
    # a cluster per point.  Holding every vectorised scale's clusters at
    # once peaked at about 300 MB; in groups it is about 75 MB, against
    # about 60 MB for the bisection walk alone.
    src = str(Path(metrics.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", RANDOM_PROFILE], check=True, capture_output=True,
                         text=True, env={"PYTHONPATH": src}, timeout=120).stdout.split()
    assert out[:2] == [str(1 << 18), "34"]
    assert int(out[2]) < 120 * 1024  # kB


def test_covering_count_rejects_unsorted_points():
    # The greedy walk on this order used to return 2; sorted, it is 3.
    assert metrics.covering_count([0.0, 0.1, 0.5, 0.9], 0.2) == 3
    with pytest.raises(ConfigError):
        metrics.covering_count([0.5, 0.0, 0.9, 0.1], 0.2)


def test_covering_count_absorbed_eps_keeps_copies_together():
    # eps below half an ulp: each interval holds the copies of one point.
    assert metrics.covering_count([0.5, 0.5, 0.6], 1e-30) == 2


# --- reciprocal fit ----------------------------------------------------------------

fits = st.integers(2, 30).flatmap(lambda k: st.tuples(
    st.lists(st.floats(1e-3, 1.0), min_size=k, max_size=k),
    st.lists(st.floats(0.0, 1.2), min_size=k, max_size=k),
))


@settings(max_examples=30, deadline=None)
@given(fits)
def test_reciprocal_fit_equals_the_grid_loop(fit):
    centers, scalars = fit
    assert metrics.fit_reciprocal_band(centers, scalars) == \
        oracles.ref_fit_reciprocal_band(centers, scalars)


@pytest.mark.parametrize("c_true", [0.2, 0.6])
def test_reciprocal_fit_equals_the_grid_loop_on_exact_profiles(c_true):
    xs = np.linspace(0.05, 1.0, 9)
    ys = np.minimum(1.0, c_true / xs)
    assert metrics.fit_reciprocal_band(xs, ys) == oracles.ref_fit_reciprocal_band(xs, ys)


# --- double-tier term loop ------------------------------------------------------

NAMED = [ContractionFamily(kind) for kind in ("square-exponent", "geometric", "type-three")]
explicit_families = st.lists(
    st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000), max_denominator=1000),
    min_size=2, max_size=8,
).filter(lambda rs: all(0 < r < 1 for r in rs)).map(ContractionFamily.explicit)
families = st.one_of(st.sampled_from(NAMED), explicit_families)


@st.composite
def selections(draw):
    """(family, indices), indices None meaning the full infinite family."""
    fam = draw(families)
    top = fam.size or 20
    if fam.is_infinite and draw(st.booleans()):
        return fam, None
    size = draw(st.integers(2, min(top, 10)))
    return fam, tuple(sorted(draw(st.lists(
        st.integers(1, top), min_size=size, max_size=size, unique=True))))


tolerances = st.floats(min_value=1e-13, max_value=1e-4)


@settings(max_examples=150, deadline=None)
@given(selections(), st.floats(min_value=0.01, max_value=3.0), tolerances)
# At s = 0 a finite selection's terms are 1.0, with no pow.
@example((NAMED[0], (1, 2, 5)), 0.0, 1e-10)
@example((NAMED[1], (2, 3, 7, 20)), 0.0, 1e-4)
@example((ContractionFamily.explicit(["1/3", "1/4", "2/5"]), (1, 3)), 0.0, 1e-13)
def test_double_tier_sums_equal_term_by_term_sums(selection, s, tol):
    fam, indices = selection
    assert moran_bounds(fam, indices, s, tol) == oracles.term_by_term_bounds(fam, indices, s, tol)
    assert pressure_derivative(fam, indices, s) == oracles.term_by_term_pressure_slope(fam, indices, s)


# --- input contract -------------------------------------------------------------

def _within(seconds, fn, *args):
    """fn(*args), failing instead of hanging when it runs too long."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        return fn(*args)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_covering_count_with_eps_below_an_ulp_ends():
    assert _within(5, metrics.covering_count, [0.5, 0.6], 1e-30) == 2


@pytest.mark.xfail(strict=True, reason="an interval ends at the rounded fl(p + eps), not at p + eps")
def test_covering_count_ends_an_interval_at_the_exact_p_plus_eps():
    # [1 - 2**-53, 1 + 2**-53) covers the last two points, so two
    # intervals cover all three; fl(1 - 2**-53 + 2**-52) rounds to 1,
    # the counting kernels end the interval there and count 3.
    assert metrics.covering_count([0.0, 0.9999999999999999, 1.0], 2.0**-52) == 2


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan])
def test_covering_count_rejects_eps_not_positive(eps):
    with pytest.raises(ConfigError):
        _within(5, metrics.covering_count, [0.1, 0.2, 0.4], eps)


BAD_POINTS = [
    [0.0, 1.0, math.inf],
    [0.0, 0.5, 1.0, -math.inf],
    [0.0, math.nan, 0.5, 1.0],
]


@pytest.mark.parametrize("points", BAD_POINTS)
@pytest.mark.parametrize("metric", [
    lambda p: metrics.box_count(p, 0.25),
    lambda p: metrics.covering_count(sorted(p), 0.25),
    metrics.box_dimension_estimate,
    metrics.local_dimension_profile,
    metrics.classify_type,
    metrics.uniform_perfectness_gaps,
], ids=["box_count", "covering_count", "box_dimension_estimate",
        "local_dimension_profile", "classify_type", "uniform_perfectness_gaps"])
def test_metrics_reject_non_finite_points(metric, points):
    with pytest.raises(ConfigError):
        _within(5, metric, points)


SUBNORMAL_CLOUD = [0.0, 5e-324, 1e-323, 2.225073858507e-311]


def test_profiles_of_a_subnormal_cloud_stop_before_the_reciprocal_overflows():
    # Scales below about 5.6e-309 used to reach the fit as log(1/eps) =
    # inf, and lstsq raised a bare LinAlgError.
    with pytest.raises(DegenerateScales):
        metrics.box_dimension_estimate(SUBNORMAL_CLOUD)
    prof = metrics.local_dimension_profile(SUBNORMAL_CLOUD)
    assert all(c.scalar is None for c in prof.centers)
    assert metrics.classify_type(SUBNORMAL_CLOUD).label == "Unclassified"


# Diameters above the largest float: every profile scale would be inf.
OVERFLOWING_CLOUDS = [
    [-1.7e308, 0.0, 1.7e308],
    [-1e308, 1e308],
    [-1.7e308, -1e300, 0.0, 5e-324, 1e300, 1.7e308],
]


@pytest.mark.parametrize("points", OVERFLOWING_CLOUDS)
@pytest.mark.parametrize("metric", [
    metrics.box_dimension_estimate, metrics.local_dimension_profile, metrics.classify_type,
], ids=["box_dimension_estimate", "local_dimension_profile", "classify_type"])
def test_profiles_reject_a_cloud_whose_diameter_overflows(metric, points, capfd):
    # These printed numpy warnings and LAPACK DLASCL lines, then raised
    # a bare LinAlgError.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="diameter"):
            metric(points)
    assert capfd.readouterr().err == ""


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_box_count_rejects_non_finite_eps(eps):
    with pytest.raises(ConfigError):
        metrics.box_count([0.0, 0.5], eps)


@pytest.mark.parametrize("centers", [[-1.0, -2.0], [1e-4, 5e-4], [0.0, 0.0]])
def test_reciprocal_fit_rejects_centers_below_its_grid(centers):
    # 2*max(centers) <= 1e-3 ran the grid backwards: c = -0.5999 for the first.
    with pytest.raises(ConfigError):
        metrics.fit_reciprocal_band(centers, [0.5, 0.5])


def test_reciprocal_fit_rejects_non_finite_input():
    with pytest.raises(ConfigError):
        metrics.fit_reciprocal_band([0.1, math.nan, 0.5], [1.0, 0.5, 0.2])
    with pytest.raises(ConfigError):
        metrics.fit_reciprocal_band([0.1, 0.3, 0.5], [1.0, math.inf, 0.2])
