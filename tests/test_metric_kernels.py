"""The fast metric kernels and the double-tier term loop against their
straightforward references in oracles.py, compared exactly (==)."""

import math
import signal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import oracles
from dimspec import metrics
from dimspec.errors import ConfigError, DegenerateScales
from dimspec.families import ContractionFamily
from dimspec.solver import moran_bounds, pressure_derivative, solve_dimension

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


def _distinct(points):
    return sorted(set(float(x) for x in points))


# --- gap statistic --------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(point_sets)
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
                assert window(radius) == oracles.ref_window(pts, x, radius)


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


def test_classify_builds_no_window_series(monkeypatch):
    def no_series(d, hits):
        raise AssertionError("classify_type measured a nested series")

    monkeypatch.setattr(metrics, "_series_radii", no_series)
    assert metrics.classify_type(metrics.cantor_truncation(8)).label == "Unclassified"


@settings(max_examples=300, deadline=None)
@given(point_sets.map(sorted), st.floats(min_value=1e-300, max_value=4.0))
def test_covering_count_equals_the_linear_walk(pts, eps):
    # The reference never ends when p + eps rounds back to p.
    assume(all(p + eps > p for p in pts))
    want = oracles.ref_covering_count(pts, eps)
    assert metrics.covering_count(pts, eps) == want
    assert metrics._covering_count(pts, eps) == want


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
def test_double_tier_sums_equal_term_by_term_sums(selection, s, tol):
    fam, indices = selection
    assert moran_bounds(fam, indices, s, tol) == oracles.term_by_term_bounds(fam, indices, s, tol)
    if indices is not None:
        terms = [fam.term_double(a, s) for a in indices]
        num = math.fsum(t * fam.log2_ratio(a) for t, a in zip(terms, indices)) * math.log(2.0)
        assert pressure_derivative(fam, indices, s) == num / math.fsum(terms)


@settings(max_examples=100, deadline=None)
@given(selections(), tolerances)
def test_double_tier_certificates_equal_term_by_term_sums(selection, tol):
    fam, indices = selection
    iv = solve_dimension(fam, "full" if indices is None else indices, tol=tol)
    assume(iv.tier == "double")
    assert iv.cert_lo == oracles.term_by_term_bounds(fam, indices, iv.lo, tol)[0]
    if not iv.hi_is_ambient:
        assert iv.cert_hi == oracles.term_by_term_bounds(fam, indices, iv.hi, tol)[1]


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


@pytest.mark.parametrize("eps", [math.inf, math.nan])
def test_box_count_rejects_non_finite_eps(eps):
    with pytest.raises(ConfigError):
        metrics.box_count([0.0, 0.5], eps)


def test_reciprocal_fit_rejects_non_finite_input():
    with pytest.raises(ConfigError):
        metrics.fit_reciprocal_band([0.1, math.nan, 0.5], [1.0, 0.5, 0.2])
    with pytest.raises(ConfigError):
        metrics.fit_reciprocal_band([0.1, 0.3, 0.5], [1.0, math.inf, 0.2])
