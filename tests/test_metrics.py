import math
from fractions import Fraction

import numpy as np
import pytest

from dimspec.errors import CapExceeded, ConfigError, DegenerateScales
from dimspec.metrics import (
    box_count,
    box_dimension_estimate,
    cantor_truncation,
    classify_type,
    covering_count,
    fit_reciprocal_band,
    local_dimension_profile,
    uniform_perfectness_gaps,
)

LOG2_OVER_LOG3 = math.log(2.0) / math.log(3.0)


# --- counting -----------------------------------------------------------------

def test_box_count_grid_cells_exact():
    pts = [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert box_count(pts, Fraction(1, 4)) == 4
    assert box_count(pts, Fraction(1, 2)) == 2
    assert box_count(pts, 1) == 1
    with pytest.raises(ConfigError):
        box_count(pts, 0)


def test_box_count_boundary_points():
    # a point sitting on a cell boundary belongs to the cell it opens
    assert box_count([Fraction(1, 2)], Fraction(1, 2)) == 1
    assert box_count([Fraction(1, 2), Fraction(1, 2) + Fraction(1, 100)], Fraction(1, 2)) == 1


def test_covering_count_greedy():
    pts = [0.0, 0.1, 0.2, 0.8]
    assert covering_count(pts, 0.5) == 2
    assert covering_count(pts, 0.05) == 4
    assert covering_count(pts, 2.0) == 1
    assert covering_count(iter(pts), 0.05) == 4


def test_covering_count_translation_invariant():
    pts = [0.0, 0.11, 0.23, 0.77]
    shifted = [p + 0.137 for p in pts]
    for eps in (0.03, 0.1, 0.4):
        assert covering_count(pts, eps) == covering_count(shifted, eps)


# --- global profile ------------------------------------------------------------

def test_cantor_truncation_stops_at_the_spectrum_depth_cap():
    # the same cap as every other cloud the metric commands read
    with pytest.raises(CapExceeded):
        cantor_truncation(17)


def test_cantor_truncation_slope():
    pts = cantor_truncation(8)
    assert len(pts) == 256
    prof = box_dimension_estimate(pts)
    assert abs(prof.slope - LOG2_OVER_LOG3) < 0.05


def test_uniform_grid_slope_is_one():
    pts = [k / 256 for k in range(256)]
    prof = box_dimension_estimate(pts)
    assert prof.slope == pytest.approx(1.0, abs=1e-9)


def test_profile_needs_enough_scales():
    with pytest.raises(DegenerateScales):
        box_dimension_estimate([0.0, 1.0])
    for points in ([0.0, 0.5, 1.0], iter([0.0, 0.5, 1.0])):
        with pytest.raises(DegenerateScales, match="^3 points leave"):
            box_dimension_estimate(points)


def test_scale_range_override_selects_regimes():
    # the coarse window sits in the saturated regime where counts just
    # double per halving; deeper windows approach the self-similar slope
    pts = cantor_truncation(7)
    full = box_dimension_estimate(pts)
    coarse = box_dimension_estimate(pts, scale_range=(2, 6))
    deep = box_dimension_estimate(pts, scale_range=(6, 12))
    assert len(coarse.scales) <= len(full.scales)
    assert coarse.slope == pytest.approx(1.0, abs=1e-9)
    assert abs(deep.slope - full.slope) < abs(coarse.slope - full.slope)


def test_profile_counts_monotone_in_scale():
    prof = box_dimension_estimate(cantor_truncation(6))
    assert all(a <= b for a, b in zip(prof.counts, prof.counts[1:]))


# --- local profile ----------------------------------------------------------------

def test_local_profile_on_cantor_matches_global():
    pts = cantor_truncation(8)
    prof = local_dimension_profile(pts)
    scalars = [s for s in prof.scalars() if s is not None]
    assert len(scalars) >= 8
    # self-similarity: windowed slopes hug the global one
    assert all(abs(s - LOG2_OVER_LOG3) < 0.2 for s in scalars)


def test_local_profile_widest_window_recovers_global_slope():
    pts = cantor_truncation(8)
    prof = local_dimension_profile(pts)
    global_slope = box_dimension_estimate(pts).slope
    center = prof.centers[len(prof.centers) // 2]
    assert center.series, "expected a nonempty window series"
    widest = max(center.series, key=lambda t: t[0])
    assert abs(widest[2] - global_slope) < 0.2


def test_local_profile_degenerate_input():
    with pytest.raises(DegenerateScales):
        local_dimension_profile([0.7])


# --- gaps ----------------------------------------------------------------------------

def test_cantor_gap_statistic():
    assert uniform_perfectness_gaps(cantor_truncation(7)).max_ratio == pytest.approx(2.0, abs=1e-9)


def test_arithmetic_grid_gap_statistic():
    pts = [k / 64 for k in range(64)]
    assert uniform_perfectness_gaps(pts).max_ratio == pytest.approx(1.5, abs=1e-9)


def test_gap_statistic_of_a_subnormal_inner_distance_is_infinite():
    # 0.5 / 1e-320 overflows: the ratio is +inf, with no numpy warning.
    assert uniform_perfectness_gaps([0.0, 1e-320, 1.0]).max_ratio == math.inf


def test_gap_statistic_needs_three_points():
    with pytest.raises(DegenerateScales):
        uniform_perfectness_gaps([0.0, 1.0])


def test_gap_statistic_grows_on_lacunary_sets(cloud_cache):
    d6 = uniform_perfectness_gaps(cloud_cache.cloud("square-exponent", 6).midpoints())
    d7 = uniform_perfectness_gaps(cloud_cache.cloud("square-exponent", 7).midpoints())
    assert d7.max_ratio > d6.max_ratio > 10.0


# --- classification ---------------------------------------------------------------------

def test_reciprocal_fit_recovers_constant():
    xs = np.linspace(0.05, 2.0, 40)
    c_true = 0.6
    ys = np.minimum(1.0, c_true / xs)
    c_fit, resid = fit_reciprocal_band(xs, ys)
    assert abs(c_fit - c_true) < 0.01
    assert resid < 1e-3


def test_classify_cantor_is_unclassified():
    # a self-similar set matches none of the three shapes; the honest
    # answer is no label
    assert classify_type(cantor_truncation(8)).label == "Unclassified"


def test_classify_square_exponent_cloud(cloud_cache):
    got = classify_type(cloud_cache.cloud("square-exponent", 10).midpoints())
    assert got.label == "Type II"
    assert all(s is not None and s < 0.1 for s in got.scalars)


def test_classify_type_three_cloud(cloud_cache):
    got = classify_type(cloud_cache.cloud("type-three", 12).midpoints())
    assert got.label == "Type III"
    assert got.fit_constant is not None
    assert got.fit_residual < 0.1


def test_classify_geometric_cloud(cloud_cache):
    got = classify_type(cloud_cache.cloud("geometric", 12).midpoints())
    assert got.label == "Type I"
    assert all(s is not None and s > 0.9 for s in got.scalars)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("pts", [[0.0, 1e300, 1e305, 1.7e308, 1.0, 2.0, 3.0],
                                 list(np.linspace(0.0, 1.7e308, 50))])
def test_a_cloud_almost_as_wide_as_the_float_range_keeps_its_windows(pts, capfd):
    # Distances above 1.34e154 overflow the product of a boundary's two
    # distances and JUMP_RATIO times a distance.  The windows stay those
    # of the same cloud scaled by 2**-600 (exactly, so its boundaries
    # are the same), with no numpy warning.
    scaled = [x * 2.0**-600 for x in pts]
    wide, small = local_dimension_profile(pts), local_dimension_profile(scaled)
    for c, s in zip(wide.centers, small.centers):
        assert (c.window_kind, c.window_size) == (s.window_kind, s.window_size)
        assert c.radius * 2.0**-600 == pytest.approx(s.radius, rel=1e-15)
        assert [n for _, n, _ in c.series] == [n for _, n, _ in s.series]
    assert classify_type(pts).label == classify_type(scaled).label
    assert capfd.readouterr().err == ""
