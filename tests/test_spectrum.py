from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dimspec import families, solver, spectrum
from dimspec.errors import CapExceeded, ConfigError, InsufficientPrecision
from dimspec.families import ContractionFamily
from dimspec.perturbation import increment
from dimspec.solver import DimensionInterval, solve_dimension
from dimspec.spectrum import DEPTH_CAP, branch_increment, expand_spectrum
from dimspec.words import longest_common_prefix, subset_of_word

SQEXP = ContractionFamily.square_exponent()


def test_depth_four_cloud_hits_known_subsets():
    cloud = expand_spectrum(SQEXP, 4)
    by_word = {p.word: p.interval.mid for p in cloud.points}
    assert by_word["1100"] == pytest.approx(oracles.SQEXP_12, abs=1e-9)
    assert by_word["1101"] == pytest.approx(oracles.SQEXP_124, abs=1e-9)
    assert by_word["1110"] == pytest.approx(oracles.SQEXP_123, abs=1e-9)
    assert len(cloud.points) == 4


@pytest.mark.parametrize("tol", [-1, -1e-12])
def test_expand_spectrum_names_the_callers_tol(tol):
    # The base solve runs at min(1e-10, 16 * tol); the error names the
    # caller's tol, not that one.
    with pytest.raises(ConfigError) as err:
        expand_spectrum(SQEXP, 4, tol=tol)
    assert str(err.value) == f"tolerance must be positive and finite, got {tol}"


def test_cloud_points_sorted_by_value():
    cloud = expand_spectrum(SQEXP, 5)
    mids = cloud.midpoints()
    assert mids == sorted(mids)
    words = [p.word for p in cloud.points]
    assert all(w.startswith("11") and len(w) == 5 for w in words)
    assert len(set(words)) == 8


def test_base_dimension_matches_direct_solve():
    cloud = expand_spectrum(SQEXP, 4)
    direct = solve_dimension(SQEXP, (1, 2), tol=cloud.base_dimension.width_budget)
    assert cloud.base_dimension.mid == pytest.approx(direct.mid, abs=1e-12)


def test_covering_radius_shrinks_with_depth():
    r = [expand_spectrum(SQEXP, d).covering_radius() for d in (4, 5, 6)]
    assert r[0] > r[1] > r[2] > 0


def test_spacing_constant_is_stable_in_depth(cloud_cache):
    c6 = cloud_cache.cloud("square-exponent", 6).spacing_constant
    c10 = cloud_cache.cloud("square-exponent", 10).spacing_constant
    assert 0.5 < c6 / c10 < 2.0


def test_workers_do_not_change_results():
    one = expand_spectrum(SQEXP, 6, workers=1)
    four = expand_spectrum(SQEXP, 6, workers=4)
    assert one.midpoints() == four.midpoints()
    assert [p.word for p in one.points] == [p.word for p in four.points]


class _SerialPool:
    """Stands in for multiprocessing.Pool: records the process count and
    maps in this process, so no process is started."""

    processes = []

    def __init__(self, processes):
        _SerialPool.processes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def starmap(self, fn, jobs, chunksize=1):
        return [fn(*job) for job in jobs]


@pytest.mark.parametrize("cpus,workers,processes", [(2, 5000, 2), (8, 3, 3), (None, 4, 1)])
def test_worker_pool_is_capped_at_the_cpu_count(monkeypatch, cpus, workers, processes):
    monkeypatch.setattr(spectrum, "Pool", _SerialPool)
    monkeypatch.setattr(spectrum.os, "cpu_count", lambda: cpus)
    _SerialPool.processes = []
    cloud = expand_spectrum(SQEXP, 6, workers=workers)
    # the pool branch follows the requested count, even on one CPU
    assert _SerialPool.processes == [processes]
    assert cloud == expand_spectrum(SQEXP, 6, workers=1)


def test_depth_and_base_validation():
    with pytest.raises(CapExceeded):
        expand_spectrum(SQEXP, DEPTH_CAP + 1)
    # the depth is checked before the auto tol's pilot solve reads it
    for tol in (None, 1e-10):
        with pytest.raises(ConfigError, match="^index 6 out of range"):
            expand_spectrum(ContractionFamily.explicit(["1/3"] * 4), 6, tol=tol)
    with pytest.raises(ConfigError):
        expand_spectrum(SQEXP, 4, base_symbols=())
    with pytest.raises(ConfigError):
        expand_spectrum(SQEXP, 2, base_symbols=(1, 2, 5))
    with pytest.raises(ConfigError, match="at least 1"):
        expand_spectrum(SQEXP, 4, workers=0)
    # the full selector is no base, for a finite family too
    for family in (SQEXP, ContractionFamily.explicit(["1/2", "1/3"])):
        for full in ("full", None):
            with pytest.raises(ConfigError, match="at least one symbol explicitly"):
                expand_spectrum(family, 2, base_symbols=full)


@pytest.mark.parametrize("workers", [1, 2])
def test_cloud_words_are_solved_as_their_subsets(workers):
    # The cloud hands the solver each word's symbols, not the word.  On
    # the mpmath tier, as here, every point has the ends, tier, precision
    # and budget of the word's own solve: the float spacing, not the
    # Newton path, decides its ends.  A double-tier word's ends may
    # differ from its own solve's in the last bits, since its Newton
    # starts at its parent's lo.  Its certificates come from its cloud's
    # table, not from the solve's evaluation, and hold against the
    # 200-bit sums at lo and hi.  A word past the end of a finite family
    # is the ConfigError the word's solve would raise.
    cloud = expand_spectrum(SQEXP, 5, tol=1e-20, workers=workers)
    for point in cloud.points:
        iv, alone = point.interval, solve_dimension(SQEXP, point.word, tol=1e-20)
        assert ((iv.lo, iv.hi, iv.tier, iv.precision_bits, iv.width_budget)
                == (alone.lo, alone.hi, alone.tier, alone.precision_bits, alone.width_budget))
        indices = subset_of_word(point.word)
        assert (oracles.ref_sum(SQEXP, indices, iv.lo, oracles.PREC) >= iv.cert_lo >= 1
                >= iv.cert_hi >= oracles.ref_sum(SQEXP, indices, iv.hi, oracles.PREC))
    family = ContractionFamily.explicit(["1/2", "1/3", "1/4"])
    with pytest.raises(ConfigError, match="^index 5 out of range for explicit family of size 3$"):
        expand_spectrum(family, 5, tol=1e-9, workers=workers)
    assert expand_spectrum(family, 3, base_symbols=(1, 3), tol=1e-9).points[0].word == "101"


def test_cloud_certificates_do_not_depend_on_the_worker_count(monkeypatch):
    # The words are solved in fixed subtrees, each from its parents' ends
    # and its own tables, so the whole cloud, certificates included, is
    # the same serially, through the pool branch and in a real pool.
    one = expand_spectrum(SQEXP, 8, tol=1e-20, workers=1)
    real = expand_spectrum(SQEXP, 8, tol=1e-20, workers=2)
    monkeypatch.setattr(spectrum, "Pool", _SerialPool)
    assert expand_spectrum(SQEXP, 8, tol=1e-20, workers=2) == one == real


@pytest.mark.parametrize("family", [
    ContractionFamily.geometric(),
    ContractionFamily.type_three(),
    ContractionFamily.explicit(["0.3", "0.2", "0.15", "0.1", "0.08", "0.06", "0.04", "0.03"]),
], ids=["geometric", "type-three", "explicit"])
def test_double_tier_clouds_are_certified_and_do_not_depend_on_the_worker_count(
        monkeypatch, family):
    # Each word's double Newton starts at its parent's lo and its sums
    # take the cloud's weights; every point is still certified against
    # the 200-bit sums, and the words are solved in the same subtrees,
    # from the same starts, serially, through the pool branch and in a
    # real pool.
    one = expand_spectrum(family, 8, tol=1e-10, workers=1)
    for point in one.points:
        iv, indices = point.interval, subset_of_word(point.word)
        assert iv.tier == "double"
        assert (oracles.ref_sum(family, indices, iv.lo, oracles.PREC) >= iv.cert_lo >= 1
                >= iv.cert_hi >= oracles.ref_sum(family, indices, iv.hi, oracles.PREC))
    real = expand_spectrum(family, 8, tol=1e-10, workers=2)
    monkeypatch.setattr(spectrum, "Pool", _SerialPool)
    assert expand_spectrum(family, 8, tol=1e-10, workers=2) == one == real


def test_a_table_evaluation_that_does_not_certify_falls_through(monkeypatch):
    # Handed half its double iterate, a word's first table point lies far
    # left of its root, so the table's evaluation there cannot certify;
    # the solve goes on from the iterate that step reached with the
    # word's own sums and ends at the same endpoints.
    class FarLeft(solver._CloudTables):
        def newton(self, sums, x, indices):
            return super().newton(sums, x / 2, indices)

    own = []  # evaluations of each solve's own sums, the base's first
    fixed_bounds = solver._fixed_bounds

    def counted(*args):
        sums, i = fixed_bounds(*args), len(own)
        own.append(0)

        def counting(s):
            own[i] += 1
            return sums(s)

        return counting

    fine = expand_spectrum(SQEXP, 8, tol=1e-20)
    ends = [(p.word, p.interval.lo, p.interval.hi) for p in fine.points]
    monkeypatch.setattr(spectrum, "_CloudTables", FarLeft)
    monkeypatch.setattr(solver, "_fixed_bounds", counted)
    coarse = expand_spectrum(SQEXP, 8, tol=1e-20)
    assert len(own) == len(coarse.points) + 1 and min(own) >= 1
    assert [(p.word, p.interval.lo, p.interval.hi) for p in coarse.points] == ends

    # A word that certifies from no table records no point, so no child
    # tried one above.  With the gate open, every child of a word that
    # did tries its parent's point, however far its root lies from
    # there; those that do not certify there are solved as any other
    # word, and the cloud ends at the same endpoints.
    tries, certified = [], []

    class Open(solver._CloudTables):
        def near(self, indices, b, lo):
            tries.append(indices)
            return True

        def inherit(self, parent, indices, lo):
            interval = super().inherit(parent, indices, lo)
            certified.extend([indices] if interval else [])
            return interval

    monkeypatch.setattr(spectrum, "_CloudTables", Open)
    monkeypatch.setattr(solver, "_fixed_bounds", fixed_bounds)
    opened = expand_spectrum(SQEXP, 8, tol=1e-20)
    assert 0 < len(certified) < len(tries)
    assert [(p.word, p.interval.lo, p.interval.hi) for p in opened.points] == ends


@pytest.mark.parametrize("family", [ContractionFamily.geometric(), ContractionFamily.type_three()],
                         ids=["geometric", "type-three"])
def test_a_cloud_whose_roots_lie_apart_makes_no_inherited_attempt(monkeypatch, family):
    # At tol 1e-20 every word is on the mpmath tier, but a geometric or
    # type-three word's root lies too far from its parent's for the
    # gate: no word tries its parent's point, and every point has the
    # ends, tier and precision of the word's own solve, with
    # certificates inside the 200-bit sums.
    gates = []

    class Spy(solver._CloudTables):
        def near(self, indices, b, lo):
            gates.append(super().near(indices, b, lo))
            return gates[-1]

    monkeypatch.setattr(spectrum, "_CloudTables", Spy)
    cloud = expand_spectrum(family, 8, tol=1e-20)
    assert gates and not any(gates)
    for point in cloud.points:
        iv, alone = point.interval, solve_dimension(family, point.word, tol=1e-20)
        assert ((iv.lo, iv.hi, iv.tier, iv.precision_bits)
                == (alone.lo, alone.hi, "mpmath", alone.precision_bits))
        indices = subset_of_word(point.word)
        assert (oracles.ref_sum(family, indices, iv.lo, oracles.PREC) >= iv.cert_lo >= 1
                >= iv.cert_hi >= oracles.ref_sum(family, indices, iv.hi, oracles.PREC))


def _counting_exps(monkeypatch):
    """Spy on families.power_enclosure (one exp a call) and return the
    list its calls are appended to."""
    calls = []
    enclosure = families.power_enclosure

    def counted(*args):
        calls.append(args)
        return enclosure(*args)

    monkeypatch.setattr(families, "power_enclosure", counted)
    return calls


def test_no_table_outlives_its_cloud(monkeypatch):
    # The cloud's tables live for one expand_spectrum call, so a second
    # identical call builds them all again: as many exps as the first.
    calls = _counting_exps(monkeypatch)
    counts = []
    for _ in range(2):
        calls.clear()
        expand_spectrum(SQEXP, 10)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


@pytest.mark.parametrize("depth,tol,exps", [(10, 2e-13, 16), (12, 5e-14, 32)])
def test_a_pinned_tol_above_the_double_tier_floor_still_inherits(monkeypatch, depth, tol, exps):
    # At a pinned tol at or above TOL_MIN_DOUBLE the words that escalate
    # certify from tables, and their children try the same points, so a
    # subtree that escalates builds a few tables, not one per escalating
    # word.  Every certificate lies inside the 200-bit sums.
    calls = _counting_exps(monkeypatch)
    cloud = expand_spectrum(SQEXP, depth, tol=tol)
    assert tol >= solver.TOL_MIN_DOUBLE and len(calls) <= exps
    assert {p.interval.tier for p in cloud.points} >= {"mpmath"}
    for point in cloud.points:
        iv, indices = point.interval, subset_of_word(point.word)
        assert (oracles.ref_sum(SQEXP, indices, iv.lo, oracles.PREC) >= iv.cert_lo >= 1
                >= iv.cert_hi >= oracles.ref_sum(SQEXP, indices, iv.hi, oracles.PREC))


def test_a_deep_cloud_fills_few_powers_and_decodes_no_word(monkeypatch):
    # A cloud table lists the symbols 1..depth, one run, so its rows
    # step from term to term: two powers filled per square-exponent
    # table, not a chain per symbol.  The words were validated once, so
    # their double-tier weights come off the family's row, with no
    # log2_ratio or check_index call per word.
    fills, decoded = [], []
    missing = families._Powers.__missing__

    def filled(self, k):
        fills.append(k)
        return missing(self, k)

    def spy(name):
        method = getattr(ContractionFamily, name)

        def counted(self, a):
            decoded.append(name)
            return method(self, a)

        return counted

    monkeypatch.setattr(families._Powers, "__missing__", filled)
    for name in ("log2_ratio", "check_index"):
        monkeypatch.setattr(ContractionFamily, name, spy(name))
    cloud = expand_spectrum(SQEXP, 11)
    assert len(fills) <= 300
    assert len(decoded) < len(cloud.points) == 512


def test_a_double_tier_cloud_starts_each_word_at_its_parent(monkeypatch):
    # A geometric depth-13 cloud is solved on the double tier.  Started
    # at its parent's lo, a word takes about 3.2 sum evaluations, all of
    # them Newton's, against 6.8 from 0; the base's and the auto tol's
    # pilot solve count too.
    evaluations = []
    double_bounds = solver._double_bounds

    def counted(*args):
        bounds = double_bounds(*args)

        def counting(s):
            evaluations.append(s)
            return bounds(s)

        return counting

    monkeypatch.setattr(solver, "_double_bounds", counted)
    cloud = expand_spectrum(ContractionFamily.geometric(), 13)
    assert {p.interval.tier for p in cloud.points} == {"double"}
    assert len(evaluations) <= 3.5 * len(cloud.points) == 3.5 * 2048


def test_a_cloud_reads_its_weights_once_per_subtree(monkeypatch):
    # Every word's double sums take their weights from its subtree's
    # _CloudTables, read once for the symbols 1..depth: a geometric
    # depth-13 cloud reads e(a) 13 times in each of its 8 subtrees, plus
    # 2 for the base, 13 for the auto tol's pilot and 1 for its gap, not
    # once per symbol of each word.
    calls = []
    base, e = families.NAMED_FAMILIES["geometric"]

    def counted(a):
        calls.append(a)
        return e(a)

    monkeypatch.setitem(families.NAMED_FAMILIES, "geometric", (base, counted))
    cloud = expand_spectrum(ContractionFamily.geometric(), 13)
    assert len(cloud.points) == 2048
    assert len(calls) <= (1 << spectrum.SPLIT_BITS) * 13 + 2 + 13 + 1


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=10), st.data())
def test_cloud_indices_and_levels_match_the_words(depth, data):
    # The words and their index tuples are built together, position by
    # position: the words are those with '1' at each base symbol, in
    # lexicographic order, and each tuple agrees with decoding its word.
    # The spacing constant reads each shared prefix off the words'
    # integer codes, which agrees with comparing the words.
    base = tuple(sorted(data.draw(st.sets(st.integers(1, depth), min_size=1))))
    pairs = spectrum._cloud_words(depth, base)
    words = [w for w, _ in pairs]
    assert words == ["".join(bits) for bits in product("01", repeat=depth)
                     if all(bits[i - 1] == "1" for i in base)]
    assert [s for _, s in pairs] == list(map(subset_of_word, words))
    for a, b in data.draw(st.lists(st.tuples(st.sampled_from(words), st.sampled_from(words)))):
        level = depth - (int(a, 2) ^ int(b, 2)).bit_length() + 1
        assert level == len(longest_common_prefix(a, b)) + 1
    mids = sorted(data.draw(st.lists(st.floats(0.0, 1.0), min_size=len(words),
                                     max_size=len(words))))
    order = data.draw(st.permutations(words))
    points = [spectrum.SpectrumPoint(w, DimensionInterval(m, m, 1e-10))
              for w, m in zip(order, mids)]
    base_mid = data.draw(st.floats(0.0, 1.0))
    best = 0.0
    for p, q in zip(points, points[1:]):
        gap = q.interval.mid - p.interval.mid
        if gap > 0.0:
            level = len(longest_common_prefix(p.word, q.word)) + 1
            best = max(best, gap / 2.0 ** (-base_mid * level * level))
    assert spectrum._spacing_constant(points, depth, base_mid) == (best if best > 0.0 else 1.0)


# (1.5, 2) used to run the (1, 2) cloud, and depth 4.7 depth 4
@pytest.mark.parametrize("depth,base", [(4, (1.5, 2)), (4.7, (1, 2))])
def test_non_integer_base_symbols_and_depth_are_config_errors(depth, base):
    with pytest.raises(ConfigError):
        expand_spectrum(SQEXP, depth, base_symbols=base)


def test_word_dimension_equals_subset_solve():
    assert solve_dimension(SQEXP, "11") == solve_dimension(SQEXP, (1, 2))


def test_branch_increment_example():
    bi = branch_increment(SQEXP, "11")
    assert bi.enclosure[0] > 0
    assert bi.enclosure[0] <= bi.child1.mid - bi.child0.mid <= bi.enclosure[1]
    assert 0.3 < bi.ratio < 1.5


def test_branch_increment_agrees_with_subset_increment():
    # the two children of w differ exactly by adjoining symbol len(w) + 1;
    # every word criterion 5 measures, lengths 2 to 8
    for length in range(2, 9):
        for m in range(1 << (length - 2)):
            w = "11" + format(m, f"0{length - 2}b") if length > 2 else "11"
            bi = branch_increment(SQEXP, w)
            assert (bi.enclosure, bi.child0, bi.child1) == increment(SQEXP, w, len(w) + 1), w


def test_branch_increment_below_the_float_spacing_says_no_tol_resolves_it():
    with pytest.raises(InsufficientPrecision, match="float endpoints .* cannot resolve"):
        branch_increment(SQEXP, "1" * 10)


@pytest.mark.parametrize("word", ["", "000"])
def test_branch_increment_of_a_word_selecting_nothing_is_a_config_error(word):
    # both children have dimension 0; this used to say no tol resolves it
    with pytest.raises(ConfigError, match="nonempty base"):
        branch_increment(SQEXP, word)


def test_geometric_cloud_is_coarser_than_square_exponent(cloud_cache):
    geo = expand_spectrum(ContractionFamily.geometric(), 6)
    sq = cloud_cache.cloud("square-exponent", 6)
    geo_span = max(geo.midpoints()) - min(geo.midpoints())
    sq_span = max(sq.midpoints()) - min(sq.midpoints())
    assert geo_span > sq_span
