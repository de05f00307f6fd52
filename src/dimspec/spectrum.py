"""Dimension spectra of coded subsystems.

A binary word selects a finite subsystem (position i carries symbol i
when the bit is 1).  Sweeping all words of a fixed length that extend a
small base set produces a cloud of certified dimension intervals: the
visible part of the dimension spectrum at that depth.

Increments shrink roughly like ratio(b)**s when symbol b toggles, so
clouds need rapidly finer tolerances at larger depths; tolerance
selection and the switch to the mpmath tier are automatic unless pinned
by the caller.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from itertools import chain, starmap

from .errors import CapExceeded, ConfigError, require_int
from .perturbation import increment
from .solver import (
    DEFAULT_TOL,
    DimensionInterval,
    _check_tol,
    _CloudTables,
    _indices,
    _solve,
    solve_dimension,
)

DEPTH_CAP = 16

# A cloud is solved as the subtrees of its first SPLIT_BITS free
# positions, whatever the worker count, so every word is solved the
# same way, certificates included, serially and in any pool.
SPLIT_BITS = 3


@dataclass(frozen=True)
class BranchIncrement:
    """Dimension step caused by switching on the next symbol.

    For a word w of length L the two children w+'0' and w+'1' select
    subsystems without and with symbol L+1.  ratio is the increment of
    midpoints normalised by ratio(L+1)**mid1, the natural scale of the
    step; enclosure is the certified interval for the raw increment.
    """

    word: str
    child0: DimensionInterval
    child1: DimensionInterval
    enclosure: tuple[float, float]
    normalizer: float
    ratio: float


def branch_increment(family, word) -> BranchIncrement:
    """Measure the dimension increment between the two children of word:
    increment(family, word, b) with b = len(word) + 1, since word + '0'
    selects the same symbols as word."""
    b = len(word) + 1
    enclosure, d0, d1 = increment(family, word, b)
    normalizer = family.term_double(b, d1.mid)
    return BranchIncrement(word, d0, d1, enclosure, normalizer, (d1.mid - d0.mid) / normalizer)


@dataclass(frozen=True)
class SpectrumPoint:
    word: str
    interval: DimensionInterval


@dataclass(frozen=True)
class SpectrumCloud:
    """Certified dimension cloud over all words extending a base set."""

    family: dict
    base_symbols: tuple[int, ...]
    depth: int
    tol: float
    points: tuple[SpectrumPoint, ...]
    base_dimension: DimensionInterval
    spacing_constant: float

    def midpoints(self):
        return [p.interval.mid for p in self.points]

    def covering_radius(self) -> float:
        """C * 2**(-s * depth**2) with s the base dimension midpoint."""
        s = self.base_dimension.mid
        return self.spacing_constant * 2.0 ** (-s * self.depth * self.depth)


def _cloud_words(depth: int, base_symbols: tuple[int, ...]) -> list[tuple[str, tuple[int, ...]]]:
    """(word, symbols) of every word of the given length with '1' at
    each base symbol, in lexicographic order, built position by
    position: each free position splits every word so far into the word
    without the symbol ('0') and then the word with it ('1')."""
    words = [("", ())]
    for i in range(1, depth + 1):
        split = (("1", (i,)),) if i in base_symbols else (("0", ()), ("1", (i,)))
        words = [(w + c, s + t) for w, s in words for c, t in split]
    return words


def _auto_tol(family, depth: int) -> float:
    """Pick a tolerance resolving the finest expected gap at this depth.

    The deepest toggled symbol contributes about ratio(depth)**s, with s
    near the dimension of the full selection; a sixteenth of that keeps
    adjacent cloud points certified apart.
    """
    pilot = solve_dimension(family, "1" * depth, tol=1e-9)
    gap = family.term_double(depth, pilot.lo)
    tol = gap / 16.0
    return min(DEFAULT_TOL, max(tol, 1e-60))


def _solve_subtree(family, base_symbols, depth, tol, start, words):
    """Intervals of the words of one subtree: index tuples in
    lexicographic order, so word m runs its last free positions through
    the binary digits of m.

    Word m's parent is word m & (m - 1): the word with its last free 1
    cleared, a subset, whose root lies left of its own.  Whatever the
    tier, word m's double Newton starts at its parent's lo, and word 0
    at start, a lower bound on the base's root.  The words share one
    _CloudTables: their double-tier weights and the points the words
    that reach the mpmath tier certified from, with a table at each.
    At any tol, a word whose parent recorded such a point first tries
    it (_CloudTables.inherit); one that does not certify there is
    solved as any other word.  A subtree that has recorded no point,
    as on every double-tier cloud, makes no such attempt.
    """
    tables = _CloudTables(family, base_symbols, depth, tol)
    solved = []
    for m, indices in enumerate(words):
        parent = m & (m - 1)
        lo = solved[parent].lo if m else start
        interval = tables.inherit(words[parent], indices, lo) if tables.points else None
        solved.append(interval or _solve(family, indices, tol, None, lo, tables))
    return solved


def Pool(processes):
    """multiprocessing.Pool(processes), imported on the first pool a
    cloud opens, so that a serial cloud and the CLI never load
    multiprocessing."""
    from multiprocessing import Pool

    return Pool(processes=processes)


def _spacing_constant(points, depth: int, base_mid: float) -> float:
    """Max over adjacent pairs of gap / 2**(-s*(l+1)**2), l = shared
    prefix length, read off the words as integers: two words of length
    depth first differ at position depth - (a ^ b).bit_length() + 1.
    A fitted measurement, not a guarantee: it calibrates the covering
    radius formula against the realised gaps."""
    best = 0.0
    codes = [int(p.word, 2) for p in points]
    for p, q, a, b in zip(points, points[1:], codes, codes[1:]):
        gap = q.interval.mid - p.interval.mid
        if gap <= 0.0:
            continue
        level = depth - (a ^ b).bit_length() + 1
        denom = 2.0 ** (-base_mid * level * level)
        best = max(best, gap / denom)
    return best if best > 0.0 else 1.0


def expand_spectrum(family, depth, base_symbols=(1, 2), tol=None, workers=1) -> SpectrumCloud:
    """Certified dimension intervals for every word extending the base.

    base_symbols is a non-empty subset in any form that solve_dimension
    takes except the full selector ('full' or None), which is a
    ConfigError for every family.  Words have the given length, carry
    '1' at each base symbol and run through all assignments elsewhere
    (2**(depth - len(base)) points, lexicographic generation, sorted by
    midpoint).  Deterministic for any worker count: the words are
    solved in the fixed subtrees of _solve_subtree, serially or in the
    pool alike.  workers > 1 solves the subtrees in a process pool of at
    most os.cpu_count() processes.
    """
    depth = require_int(depth, "depth")
    workers = require_int(workers, "workers")
    if workers < 1:
        raise ConfigError(f"workers must be at least 1, got {workers}")
    full = base_symbols is None or isinstance(base_symbols, str) and base_symbols == "full"
    base_symbols = None if full else _indices(family, base_symbols)
    if not base_symbols:
        raise ConfigError("the base must list at least one symbol explicitly")
    if depth < base_symbols[-1]:
        raise ConfigError(f"depth {depth} cannot hold base symbol {base_symbols[-1]}")
    if depth > DEPTH_CAP:
        raise CapExceeded(f"spectrum depth {depth} exceeds cap {DEPTH_CAP}")
    # Each word goes to the solver as the positions of its 1 bits, which
    # are valid symbols once the deepest is, so no word is decoded and
    # validated again, in the pool either.  The auto tol's pilot solve
    # reads every symbol up to depth, so the check comes first.
    family.check_index(depth)

    if tol is None:
        tol = _auto_tol(family, depth)
    else:
        _check_tol(tol)
    base_dim = solve_dimension(family, base_symbols, tol=min(1e-10, tol * 16))

    words = _cloud_words(depth, base_symbols)
    size = len(words) >> min(SPLIT_BITS, depth - len(base_symbols))
    jobs = [(family, base_symbols, depth, tol, base_dim.lo, [s for _, s in words[i:i + size]])
            for i in range(0, len(words), size)]
    if workers > 1 and len(words) >= 8:
        with Pool(processes=min(workers, os.cpu_count() or 1)) as pool:
            solved = pool.starmap(_solve_subtree, jobs)
    else:
        solved = starmap(_solve_subtree, jobs)

    pts = [SpectrumPoint(word=w, interval=iv)
           for (w, _), iv in zip(words, chain.from_iterable(solved))]
    pts.sort(key=lambda p: (p.interval.mid, p.word))
    spacing = _spacing_constant(pts, depth, base_dim.mid)
    return SpectrumCloud(
        family=family.describe(),
        base_symbols=base_symbols,
        depth=depth,
        tol=tol,
        points=tuple(pts),
        base_dimension=base_dim,
        spacing_constant=spacing,
    )
