"""Exact geometry of rays and ray partitions of N^k x [n].

Coordinates are positive integers (N starts at 1).  A ray is the subset of
N^k cut out by a base point and a set of free directions: coordinates in the
direction set range over [base_j, oo), all others are pinned to base_j.  A
0-dimensional ray is a point, a k-dimensional ray a translated orthant.

Rays are closed under intersection and split cleanly along any free
direction, which makes finite unions of disjoint rays (regions) and finite
partitions into rays exactly computable.  The normal form used throughout is
the *grid form*: for a threshold t >= 0 the cells with all fixed coordinates
in [1, t] and all free coordinates starting at t+1 partition N^k into
(t+1)^k rays, every grid refines all coarser grids, and any ray whose base
is small enough relative to t is a union of t-cells.  Canonicalising a
region means writing it as the set of cells of the minimal adequate grid.

This module is the one owner of the grid layer.  Overlap, cover and canonical
forms are read off grid cells named by their least points: ``_cell_bases``
lists a ray's cells on per-coordinate cuts, either the threshold grid or the
grid ``_cuts_for`` fits to a set of rays, whose size does not grow with the
bases.  ``_disjoint_cover`` decides overlap and cover on one set of fitted
cells, for ``Region`` and for ``houghton.validate``; only on a fault are the
``_cell_sets`` built, one set per ray, from which ``_overlapping_pair`` and
``_partition_fault`` name it.  ``_label_cells`` labels the fitted cells, and
canonical pieces ``((MarkedRay, label), ...)`` are read off them, or off any
labelled grid with cuts from 1, after one shared search for the minimal
threshold t* (``_grid_top``).  A map's grid labels every cell of its copies
(``houghton.compose`` labels a grid of its own), so ``_full_grid`` reads its
table off ``_grid_template``: the t*-cells of each copy, built once per
(k, t*, copy) in a bounded cache and shared by the pieces of every map on that
grid, each labelled through the largest cut below its base; it builds no cell
and sorts nothing.  Regions keep their own reader, ``_canonical_grid``, which
builds and sorts only the cells of their output (a canonical region's cells or
a complement's gaps), far fewer than the t*-grid can hold.  Vertex enumeration
in ``complexes`` reads image cells (``_cell_bases`` on the cuts 1..2B+1) and
tables off a template it builds once per (k, B) from ``grid_cells`` and
``_grid_template``.

Values from outside are checked once, where they enter; values hforge builds
itself are built unchecked and never validated again.  The JSON parsers take
integers only, the constructors check coordinates, directions and copies, and
``Region`` checks that its rays are disjoint (a region of fewer than two rays
fits no cuts).  ``houghton``'s element reader tests the same fields in one
pass and builds its rays with ``_ray`` and ``_marked``; it leaves input that
fails a test to the parsers here, for their messages.  The grid code takes
rays as already checked: ``_canonical_cells`` and ``_complement_cells`` work
on bare rays and build no ``Region``, so a complement or a canonical form
builds one ``Region``, its result.  The cells it builds itself, and the
template's, skip the constructors' checks (``_ray``, ``_marked``).

All values are immutable and all functions are pure; everything is safe to
share between threads.
"""
from __future__ import annotations

import itertools
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .errors import ValidationError

__all__ = [
    "Ray",
    "MarkedRay",
    "Region",
    "RayPartition",
    "PartitionDiagnostics",
    "ray_intersect",
    "ray_split",
    "marked_intersect",
    "grid_partition",
    "grid_cells",
    "cell_of_point",
    "common_refinement",
    "region_complement",
    "partition_validate",
    "canonicalize_region",
    "region_equal",
    "ray_to_json",
    "ray_from_json",
    "marked_ray_to_json",
    "marked_ray_from_json",
    "region_to_json",
    "region_from_json",
]


def _not_int(x) -> bool:
    """True unless ``x`` is an int and not a bool, which Python counts as one."""
    return not isinstance(x, int) or isinstance(x, bool)


def _check_coords(coords: tuple[int, ...]) -> None:
    if not coords:
        raise ValidationError("points need at least one coordinate")
    for c in coords:
        if _not_int(c) or c < 1:
            raise ValidationError(f"coordinates must be integers >= 1, got {coords!r}")


@dataclass(frozen=True, slots=True)
class Ray:
    """A ray of N^k: free directions ``dirs`` above ``base``, rest pinned.

    Denotes { y : y_j >= base_j for j in dirs, y_j = base_j otherwise }.
    """

    base: tuple[int, ...]
    dirs: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_coords(self.base)
        k = len(self.base)
        prev = 0
        for j in self.dirs:
            if _not_int(j) or j <= prev or j > k:
                raise ValidationError(
                    f"dirs must be strictly increasing within 1..{k}, got {self.dirs!r}"
                )
            prev = j

    @property
    def k(self) -> int:
        return len(self.base)

    @property
    def dim(self) -> int:
        return len(self.dirs)

    @property
    def is_full(self) -> bool:
        return len(self.dirs) == len(self.base)

    @property
    def threshold(self) -> int:
        """Least t such that this ray is a union of t-grid cells.

        Free coordinates may start at t+1, fixed ones must lie in [1, t].
        """
        t = 0
        free = set(self.dirs)
        for j, b in enumerate(self.base, start=1):
            t = max(t, b - 1 if j in free else b)
        return t

    def contains(self, point: tuple[int, ...]) -> bool:
        if len(point) != self.k:
            raise ValidationError(
                f"dimension mismatch: point of length {len(point)} in N^{self.k}"
            )
        free = set(self.dirs)
        for j, (p, b) in enumerate(zip(point, self.base), start=1):
            if j in free:
                if p < b:
                    return False
            elif p != b:
                return False
        return True

    def translate(self, offset: tuple[int, ...]) -> "Ray":
        if len(offset) != self.k:
            raise ValidationError("offset dimension mismatch")
        moved = tuple(b + d for b, d in zip(self.base, offset))
        if any(c < 1 for c in moved):
            raise ValidationError(
                f"translation by {offset} moves base {self.base} outside N^{self.k}"
            )
        return Ray(moved, self.dirs)

    def sort_key(self) -> tuple:
        return (self.dirs, self.base)


@dataclass(frozen=True, slots=True)
class MarkedRay:
    """A ray inside a specific copy of N^k within N^k x [n]."""

    ray: Ray
    copy: int

    def __post_init__(self) -> None:
        if _not_int(self.copy) or self.copy < 1:
            raise ValidationError(f"copy index must be >= 1, got {self.copy!r}")

    def contains(self, point: tuple[int, ...], copy: int) -> bool:
        return copy == self.copy and self.ray.contains(point)

    def sort_key(self) -> tuple:
        return (self.copy, self.ray.dirs, self.ray.base)


_set_base, _set_dirs = Ray.base.__set__, Ray.dirs.__set__
_set_ray, _set_copy = MarkedRay.ray.__set__, MarkedRay.copy.__set__


def _ray(base: tuple[int, ...], dirs: tuple[int, ...]) -> Ray:
    """``Ray(base, dirs)`` without ``__post_init__``, for grid code whose positive
    coordinates and increasing directions hold by construction."""
    r = object.__new__(Ray)
    _set_base(r, base)
    _set_dirs(r, dirs)
    return r


def _marked(ray: Ray, copy: int) -> MarkedRay:
    """``MarkedRay(ray, copy)`` without ``__post_init__``, for a copy already known to be >= 1."""
    m = object.__new__(MarkedRay)
    _set_ray(m, ray)
    _set_copy(m, copy)
    return m


def ray_intersect(r1: Ray, r2: Ray) -> Ray | None:
    """Intersection of two rays; None when empty.

    The result has direction set dirs(r1) & dirs(r2).  A coordinate fixed in
    one ray must satisfy the other ray's constraint on it; a coordinate free
    in both starts at the larger base.
    """
    if r1.k != r2.k:
        raise ValidationError("dimension mismatch between rays")
    free1, free2 = set(r1.dirs), set(r2.dirs)
    base: list[int] = []
    dirs: list[int] = []
    for j, (b1, b2) in enumerate(zip(r1.base, r2.base), start=1):
        in1, in2 = j in free1, j in free2
        if in1 and in2:
            dirs.append(j)
            base.append(max(b1, b2))
        elif in1:
            if b2 < b1:
                return None
            base.append(b2)
        elif in2:
            if b1 < b2:
                return None
            base.append(b1)
        else:
            if b1 != b2:
                return None
            base.append(b1)
    return Ray(tuple(base), tuple(dirs))


def marked_intersect(m1: MarkedRay, m2: MarkedRay) -> MarkedRay | None:
    if m1.copy != m2.copy:
        return None
    inner = ray_intersect(m1.ray, m2.ray)
    return None if inner is None else MarkedRay(inner, m1.copy)


def ray_split(r: Ray, j: int) -> tuple[Ray, Ray]:
    """Split ``r`` along free direction ``j`` into (slice, rest).

    The slice pins coordinate j to the base value, the rest starts one step
    further out; the two are disjoint and their union is ``r``.
    """
    if j not in r.dirs:
        raise ValidationError(f"direction {j} is not free in {r}")
    child = Ray(r.base, tuple(d for d in r.dirs if d != j))
    shifted = tuple(b + (1 if i == j else 0) for i, b in enumerate(r.base, start=1))
    return child, Ray(shifted, r.dirs)


# -- grid machinery ---------------------------------------------------------


@lru_cache(maxsize=32)
def grid_cells(k: int, t: int) -> tuple[Ray, ...]:
    """All cells of the threshold-t grid of N^k, in canonical order.

    Each base point in [1, t+1]^k gives one cell, whose free directions are
    the coordinates equal to t+1; there are (t+1)^k cells and they
    partition N^k.
    """
    if k < 1 or t < 0:
        raise ValidationError("need k >= 1 and t >= 0")
    bases = itertools.product(range(1, t + 2), repeat=k)
    return tuple(sorted((cell_of_point(base, t) for base in bases), key=Ray.sort_key))


def cell_of_point(point: tuple[int, ...], t: int) -> Ray:
    """The unique threshold-t grid cell containing ``point``."""
    dirs = tuple(j for j, p in enumerate(point, start=1) if p >= t + 1)
    base = tuple(min(p, t + 1) for p in point)
    return Ray(base, dirs)


def _cell_bases(ray: Ray, cuts: Sequence[Sequence[int]]) -> Iterator[tuple[int, ...]]:
    """Least points, in lexicographic order, of the cells whose union is ``ray``.

    Cells are products of the intervals between consecutive cuts of each
    coordinate.  A free coordinate takes every cut from its base on, a
    pinned one keeps its base; the cuts must hold b for every base and b+1
    for every pinned one.
    """
    dirs = ray.dirs
    return itertools.product(*[
        cut[bisect_left(cut, b):] if j in dirs else (b,)
        for j, b, cut in zip(itertools.count(1), ray.base, cuts)
    ])


def _cuts_for(k: int, rays: Iterable[Ray]) -> tuple[list[int], ...]:
    """Cuts at 1, every base value and one past every pinned base, per coordinate; the
    largest is t+1 for the largest threshold t of the rays (t = 0 for none)."""
    cuts = [{1} for _ in range(k)]
    for ray in rays:
        for j, b in enumerate(ray.base, start=1):
            cuts[j - 1].add(b)
            if j not in ray.dirs:
                cuts[j - 1].add(b + 1)
    return tuple(sorted(c) for c in cuts)


def _cell_sets(k: int, groups: Sequence[Sequence[MarkedRay]]) -> tuple[tuple, list[frozenset]]:
    """The cuts ``_cuts_for`` fits to all rays of ``groups``, and each group's
    ``(copy, base)`` cells on them; two groups meet exactly when their sets do."""
    cuts = _cuts_for(k, (m.ray for group in groups for m in group))
    return cuts, [
        frozenset((m.copy, base) for m in group for base in _cell_bases(m.ray, cuts))
        for group in groups
    ]


def _disjoint_cover(k: int, n: int, rays: Sequence[MarkedRay]) -> tuple[bool, bool]:
    """Whether ``rays`` are pairwise disjoint, and whether they also cover N^k x [n], decided
    on one set of ``(copy, base)`` cells on the ``_cuts_for`` cuts: fewer distinct cells than
    the rays list is an overlap, and disjoint rays cover when there are n times the grid's.
    """
    cuts = _cuts_for(k, (m.ray for m in rays))
    keys = [(m.copy, base) for m in rays for base in _cell_bases(m.ray, cuts)]
    cells = len(set(keys))
    return cells == len(keys), cells == len(keys) == n * math.prod(map(len, cuts))


def _disjoint_masks(cells: list[frozenset]) -> Iterator[int]:
    """One neighbour bitmask per ``_cell_sets`` set, in order, formed lazily.  A cell's owner
    mask has bit i set when group i holds it; bit j of group i's mask is set when the OR of
    the owner masks of i's cells misses bit j, that is when groups i and j share no cell."""
    owners: dict = {}
    for i, group in enumerate(cells):
        bit = 1 << i
        for cell in group:
            owners[cell] = owners.get(cell, 0) | bit
    everyone = (1 << len(cells)) - 1
    for group in cells:
        met = 0
        for cell in group:
            met |= owners[cell]
        yield everyone ^ met


def _overlapping_pair(rays: Sequence, cells: list[frozenset]) -> tuple | None:
    """The first pair of ``rays`` (or groups) in ``combinations`` order whose ``cells`` meet: the
    lowest i whose mask misses a bit above i, and the lowest such j, so (0, 3) before (1, 2)."""
    everyone = (1 << len(cells)) - 1
    if sum(map(len, cells)) > len(frozenset().union(*cells)):
        for i, mask in enumerate(_disjoint_masks(cells)):
            if above := (everyone ^ mask) >> (i + 1):
                return rays[i], rays[i + (above & -above).bit_length()]
    return None


def _label_cells(k: int, pieces: Iterable[tuple[MarkedRay, object]]) -> tuple[tuple, dict]:
    """The ``_cuts_for`` cuts of the pieces' rays and ``{(copy, base): label}`` on them;
    no label is None.  A label may repeat on a cell; two raise, naming the first such
    cell in piece order as the threshold cell at its base, for t+1 the largest cut."""
    pieces = tuple(pieces)
    cuts = _cuts_for(k, (m.ray for m, _ in pieces))
    labels: dict = {}
    for m, label in pieces:
        for base in _cell_bases(m.ray, cuts):
            if labels.setdefault((m.copy, base), label) != label:
                cell = cell_of_point(base, max(cut[-1] for cut in cuts) - 1)
                raise ValidationError(f"domain pieces overlap on copy {m.copy} at {cell}")
    return cuts, labels


def _grid_top(cuts: tuple, labels: dict) -> int:
    """t* + 1 for the minimal threshold t* of a labelled grid.

    The sorted ``cuts`` start at 1; ``labels`` maps ``(copy, base)`` cells of their product
    to labels.  A level merges exactly when no coordinate changes label between t and t+1,
    so t* + 1 is the largest cut, or 1, across which a cell and its neighbour differ, a
    missing cell reading None.  Labels are compared by identity first: cells of one piece
    share their label object.
    """
    below = [dict(zip(cut[1:], cut)) for cut in cuts]
    above = [dict(zip(cut, cut[1:])) for cut in cuts]
    last, top = max(cut[-1] for cut in cuts), 1
    for (copy, base), label in labels.items():
        if top == last:
            break
        for j, b in enumerate(base):
            for d in (below[j].get(b), above[j].get(b)):
                if d is not None and max(b, d) > top:
                    other = labels.get((copy, base[:j] + (d,) + base[j + 1:]))
                    if other is not label and other != label:
                        top = max(b, d)
    return top


# One `group` benchmark pass reads tables on 48 distinct (k, t, copy) grids (seeds 1-3).
@lru_cache(maxsize=64)
def _grid_template(k: int, t: int, copy: int) -> tuple[MarkedRay, ...]:
    """The cells of ``grid_cells(k, t)`` on ``copy``, in order, as unchecked ``MarkedRay``s:
    built once and shared by the pieces of every table on that grid."""
    return tuple(_marked(cell, copy) for cell in grid_cells(k, t))


def _full_grid(cuts: tuple, labels: dict, m: int) -> tuple[int, tuple]:
    """Minimal threshold t* of a labelled grid that labels every cell of copies 1..m, a
    map's, and its t*-cells as pieces ``((MarkedRay, label), ...)`` in ``(copy, dirs, base)``
    order: the cells of ``_grid_template`` for t*, copy by copy, each with the label of the
    cell holding its base.  That cell's base is the largest cut <= each coordinate, read once
    per call; where every coordinate cuts at each of 1..t*+1 it is the base itself.  The
    ``MarkedRay``s are the template's own, so no cell is built and nothing is sorted.
    """
    k, top = len(cuts), _grid_top(cuts, labels)
    bases = [cell.base for cell in grid_cells(k, top - 1)]
    if not all(len(cut) >= top and cut[top - 1] == top for cut in cuts):
        # fits[j][p]: the largest cut of coordinate j that is <= p, for p in 1..top
        fits = [[0] + [cut[bisect_right(cut, p) - 1] for p in range(1, top + 1)] for cut in cuts]
        bases = [tuple(map(list.__getitem__, fits, base)) for base in bases]
    pieces = []
    for copy in range(1, m + 1):
        pieces += zip(_grid_template(k, top - 1, copy),
                      map(labels.__getitem__, zip(itertools.repeat(copy), bases)))
    return top - 1, tuple(pieces)


def _canonical_grid(cuts: tuple, labels: dict, keys: Iterable[tuple]) -> tuple[int, tuple]:
    """Minimal threshold t* of a labelled grid and the t*-cells of its cells ``keys``,
    as pieces ``((MarkedRay, label), ...)`` in ``(copy, dirs, base)`` order.

    The reader of regions, whose ``keys`` (a canonical region's cells or a complement's
    gaps) may cover far less than the t*-grid; a map's table, which labels every cell, is
    read by ``_full_grid``.  t* comes from ``_grid_top``.  A t*-cell takes the label of the
    cell holding its base; the threshold grid is built only for output cells.  The rays are
    built unchecked (``_ray``, ``_marked``): a point of the spans is a product of values
    from cuts >= 1, and its free directions are listed in increasing order.
    """
    top = _grid_top(cuts, labels)
    # spans[j][c]: the t*-grid values of coordinate j in the fitted interval from cut c
    spans = [{c: range(c, min(d, top + 1)) for c, d in zip(cut, cut[1:] + [top + 1])}
             for cut in cuts]
    cells = []
    for copy, base in keys:
        label = labels.get((copy, base))
        for point in itertools.product(*(span[b] for span, b in zip(spans, base))):
            cells.append((copy, tuple(j for j, p in enumerate(point, 1) if p == top), point, label))
    cells.sort()  # (copy, dirs, base) names a cell, so labels are never compared
    return top - 1, tuple((_marked(_ray(base, dirs), copy), label)
                          for copy, dirs, base, label in cells)


# -- regions ----------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Region:
    """A finite disjoint union of marked rays inside N^k x [n]."""

    k: int
    n: int
    rays: tuple[MarkedRay, ...]

    def __post_init__(self) -> None:
        if any(_not_int(x) or x < 1 for x in (self.k, self.n)):
            raise ValidationError("ambient needs k >= 1 and n >= 1")
        for m in self.rays:
            if m.ray.k != self.k:
                raise ValidationError(f"ray {m} does not live in N^{self.k}")
            if m.copy > self.n:
                raise ValidationError(f"copy {m.copy} exceeds ambient copy count {self.n}")
        if len(self.rays) > 1 and not _disjoint_cover(self.k, self.n, self.rays)[0]:
            pair = _overlapping_pair(self.rays, _cell_sets(self.k, [(m,) for m in self.rays])[1])
            raise ValidationError(f"region rays overlap: {pair[0]} and {pair[1]}")

    @classmethod
    def full(cls, k: int, n: int) -> "Region":
        full_ray = Ray((1,) * k, tuple(range(1, k + 1)))
        return cls(k, n, tuple(MarkedRay(full_ray, c) for c in range(1, n + 1)))

    @property
    def is_empty(self) -> bool:
        return not self.rays

    @property
    def threshold(self) -> int:
        return max((m.ray.threshold for m in self.rays), default=0)

    def contains(self, point: tuple[int, ...], copy: int) -> bool:
        return any(m.contains(point, copy) for m in self.rays)


@dataclass(frozen=True, slots=True)
class RayPartition:
    """A region together with a decomposition into disjoint covering rays."""

    region: Region
    cells: tuple[MarkedRay, ...]

    def __post_init__(self) -> None:
        for m in self.cells:
            if m.ray.k != self.region.k or m.copy > self.region.n:
                raise ValidationError(f"cell {m} outside ambient of {self.region}")


@dataclass(frozen=True, slots=True)
class PartitionDiagnostics:
    ok: bool
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def grid_partition(k: int, t: int, n: int) -> RayPartition:
    """Partition N^k x [n] into the n*(t+1)^k cells of the threshold-t grid."""
    if t < 0:
        raise ValidationError("threshold must be >= 0")
    cells = tuple(
        MarkedRay(cell, copy)
        for copy in range(1, n + 1)
        for cell in grid_cells(k, t)
    )
    return RayPartition(Region.full(k, n), cells)


def partition_validate(p: RayPartition) -> PartitionDiagnostics:
    """Check disjointness and exact coverage of the region by the cells."""
    why = _partition_fault(p.region.k, p.cells, p.region.rays)
    return PartitionDiagnostics(why is None, why)


def _partition_fault(
    k: int, cells: Sequence[MarkedRay], region: Sequence[MarkedRay]
) -> str | None:
    """What keeps ``cells`` from partitioning the disjoint rays ``region``, or None, read
    off their ``_cell_sets`` on one grid: the first pair of cells that meet, a cell at its
    least base outside the region, or the threshold cell (t+1 the largest cut) at the least
    base no cell holds, copy by copy, which a walk over the threshold grid finds first."""
    cuts, sets = _cell_sets(k, [(m,) for m in (*cells, *region)])
    own, held = sets[: len(cells)], sets[len(cells):]
    if (pair := _overlapping_pair(cells, own)) is not None:
        return f"cells overlap: {pair[0]} and {pair[1]}"
    inside, covered = frozenset().union(*held), frozenset().union(*own)
    for m, keys in sorted(zip(cells, own), key=lambda item: item[0].copy):
        if not keys <= inside:
            return f"cell {m.ray} on copy {m.copy} leaves the region near {min(keys - inside)[1]}"
    for m, keys in sorted(zip(region, held), key=lambda item: item[0].copy):
        if not keys <= covered:
            gap = cell_of_point(min(keys - covered)[1], max(cut[-1] for cut in cuts) - 1)
            return f"uncovered cell {gap} on copy {m.copy}"
    return None


def common_refinement(p1: RayPartition, p2: RayPartition) -> RayPartition:
    """All nonempty pairwise intersections of cells; refines both inputs."""
    if not region_equal(p1.region, p2.region):
        raise ValidationError("partitions cover different regions")
    cells = []
    for a in p1.cells:
        for b in p2.cells:
            both = marked_intersect(a, b)
            if both is not None:
                cells.append(both)
    cells.sort(key=MarkedRay.sort_key)
    return RayPartition(p1.region, tuple(cells))


def _canonical_cells(rays: Iterable[MarkedRay]) -> tuple[int, tuple[MarkedRay, ...]]:
    """Minimal grid threshold t* and the t*-cells whose union is ``rays``.

    The cells are read off the grid fitted to the rays, so the result is
    independent of how the union was presented.
    """
    rays = tuple(rays)
    if not rays:
        return 0, ()
    cuts, labels = _label_cells(rays[0].ray.k, ((m, True) for m in rays))
    t, pieces = _canonical_grid(cuts, labels, labels)
    return t, tuple(m for m, _ in pieces)


def canonicalize_region(reg: Region) -> Region:
    """Representation-independent normal form: minimal-grid cells in order."""
    _, cells = _canonical_cells(reg.rays)
    return Region(reg.k, reg.n, cells)


def region_equal(a: Region, b: Region) -> bool:
    if a.k != b.k or a.n != b.n:
        return False
    return _canonical_cells(a.rays)[1] == _canonical_cells(b.rays)[1]


def _complement_cells(k: int, n: int, rays: Iterable[MarkedRay]) -> tuple[MarkedRay, ...]:
    """The minimal-grid cells of N^k x [n] that no ray contains, in canonical order."""
    cuts, labels = _label_cells(k, ((m, True) for m in rays))
    gaps = (key for key in itertools.product(range(1, n + 1), itertools.product(*cuts))
            if key not in labels)
    return tuple(m for m, _ in _canonical_grid(cuts, labels, gaps)[1])


def region_complement(reg: Region) -> Region:
    """N^k x [n] minus the region, in canonical grid form."""
    return Region(reg.k, reg.n, _complement_cells(reg.k, reg.n, reg.rays))


# -- JSON encoding ----------------------------------------------------------


def ray_to_json(r: Ray) -> dict:
    return {"base": list(r.base), "dirs": list(r.dirs)}


def _json_int(data: dict, field: str) -> int:
    """``data[field]`` when it is a JSON integer; bools, floats and strings are rejected."""
    value = data[field]
    if _not_int(value):
        raise ValidationError(f"field {field!r} must be an integer, got {value!r}")
    return value


def _json_ints(data: dict, field: str) -> tuple[int, ...]:
    """``data[field]`` as a tuple when every entry is a JSON integer."""
    values = tuple(data[field])
    if any(map(_not_int, values)):
        raise ValidationError(f"field {field!r} must hold integers, got {data[field]!r}")
    return values


def ray_from_json(data: dict) -> Ray:
    try:
        base = _json_ints(data, "base")
        dirs = tuple(sorted(_json_ints(data, "dirs")))
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed ray object: {data!r}") from exc
    return Ray(base, dirs)


def marked_ray_to_json(m: MarkedRay) -> dict:
    out = ray_to_json(m.ray)
    out["copy"] = m.copy
    return out


def marked_ray_from_json(data: dict) -> MarkedRay:
    if "copy" not in data:
        raise ValidationError(f"marked ray needs a copy index: {data!r}")
    return MarkedRay(ray_from_json(data), _json_int(data, "copy"))


def region_to_json(reg: Region) -> dict:
    canon = canonicalize_region(reg)
    return {
        "k": canon.k,
        "n": canon.n,
        "rays": [marked_ray_to_json(m) for m in canon.rays],
    }


def region_from_json(data: dict) -> Region:
    try:
        k, n = _json_int(data, "k"), _json_int(data, "n")
        rays = tuple(marked_ray_from_json(r) for r in data["rays"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed region object: {data!r}") from exc
    return Region(k, n, rays)
