"""The multidimensional Houghton groups and their morphism category.

An element of the twisted group acting on N^k x [n] is stored as a finite
list of pieces: a partition of the domain into marked rays together with one
translation per ray (an offset in Z^k plus an absolute target copy).  The
same data with m domain copies and n >= m codomain copies encodes a ray
injection N^k x [m] -> N^k x [n]; the bijective m = n case is a group
element.

Equality, composition and inversion are exact.  Every map has a canonical
form: the coarsest grid of the domain on which it is a translation per cell.
Pointwise equality of maps is equality of canonical forms.  A composition
labels one grid of the first map's domain, cut also where the second map's
grid cuts it once pulled back by an offset, and reads its canonical form off
those labels.

A map's canonical table is ``(t, pieces)``: its canonical threshold and its
canonical pieces ``((MarkedRay, Translation), ...)``, one per t-cell in
``(copy, dirs, base)`` order.  A map read off canonical cells (by ``compose``,
``inverse``, ``canonical_form`` or vertex enumeration) is built by
``_map_of_cells`` and holds its table's tuple as its pieces.  A map that comes
from outside gets its table from one LRU cache of ``_CANONICAL_CACHE_SIZE``
maps on its first lookup, and keeps it.  The grid work is done by ``rays``:
every table, whether of ``compose``, of ``inverse`` or of a map from outside, is
read off ``rays._full_grid``, whose pieces are the cells of one shared per-(k, t)
grid template, so the pieces of different maps share their ``MarkedRay``s and
no table builds a cell or sorts one.  ``compose`` builds one ``Translation`` per
pair of factor labels that meet, not one per cell of its grid.
Values from outside are checked once, where they enter, and maps hforge builds
itself are built unchecked and never validated again.  The constructors check
fields; ``validate``, the one check of a whole map, runs on maps from JSON
(``map_from_json``) and on those handed to the public functions that need a
valid map.  Arithmetic relies on the table's own check, which rejects
overlapping or missing domain pieces.  The cells, translations and maps that
arithmetic and the seeded generators build skip ``__post_init__``.  So do the
pieces and map of an element read from JSON: ``_parse_map`` tests each field
once and builds them unchecked, and hands any input that fails a test to the
constructors, whose messages name the fault.

Everything is immutable and pure; seeded generators are deterministic.
"""
from __future__ import annotations

import itertools
import math
import operator
import random
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import ValidationError
from .rays import (
    MarkedRay,
    Ray,
    RayPartition,
    Region,
    _cell_sets,
    _complement_cells,
    _disjoint_cover,
    _full_grid,
    _json_int,
    _json_ints,
    _label_cells,
    _marked,
    _not_int,
    _overlapping_pair,
    _partition_fault,
    _ray,
    cell_of_point,
    grid_cells,
    marked_ray_from_json,
    ray_split,
    region_equal,
)

__all__ = [
    "Translation",
    "HoughtonMap",
    "PermutationN",
    "MapDiagnostics",
    "identity_map",
    "validate",
    "apply_map",
    "compose",
    "inverse",
    "equals",
    "canonical_form",
    "canonical_threshold",
    "image_region",
    "sigma_projection",
    "in_kernel",
    "embed_symmetric",
    "decompose",
    "translation_vector",
    "k_ray_offsets",
    "eventual_translation_check",
    "fi_map",
    "extend_to_automorphism",
    "restrict",
    "same_subobject",
    "complement_subobject",
    "random_element",
    "random_injection",
    "map_to_json",
    "map_from_json",
]


@dataclass(frozen=True, slots=True)
class Translation:
    """Translate by ``offset`` and move to ``target_copy``."""

    offset: tuple[int, ...]
    target_copy: int

    def __post_init__(self) -> None:
        if _not_int(self.target_copy) or self.target_copy < 1:
            raise ValidationError(f"target copy must be >= 1, got {self.target_copy!r}")
        if not self.offset or any(map(_not_int, self.offset)):
            raise ValidationError(f"offset must be a nonempty integer vector, got {self.offset!r}")


_set_offset, _set_target = Translation.offset.__set__, Translation.target_copy.__set__


def _translation(offset: tuple[int, ...], target_copy: int) -> Translation:
    """``Translation(offset, target_copy)`` without ``__post_init__``, for arithmetic on
    valid maps, whose offsets are integer vectors and whose copies are >= 1."""
    tr = object.__new__(Translation)
    _set_offset(tr, offset)
    _set_target(tr, target_copy)
    return tr


@dataclass(frozen=True, slots=True)
class PermutationN:
    """A permutation of [n], stored as the tuple of images."""

    images: tuple[int, ...]

    def __post_init__(self) -> None:
        n = len(self.images)
        if any(map(_not_int, self.images)) or sorted(self.images) != list(range(1, n + 1)):
            raise ValidationError(f"not a permutation of [{n}]: {self.images!r}")

    @classmethod
    def identity(cls, n: int) -> "PermutationN":
        return cls(tuple(range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        return self.images[i - 1]

    def compose(self, other: "PermutationN") -> "PermutationN":
        """self after other: (self * other)(i) = self(other(i))."""
        if self.n != other.n:
            raise ValidationError("permutation size mismatch")
        return PermutationN(tuple(self(other(i)) for i in range(1, self.n + 1)))

    def inverse(self) -> "PermutationN":
        img = [0] * self.n
        for i, j in enumerate(self.images, start=1):
            img[j - 1] = i
        return PermutationN(tuple(img))

    @property
    def is_identity(self) -> bool:
        return self.images == tuple(range(1, self.n + 1))


@dataclass(frozen=True, slots=True)
class HoughtonMap:
    """A ray injection N^k x [m] -> N^k x [n] given by per-ray translations."""

    k: int
    m: int
    n: int
    pieces: tuple[tuple[MarkedRay, Translation], ...]
    # The canonical table, once known: set by ``_map_of_cells`` or on the first ``_table_of``.
    _table: tuple[int, tuple] | None = field(
        default=None, init=False, compare=False, repr=False
    )

    def __post_init__(self) -> None:
        if any(_not_int(x) or x < 1 for x in (self.k, self.m, self.n)):
            raise ValidationError("need k, m, n >= 1")
        for dom, tr in self.pieces:
            if dom.ray.k != self.k or len(tr.offset) != self.k:
                raise ValidationError(f"piece {dom} has wrong dimension for k={self.k}")
            if dom.copy > self.m:
                raise ValidationError(f"domain copy {dom.copy} exceeds m={self.m}")
            if tr.target_copy > self.n:
                raise ValidationError(f"target copy {tr.target_copy} exceeds n={self.n}")
            moved = tuple(b + d for b, d in zip(dom.ray.base, tr.offset))
            if any(c < 1 for c in moved):
                raise ValidationError(
                    f"piece {dom} translated by {tr.offset} leaves N^{self.k}"
                )

    def image_ray(self, piece: tuple[MarkedRay, Translation]) -> MarkedRay:
        """The image of one of this map's pieces, built unchecked: ``__post_init__`` has
        already checked that its base lands in N^k."""
        dom, tr = piece
        return _marked(_moved(dom.ray, tr.offset), tr.target_copy)


def _moved(ray: Ray, offset: tuple[int, ...]) -> Ray:
    """``ray`` translated by ``offset``, for a translation known to keep it in N^k."""
    return _ray(tuple(map(operator.add, ray.base, offset)), ray.dirs)


@dataclass(frozen=True, slots=True)
class MapDiagnostics:
    valid: bool
    bijective: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def identity_map(k: int, n: int) -> HoughtonMap:
    return embed_symmetric(PermutationN.identity(n), k)


def _image_rays(f: HoughtonMap) -> tuple[MarkedRay, ...]:
    return tuple(f.image_ray(p) for p in f.pieces)


def image_region(f: HoughtonMap) -> Region:
    return Region(f.k, f.n, _image_rays(f))


def validate(f: HoughtonMap) -> MapDiagnostics:
    """Domain partition, positivity, injectivity; bijectivity when m = n.

    The one check of a whole map, for maps from outside; maps built here are not passed
    to it.  Domain and images are decided on one cell set each (``_disjoint_cover``); only
    a fault builds the per-ray ``_cell_sets`` that name it, a domain fault as
    ``partition_validate`` names it over the full domain.  That domain is listed only on
    the copies that hold pieces and the least copy that holds none, where the first gap
    lies, so a huge m costs nothing.  A map with no pieces leaves all of N^k uncovered,
    which is said without fitting a grid or writing out the k coordinates of its cell.
    """
    if not f.pieces:
        gap = f"uncovered cell N^{f.k} on copy 1: the map has no pieces"
        return MapDiagnostics(False, False, (f"domain is not a ray partition: {gap}",))
    problems: list[str] = []
    domain = [dom for dom, _ in f.pieces]
    if not all(_disjoint_cover(f.k, f.m, domain)):
        copies = {dom.copy for dom in domain}
        copies.add(min(set(range(1, len(copies) + 2)) - copies))
        full = _ray((1,) * f.k, tuple(range(1, f.k + 1)))
        fault = _partition_fault(f.k, domain, [_marked(full, c) for c in copies if c <= f.m])
        problems.append(f"domain is not a ray partition: {fault}")
    images = _image_rays(f)
    disjoint, covers = _disjoint_cover(f.k, f.n, images)
    if not disjoint:
        pair = _overlapping_pair(images, _cell_sets(f.k, [(m,) for m in images])[1])
        problems.append(f"image rays overlap: {pair[0]} and {pair[1]}")
    bijective = not problems and f.m == f.n and covers
    return MapDiagnostics(not problems, bijective, tuple(problems))


# -- canonical form ----------------------------------------------------------

# Bound on the maps whose canonical tables are kept; one benchmark pass computes
# at most about 400 of them (370-377 on `group`, 7-10 on `sn-build` and 0 on
# `homology` at seeds 1-3).
_CANONICAL_CACHE_SIZE = 4096


def _map_cells(k: int, m: int, pieces) -> tuple[int, tuple]:
    """The canonical table of the map on ``m`` copies that ``pieces`` describe, read off
    the grid fitted to the pieces; the pieces must neither overlap nor leave a gap."""
    cuts, labels = _label_cells(k, pieces)
    if len(labels) != m * math.prod(map(len, cuts)):
        raise ValidationError("domain pieces do not cover every copy")
    return _full_grid(cuts, labels, m)


@lru_cache(maxsize=_CANONICAL_CACHE_SIZE)
def _canonical_table(f: HoughtonMap) -> tuple[int, tuple]:
    """Minimal grid threshold and the canonical pieces ``((MarkedRay, Translation), ...)``
    of ``f``, one per cell of that grid, in ``(copy, dirs, base)`` order.

    The pieces are read off the grid fitted to ``f``'s own, so the result depends
    only on the map as a function.
    """
    return _map_cells(f.k, f.m, f.pieces)


def _table_of(f: HoughtonMap) -> tuple[int, tuple]:
    """The canonical table ``f`` carries; one that carries none looks it up in
    ``_canonical_table`` once and keeps the result.  Two threads that race here
    store equal immutable tables, so no lock is needed."""
    if f._table is None:
        _set_table(f, _canonical_table(f))
    return f._table


def _map_of_cells(k: int, m: int, n: int, table: tuple[int, tuple]) -> HoughtonMap:
    """The map N^k x [m] -> N^k x [n] whose canonical table is ``table``, carrying it:
    the map's pieces are the table's own tuple.

    The table comes from ``rays._full_grid`` on the grid of a valid map, or from
    the template ``complexes._vertex_map`` reads a vertex's off, so its pieces partition
    the domain and every image lies in N^k; the map is built without ``__post_init__``.
    """
    return _unchecked_map(k, m, n, table[1], table)


_set_k, _set_m, _set_n = HoughtonMap.k.__set__, HoughtonMap.m.__set__, HoughtonMap.n.__set__
_set_pieces, _set_table = HoughtonMap.pieces.__set__, HoughtonMap._table.__set__


def _unchecked_map(k: int, m: int, n: int, pieces: tuple, table: tuple | None) -> HoughtonMap:
    """``HoughtonMap(k, m, n, pieces)`` carrying ``table``, without ``__post_init__``."""
    f = object.__new__(HoughtonMap)
    _set_k(f, k)
    _set_m(f, m)
    _set_n(f, n)
    _set_pieces(f, pieces)
    _set_table(f, table)
    return f


def canonical_threshold(f: HoughtonMap) -> int:
    return _table_of(f)[0]


def canonical_form(f: HoughtonMap) -> HoughtonMap:
    return _map_of_cells(f.k, f.m, f.n, _table_of(f))


def equals(f: HoughtonMap, g: HoughtonMap) -> bool:
    """Pointwise equality, decided on canonical forms."""
    if (f.k, f.m, f.n) != (g.k, g.m, g.n):
        raise ValidationError("cannot compare maps of different shapes")
    return _table_of(f) == _table_of(g)


def apply_map(f: HoughtonMap, point: tuple[int, ...], copy: int) -> tuple[tuple[int, ...], int]:
    """Evaluate ``f`` at a point of N^k x [m]."""
    if len(point) != f.k or any(_not_int(c) or c < 1 for c in point):
        raise ValidationError(f"{point!r} is not a point of N^{f.k}")
    if _not_int(copy) or not 1 <= copy <= f.m:
        raise ValidationError(f"copy {copy} outside [1, {f.m}]")
    t, pieces = _table_of(f)
    cell = cell_of_point(point, t)
    tr = next(label for dom, label in pieces if dom.copy == copy and dom.ray == cell)
    return tuple(x + d for x, d in zip(point, tr.offset)), tr.target_copy


def compose(g: HoughtonMap, f: HoughtonMap) -> HoughtonMap:
    """g after f.  Shapes must chain: f: m -> n, g: n -> r.

    The result is read off one grid of f's domain: f's threshold cuts 1..tf+1
    and g's 1..tg+1 pulled back by each offset d of f, c - d_j where >= 1.  f
    is constant on a cell, and so is g once it is moved, as a cut of g inside
    would pull back inside it; a cell's label is the two translations added,
    one ``Translation`` per pair of f and g label objects that meet.  An f piece
    is a tf-cell, so a free coordinate (at tf+1) takes the cuts ``cut[tf:]``.
    """
    if f.k != g.k or f.n != g.m:
        raise ValidationError(
            f"shape mismatch: cannot compose {g.m}->{g.n} after {f.m}->{f.n}"
        )
    tg, g_pieces = _table_of(g)
    tf, f_pieces = _table_of(f)
    g_at = {(dom.copy, dom.ray.base): tr for dom, tr in g_pieces}
    cuts = tuple(
        sorted({*range(1, tf + 2)}.union(*(range(max(1, 1 - d), tg + 2 - d) for d in set(ds))))
        for ds in zip(*(tr.offset for _, tr in f_pieces))
    )
    # spread[j][b]: the cuts of coordinate j in an f piece whose base there is b
    spread = [[(b,) for b in range(tf + 1)] + [cut[tf:]] for cut in cuts]
    labels, sums = {}, {}
    for dom, tr1 in f_pieces:
        copy, offset, target = dom.copy, tr1.offset, tr1.target_copy
        spans = list(map(list.__getitem__, spread, dom.ray.base))
        moved = [[min(b + d, tg + 1) for b in span] for span, d in zip(spans, offset)]
        made = sums.setdefault(id(tr1), {})
        for base, image in zip(itertools.product(*spans), itertools.product(*moved)):
            tr2 = g_at[target, image]
            tr = made.get(id(tr2))
            if tr is None:
                tr = made[id(tr2)] = _translation(tuple(map(operator.add, offset, tr2.offset)),
                                                  tr2.target_copy)
            labels[copy, base] = tr
    return _map_of_cells(f.k, f.m, g.n, _full_grid(cuts, labels, f.m))


def inverse(g: HoughtonMap) -> HoughtonMap:
    """Invert a bijective element: image cells with negated translations.

    The inverse is read off the grid fitted to those pieces, which rejects
    image cells that overlap or leave a gap, and built once.  g is read
    through its canonical pieces, as the function it denotes, so a
    hand-built g that repeats a piece is inverted like the map without the
    repeat, as ``compose`` and ``equals`` read it.
    """
    if g.m != g.n:
        raise ValidationError("only m = n maps can be inverted")
    try:
        pieces = [(g.image_ray((dom, tr)), _translation(tuple(-d for d in tr.offset), dom.copy))
                  for dom, tr in _table_of(g)[1]]
        return _map_of_cells(g.k, g.n, g.m, _map_cells(g.k, g.n, pieces))
    except ValidationError as exc:
        raise ValidationError(f"map is not bijective: {exc}") from exc


def _k_piece(f: HoughtonMap, copy: int) -> tuple[MarkedRay, Translation]:
    """The unique full-dimensional piece of a domain copy."""
    for dom, tr in f.pieces:
        if dom.copy == copy and dom.ray.is_full:
            return dom, tr
    raise ValidationError(f"no full-dimensional ray on copy {copy}; invalid partition")


def sigma_projection(g: HoughtonMap) -> PermutationN:
    """Where each copy's full-dimensional ray is sent; a permutation for m = n."""
    if g.m != g.n:
        raise ValidationError("copy projection needs m = n")
    return PermutationN(tuple(_k_piece(g, c)[1].target_copy for c in range(1, g.n + 1)))


def in_kernel(g: HoughtonMap) -> bool:
    return sigma_projection(g).is_identity


def embed_symmetric(sigma: PermutationN, k: int) -> HoughtonMap:
    """The element permuting copies and fixing every point of N^k."""
    full = Ray((1,) * k, tuple(range(1, k + 1)))
    pieces = tuple(
        (MarkedRay(full, i), Translation((0,) * k, sigma(i)))
        for i in range(1, sigma.n + 1)
    )
    return HoughtonMap(k, sigma.n, sigma.n, pieces)


def decompose(g: HoughtonMap) -> tuple[HoughtonMap, PermutationN]:
    """Split g = h . embed(sigma) with h in the kernel of the copy projection."""
    sigma = sigma_projection(g)
    h = compose(g, embed_symmetric(sigma.inverse(), g.k))
    return h, sigma


def translation_vector(g: HoughtonMap) -> tuple[int, ...]:
    """The eventual translation amounts (d_1, ..., d_n) of a kernel element, k = 1."""
    if g.k != 1:
        raise ValidationError("translation vector is defined for k = 1 only")
    if not in_kernel(g):
        raise ValidationError("translation vector needs a kernel element")
    return tuple(_k_piece(g, c)[1].offset[0] for c in range(1, g.n + 1))


def k_ray_offsets(g: HoughtonMap) -> list[tuple[int, tuple[int, ...], int]]:
    """(copy, offset, target copy) of the full-dimensional piece of each copy."""
    if g.m != g.n:
        raise ValidationError("offset report needs m = n")
    out = []
    for c in range(1, g.n + 1):
        _, tr = _k_piece(g, c)
        out.append((c, tr.offset, tr.target_copy))
    return out


def eventual_translation_check(g: HoughtonMap) -> tuple[bool, dict[int, int]]:
    """Certify g(x, i) = (x + d_i, sigma(i)) beyond a per-copy threshold, k = 1.

    In dimension one the full ray of a copy covers everything beyond its
    base, so the certificate is exact: the threshold for copy i is the base
    of its 1-dimensional piece minus one.
    """
    if g.k != 1:
        raise ValidationError("eventual-translation check is for k = 1")
    if g.m != g.n:
        raise ValidationError("eventual-translation check needs m = n")
    thresholds = {}
    for c in range(1, g.n + 1):
        dom, tr = _k_piece(g, c)
        base = dom.ray.base[0]
        for other, _ in g.pieces:
            if other.copy == c and other is not dom and other.ray.base[0] >= base:
                return False, {}
        thresholds[c] = base - 1
    return True, thresholds


def restrict(g: HoughtonMap, m: int) -> HoughtonMap:
    """Restriction to the first m copies of the domain."""
    if not 1 <= m <= g.m:
        raise ValidationError(f"cannot restrict {g.m} copies to {m}")
    pieces = tuple(p for p in g.pieces if p[0].copy <= m)
    return HoughtonMap(g.k, m, g.n, pieces)


def fi_map(f_images: tuple[int, ...], n: int, g: HoughtonMap) -> HoughtonMap:
    """Push a kernel element of the m-copy group along an injection [m] -> [n].

    Copies are relabelled through the injection and the map is extended by
    the identity on copies outside its image.
    """
    m = len(f_images)
    if len(set(f_images)) != m or any(not 1 <= i <= n for i in f_images):
        raise ValidationError(f"{f_images!r} is not an injection into [{n}]")
    if g.m != m or g.n != m:
        raise ValidationError(f"element acts on {g.m} copies, injection leaves {m}")
    if not in_kernel(g):
        raise ValidationError("functoriality on copies needs a kernel element")
    pieces = [
        (
            MarkedRay(dom.ray, f_images[dom.copy - 1]),
            Translation(tr.offset, f_images[tr.target_copy - 1]),
        )
        for dom, tr in g.pieces
    ]
    full = Ray((1,) * g.k, tuple(range(1, g.k + 1)))
    for c in range(1, n + 1):
        if c not in f_images:
            pieces.append((MarkedRay(full, c), Translation((0,) * g.k, c)))
    return HoughtonMap(g.k, n, n, tuple(pieces))


def image_complement(f: HoughtonMap) -> Region:
    """The codomain minus the image, canonical; the one ``Region`` built."""
    return Region(f.k, f.n, _complement_cells(f.k, f.n, _image_rays(f)))


def complement_subobject(f: HoughtonMap) -> RayPartition:
    """Ray partition of the codomain minus the image."""
    diag = validate(f)
    if not diag.valid:
        raise ValidationError(f"not a valid injection: {diag.problems}")
    comp = image_complement(f)
    return RayPartition(comp, comp.rays)


def same_subobject(f: HoughtonMap, g: HoughtonMap) -> bool:
    """Whether two injections into the same codomain have equal images."""
    if f.k != g.k or f.n != g.n:
        raise ValidationError("subobject comparison needs a common codomain")
    if f.m != g.m:
        return False
    return region_equal(image_region(f), image_region(g))


def extend_to_automorphism(f: HoughtonMap) -> HoughtonMap:
    """Extend an injection N^k x [m] -> N^k x [n], m < n, to a group element.

    The complement of the image is a finite union of grid cells containing
    exactly n - m full-dimensional ones.  Source copies m+1..n are matched to
    those; every lower-dimensional complement cell is produced by splitting a
    source full ray down a chain (coordinates in increasing order), with the
    chain's intermediate debris replicated on the complement side by
    splitting a complement full cell one step less deep, so both sides add
    rays with identical direction sets.
    """
    if f.m >= f.n:
        raise ValidationError("extension needs strictly fewer domain copies")
    diag = validate(f)
    if not diag.valid:
        raise ValidationError(f"not a valid injection: {diag.problems}")
    comp = image_complement(f)
    k = f.k
    full_dirs = tuple(range(1, k + 1))
    kcell_base = {
        m.copy: m.ray.base for m in comp.rays if m.ray.is_full
    }
    open_copies = sorted(kcell_base)
    if len(open_copies) != f.n - f.m:
        raise AssertionError("complement must contain one full cell per unused copy")
    source_for = {open_copies[i]: f.m + 1 + i for i in range(len(open_copies))}
    host_target = open_copies[0]
    host_source = source_for[host_target]
    src_base = {f.m + 1 + i: (1,) * k for i in range(len(open_copies))}

    def chain(start: Ray, js: list[int]) -> tuple[Ray, list[Ray], Ray]:
        """Split ``start`` along js in order; (final child, debris, moved start)."""
        current = start
        child = None
        debris = []
        for idx, j in enumerate(js):
            piece, rest = ray_split(current if idx == 0 else child, j)
            if idx == 0:
                current = rest
            else:
                debris.append(rest)
            child = piece
        return child, debris, current

    new_pieces: list[tuple[MarkedRay, Translation]] = []
    for target_cell in comp.rays:
        if target_cell.ray.is_full:
            continue
        missing = sorted(set(full_dirs) - set(target_cell.ray.dirs))
        src_ray = Ray(src_base[host_source], full_dirs)
        child, debris, moved = chain(src_ray, missing)
        src_base[host_source] = moved.base
        new_pieces.append(
            (
                MarkedRay(child, host_source),
                Translation(
                    tuple(b - a for a, b in zip(child.base, target_cell.ray.base)),
                    target_cell.copy,
                ),
            )
        )
        if debris:
            comp_ray = Ray(kcell_base[host_target], full_dirs)
            comp_child, comp_debris, comp_moved = chain(comp_ray, missing[:-1])
            kcell_base[host_target] = comp_moved.base
            matches = sorted(comp_debris + [comp_child], key=lambda r: -len(r.dirs))
            for src, dst in zip(debris, matches):
                if src.dirs != dst.dirs:
                    raise AssertionError("debris direction sets out of step")
                new_pieces.append(
                    (
                        MarkedRay(src, host_source),
                        Translation(
                            tuple(b - a for a, b in zip(src.base, dst.base)),
                            host_target,
                        ),
                    )
                )
    for target_copy, source_copy in source_for.items():
        base = src_base[source_copy]
        new_pieces.append(
            (
                MarkedRay(Ray(base, full_dirs), source_copy),
                Translation(
                    tuple(b - a for a, b in zip(base, kcell_base[target_copy])),
                    target_copy,
                ),
            )
        )
    return HoughtonMap(k, f.n, f.n, f.pieces + tuple(new_pieces))


# -- seeded generators -------------------------------------------------------


def random_element(k: int, n: int, bound: int, seed: int) -> HoughtonMap:
    """Deterministic random element with canonical threshold and offsets <= bound.

    Draws a grid threshold t <= bound and permutes the grid cells within each
    direction class across copies; translations between same-shaped cells
    stay within the bound by construction.
    """
    return _random_map(k, n, n, bound, seed)


def random_injection(k: int, m: int, n: int, bound: int, seed: int) -> HoughtonMap:
    """Deterministic random ray injection N^k x [m] -> N^k x [n]: the
    restriction of ``random_element(k, n, bound, seed)`` to m copies."""
    if not 1 <= m <= n:
        raise ValidationError("need 1 <= m <= n")
    return _random_map(k, m, n, bound, seed)


def _random_map(k: int, m: int, n: int, bound: int, seed: int) -> HoughtonMap:
    """The first m domain copies of ``random_element(k, n, bound, seed)``.

    The random draws are those of the whole element, so every m gives the
    same pieces on the copies it keeps; pieces are built only for those.  They
    and the map are built unchecked: each piece moves a grid cell onto a grid
    cell of its own direction class, so the pieces partition the domain and
    every image lies in N^k.
    """
    if bound < 0:
        raise ValidationError("bound must be >= 0")
    if k < 1 or n < 1:
        raise ValidationError("need k, m, n >= 1")
    rng = random.Random(seed)
    t = rng.randint(0, bound)
    by_dirs: dict[tuple[int, ...], list[Ray]] = {}
    for cell in grid_cells(k, t):
        by_dirs.setdefault(cell.dirs, []).append(cell)
    pieces = []
    for dirs in sorted(by_dirs):
        cells = by_dirs[dirs]
        slots = [(copy, cell) for copy in range(1, n + 1) for cell in cells]
        targets = slots[:]
        rng.shuffle(targets)
        for (copy, src), (dst_copy, dst) in zip(slots[: m * len(cells)], targets):
            offset = tuple(b - a for a, b in zip(src.base, dst.base))
            pieces.append((_marked(src, copy), _translation(offset, dst_copy)))
    return _unchecked_map(k, m, n, tuple(pieces), None)


# -- JSON --------------------------------------------------------------------


def map_to_json(f: HoughtonMap) -> dict:
    """The canonical form of ``f``, written straight from its canonical pieces."""
    return {
        "k": f.k,
        "m": f.m,
        "n": f.n,
        "pieces": [
            {
                "copy": dom.copy,
                "base": list(dom.ray.base),
                "dirs": list(dom.ray.dirs),
                "offset": list(tr.offset),
                "target_copy": tr.target_copy,
            }
            for dom, tr in _table_of(f)[1]
        ],
    }


_PIECE_FIELDS = operator.itemgetter("copy", "base", "dirs", "offset", "target_copy")
_INT = frozenset({int})


def _parse_map(data: dict) -> HoughtonMap:
    """The map a JSON object describes, with its fields checked but not ``validate``.

    One pass tests each field once: k, m, n >= 1; per piece, ``base``, ``dirs`` and
    ``offset`` lists of exact ints, ``base`` and ``offset`` of length k, ``dirs`` without
    repeats within 1..k, 1 <= ``copy`` <= m, 1 <= ``target_copy`` <= n, and base and
    base + offset >= 1.  A map that passes is built unchecked (``_ray``, ``_marked``,
    ``_translation``), with ``dirs`` sorted.  Any other input is read again by the
    constructors, which accept it or raise the message that names its first fault.
    """
    if type(data) is dict and type(k := data.get("k")) is int and k >= 1:
        m, n, raw = data.get("m"), data.get("n"), data.get("pieces")
        if type(m) is type(n) is int and m >= 1 and n >= 1 and type(raw) is list:
            pieces = _pieces_if_valid(k, m, n, raw)
            if pieces is not None:
                return _unchecked_map(k, m, n, pieces, None)
    return _map_by_constructors(data)


def _pieces_if_valid(k: int, m: int, n: int, raw: list) -> tuple | None:
    """The pieces of the JSON ``raw``, built unchecked, when each passes the
    ``_parse_map`` tests for a map of shape (k, m, n); None when one does not."""
    pieces = []
    for p in raw:
        if type(p) is not dict:
            return None
        try:
            copy, base, dirs, offset, target = _PIECE_FIELDS(p)
        except KeyError:
            return None
        if not (
            type(base) is list and type(dirs) is list and type(offset) is list
            and {type(copy), type(target), *map(type, base), *map(type, dirs), *map(type, offset)}
            == _INT
            and len(base) == k == len(offset) and 1 <= copy <= m and 1 <= target <= n
            and min(base) >= 1 and min(map(operator.add, base, offset)) >= 1
        ):
            return None
        free = sorted(set(dirs))
        if len(free) != len(dirs) or free and (free[0] < 1 or free[-1] > k):
            return None
        ray = _marked(_ray(tuple(base), tuple(free)), copy)
        pieces.append((ray, _translation(tuple(offset), target)))
    return tuple(pieces)


def _map_by_constructors(data: dict) -> HoughtonMap:
    """The map a JSON object describes, built by the checking constructors."""
    try:
        k, m, n = (_json_int(data, field) for field in ("k", "m", "n"))
        pieces = tuple(
            (
                marked_ray_from_json(p),
                Translation(_json_ints(p, "offset"), _json_int(p, "target_copy")),
            )
            for p in data["pieces"]
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed map object: {exc}") from exc
    return HoughtonMap(k, m, n, pieces)


def map_from_json(data: dict) -> HoughtonMap:
    """Parse and fully validate an element/injection; invalid data is an error."""
    f = _parse_map(data)
    diag = validate(f)
    if not diag.valid:
        raise ValidationError("; ".join(diag.problems))
    return f
