"""Finite simplicial complexes, exact homology, and the stability complexes.

The complexes here are finite, face-closed simplex sets over an indexed
vertex list; homology is integral and reduced.  It is read off the Morse
complex of an acyclic matching (Forman's discrete Morse theory, with the
iterated element matchings of Jonsson; see Kozlov, "Combinatorial Algebraic
Topology", and Skoldberg's algebraic form): the connected components give the
ranks in degrees 0 and 1, and only the Morse boundaries between adjacent
critical degrees from 2 up reach a Smith normal form.  On top of that sit the
bounded truncations of the complexes S_n whose vertices are ray injections
N^k -> N^k x [n] with pairwise disjoint images, the projection recording where
each vertex sends its full-dimensional ray, section construction and
verification for that projection, homological connectivity, and weak
Cohen-Macaulay certification.  A section is verified on the pairs (vertex of
S, copy), which decide the link biconditional for every pair of simplices.

Conventions: connectivity is measured homologically (q-acyclicity), -1 means
nonempty and -2 empty; a vertex is B-bounded when its canonical grid
threshold is at most B and every offset component lies in [-B, B]; sets of
n vertices count as top simplices only when their images are jointly
surjective, which is opt-in via ``include_top``.

Values from outside are checked once, where they enter, and maps hforge builds
itself are built unchecked and never validated again.  ``SimplicialComplex.build``
checks simplex entries for every caller, the JSON reader included.  Maximal simplices
are found layer by layer, and a simplex's cofaces in the layers above it, at the bits
of the AND of its vertices' incidence masks, which a complex builds once on its first
link or star; a matching ranks only the complex's own vertices.  The public section
functions check k and n, and they and ``simplex_test`` check every vertex they are
given with ``houghton.validate``; the enumerated vertices and a section's far vertices
(``_far_vertex``) are built unchecked.  A truncation vertex is its enumeration leaf,
one shared translation per threshold-B domain cell.  Its image cells on the fixed cuts
1..2B+1 and its canonical table are read off ``_vertex_template``, built once per (k, B),
so no grid is fitted or canonicalised per leaf.  ``_vertex_map`` builds a map after the
size guards, where output needs it; a far vertex of the probe is its ``(copy, offset)``.
"""
from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from operator import and_

from .errors import SizeLimitError, ValidationError
from .houghton import (
    HoughtonMap,
    _image_rays,
    _k_piece,
    _map_of_cells,
    _moved,
    _translation,
    map_from_json,
    map_to_json,
    validate,
)
from .rays import (
    MarkedRay,
    Ray,
    _cell_bases,
    _cell_sets,
    _disjoint_cover,
    _disjoint_masks,
    _grid_template,
    _marked,
    _ray,
    grid_cells,
)
from .snf import _sparse_diagonal

__all__ = [
    "SimplicialComplex",
    "HomologyResult",
    "DEFAULT_SIZE_LIMIT",
    "reduced_homology",
    "homological_connectivity",
    "is_q_acyclic",
    "wcm_check",
    "link",
    "star",
    "skeleton",
    "enumerate_bounded_vertices",
    "build_sn_truncated",
    "pi_projection",
    "simplex_test",
    "build_s_section",
    "verify_s_section",
    "simplexwise_injective_check",
    "connectivity_probe",
    "complex_to_json",
    "complex_from_json",
    "homology_to_json",
]

DEFAULT_SIZE_LIMIT = 200_000


def _close_faces(by_dim: dict[int, set[tuple[int, ...]]], size_limit: int | None) -> None:
    """Add to ``by_dim``, sorted simplices by dimension, every nonempty face of them.

    Faces are added one dimension at a time from the top down, and the count
    is checked after every face, so an oversized closure stops as soon as it
    passes ``size_limit`` rather than after it has been built.
    """
    limit = math.inf if size_limit is None else size_limit
    total = sum(len(v) for v in by_dim.values())
    if total > limit:
        raise SizeLimitError(
            f"face closure exceeds the size limit {size_limit}: {total} simplices listed"
        )
    for d in range(max(by_dim, default=0), 0, -1):
        lower = by_dim.setdefault(d - 1, set())
        rest = total - len(lower)
        for s in by_dim[d]:
            for omit in range(d + 1):
                lower.add(s[:omit] + s[omit + 1 :])
                if rest + len(lower) > limit:
                    raise SizeLimitError(
                        f"face closure exceeds the size limit {size_limit}: "
                        f"{rest + len(lower)} simplices at dimension {d - 1}"
                    )
        total = rest + len(lower)


@dataclass(frozen=True, eq=False)
class SimplicialComplex:
    """Face-closed simplex sets over an indexed, optionally labelled vertex list."""

    vertices: tuple
    simplices: dict[int, frozenset[tuple[int, ...]]]

    @classmethod
    def build(cls, vertices, simplices, size_limit: int | None = DEFAULT_SIZE_LIMIT):
        """Face closure of arbitrary index tuples; every listed simplex is kept.

        The one check of simplex entries, for every caller, simplex by simplex: exact
        ints (no bool or float), no repeats, within the vertex range.
        """
        by_dim: dict[int, set[tuple[int, ...]]] = {}
        for s in simplices:
            if not set(map(type, s)) <= {int}:
                raise ValidationError(
                    f"simplex entries must be integer vertex indices, got {list(s)!r}"
                )
            t = tuple(sorted(set(s)))
            if len(t) != len(s):
                raise ValidationError(f"simplex with repeated vertices: {s!r}")
            if t:
                if t[0] < 0 or t[-1] >= len(vertices):
                    raise ValidationError(f"simplex {s!r} outside vertex range")
                by_dim.setdefault(len(t) - 1, set()).add(t)
        _close_faces(by_dim, size_limit)
        return cls(tuple(vertices), {d: frozenset(v) for d, v in sorted(by_dim.items())})

    @property
    def is_empty(self) -> bool:
        return not self.simplices

    @property
    def dim(self) -> int:
        return max(self.simplices, default=-1)

    def simplices_of_dim(self, d: int) -> list[tuple[int, ...]]:
        return sorted(self.simplices.get(d, ()))

    def all_simplices(self):
        for d in sorted(self.simplices):
            yield from sorted(self.simplices[d])

    def __contains__(self, simplex) -> bool:
        t = tuple(sorted(simplex))
        return t in self.simplices.get(len(t) - 1, frozenset())

    def simplex_count(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def euler_characteristic(self) -> int:
        return sum((-1) ** d * len(v) for d, v in self.simplices.items())

    def maximal_simplices(self) -> list[tuple[int, ...]]:
        """Simplices that are no face of another, by (size, tuple): each layer's
        ``_maximal`` simplices sorted, concatenated by dimension."""
        return [s for d in sorted(self.simplices) for s in sorted(self._maximal(d))]

    def _maximal(self, d: int) -> frozenset[tuple[int, ...]]:
        """The d-simplices that are no face of a (d+1)-simplex.

        In a face-closed complex a simplex lies in a larger one exactly when
        it is a codimension-1 face of some simplex one dimension up.
        """
        covered = {
            s[:omit] + s[omit + 1 :] for s in self.simplices.get(d + 1, ()) for omit in range(d + 2)
        }
        return self.simplices[d] - covered

    @cached_property
    def _incidence(self) -> tuple[tuple[tuple, tuple[int, ...]], ...]:
        """Per dimension d, the d-simplices in one fixed order and, per vertex, the bitmask
        of the positions of those that hold it: built once per complex, on its first
        ``link`` or ``star``, and never changed."""
        layers = []
        for d in range(self.dim + 1):
            layer = tuple(self.simplices.get(d, ()))
            holders: list[list[int]] = [[] for _ in self.vertices]
            for i, s in enumerate(layer):
                for v in s:
                    holders[v].append(i)
            layers.append((layer, tuple(map(_mask, holders))))
        return tuple(layers)


def _mask(positions: list[int]) -> int:
    """The int whose set bits are ``positions``, built in one buffer: OR-ing one bit
    at a time would copy the growing int once per bit."""
    buf = bytearray((max(positions) >> 3) + 1 if positions else 0)
    for i in positions:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _cofaces(k: SimplicialComplex, simplex) -> tuple[tuple[int, ...], list[tuple[int, ...]]]:
    """The sorted ``simplex`` and the simplices of ``k`` that properly contain it: in each
    layer above its own, those at the bits of the AND of its vertices' incidence masks."""
    s = tuple(sorted(simplex))
    if s not in k:
        raise ValidationError(f"{simplex!r} is not a simplex of the complex")
    cofaces: list[tuple[int, ...]] = []
    for layer, masks in k._incidence[len(s):]:
        cofaces += map(layer.__getitem__, _bits(reduce(and_, map(masks.__getitem__, s))))
    return s, cofaces


def link(k: SimplicialComplex, simplex) -> SimplicialComplex:
    """Lk(s) = { t : t disjoint from s, t u s in K }, over the same labels;
    face-closed as found, since a face of such a t again joins s in K."""
    s, cofaces = _cofaces(k, simplex)
    by_dim: dict[int, set[tuple[int, ...]]] = {}
    for rho in cofaces:
        t = tuple(v for v in rho if v not in s)
        by_dim.setdefault(len(t) - 1, set()).add(t)
    return SimplicialComplex(k.vertices, {d: frozenset(by_dim[d]) for d in sorted(by_dim)})


def star(k: SimplicialComplex, simplex) -> SimplicialComplex:
    """Closed star: all simplices joining with ``simplex``, plus faces.  The cofaces are
    sorted simplices of ``k`` already, so they are filed by dimension and face-closed
    as found, as ``link`` builds."""
    s, cofaces = _cofaces(k, simplex)
    by_dim: dict[int, set[tuple[int, ...]]] = {}
    for rho in (s, *cofaces):
        by_dim.setdefault(len(rho) - 1, set()).add(rho)
    _close_faces(by_dim, None)
    return SimplicialComplex(k.vertices, {d: frozenset(by_dim[d]) for d in sorted(by_dim)})


def skeleton(k: SimplicialComplex, d: int) -> SimplicialComplex:
    """The simplices of dimension at most d, face-closed as they stand."""
    kept = {dd: k.simplices[dd] for dd in sorted(k.simplices) if dd <= d}
    return SimplicialComplex(k.vertices, kept)


# -- homology ----------------------------------------------------------------


def _faces(s: tuple[int, ...]) -> list[tuple[tuple[int, ...], int]]:
    """The codimension-1 faces of a sorted simplex with their boundary signs."""
    return [(s[:omit] + s[omit + 1 :], -1 if omit % 2 else 1) for omit in range(len(s))]


def _matching(
    k: SimplicialComplex, last: int, masks: list[int]
) -> tuple[list[list[tuple[int, ...]]], dict[tuple[int, ...], tuple[int, ...]], list[list]]:
    """Iterated element matchings on the cells of degree <= ``last`` and the empty simplex.

    The complex's 0-simplices are taken by degree in the 1-skeleton (the bit counts of
    ``masks``), descending, ties by index, and each cell is relabelled by the ranks of
    its vertices in that order, through a dict, so unused vertex labels cost nothing.
    At rank r every unmatched cell holding r is paired with its face
    without r when that face is unmatched too.  A sequence of element matchings is
    acyclic (Jonsson, LNM 1928, 2008).  A cell waits in the bucket of its next vertex
    whose face is not yet matched; a matched cell stays matched, so the faces skipped
    on the way would fail at their ranks too.  Returns the relabelled cells by degree,
    each matched face's up partner, and the critical cells of each degree.
    """
    order = sorted((v for (v,) in k.simplices[0]), key=lambda v: (-masks[v].bit_count(), v))
    at = {v: r for r, v in enumerate(order)}.__getitem__
    cells = [[tuple(sorted(map(at, s))) for s in k.simplices.get(d, ())] for d in range(last + 1)]
    buckets: list[list | None] = [[] for _ in order]
    for layer in cells:
        for s in layer:
            buckets[s[0]].append(s)
    up: dict[tuple[int, ...], tuple[int, ...]] = {}
    matched: set[tuple[int, ...]] = set()
    for r in range(len(order)):
        for s in buckets[r]:
            if s in matched:
                continue
            i = s.index(r)
            face = s[:i] + s[i + 1 :]
            if face not in matched:
                up[face] = s
                matched.add(face)
                matched.add(s)
                continue
            for j in range(i + 1, len(s)):
                if s[:j] + s[j + 1 :] not in matched:
                    buckets[s[j]].append(s)
                    break
        buckets[r] = None
    critical = [[s for s in layer if s not in matched] for layer in cells]
    return cells, up, critical


def _morse_rows(
    cells: list[tuple[int, ...]], below: list[tuple[int, ...]], up: dict
) -> dict[int, dict[int, int]]:
    """The Morse boundary from the critical ``cells`` to the critical cells ``below``,
    one degree down, as sparse rows ``{index in below: {index in cells: x}}``.

    Each cell's boundary flows down the gradient paths: a face with an up partner is
    replaced by the rest of its partner's boundary, with its own +-1 sign, so the
    entries stay integers.  The faces are flowed in a topological order of the gradient
    cells reachable from the cell, so each one is flowed once, with its final
    coefficient (Forman, Adv. Math. 1998; Skoldberg, Trans. AMS 2006).
    """
    index = {t: i for i, t in enumerate(below)}
    rows: dict[int, dict[int, int]] = {}
    for col, sigma in enumerate(cells):
        coeff: dict[tuple[int, ...], int] = dict(_faces(sigma))
        partner_faces: dict[tuple[int, ...], list] = {}
        finished: list[tuple[int, ...]] = []
        for start in coeff:
            if start in partner_faces or start not in up:
                continue
            partner_faces[start] = _faces(up[start])
            stack = [(start, iter(partner_faces[start]))]
            while stack:
                t, todo = stack[-1]
                for f, _ in todo:
                    if f not in partner_faces and f in up:
                        partner_faces[f] = _faces(up[f])
                        stack.append((f, iter(partner_faces[f])))
                        break
                else:
                    stack.pop()
                    finished.append(t)
        for t in reversed(finished):
            a = coeff.pop(t, 0)
            if a:
                pairs = partner_faces[t]
                # dividing by t's +-1 sign in its partner's boundary is multiplying by it
                a *= next(sign for f, sign in pairs if f == t)
                for f, sign in pairs:
                    if f != t:
                        coeff[f] = coeff.get(f, 0) - a * sign
        for t, x in coeff.items():
            if x and t in index:
                rows.setdefault(index[t], {})[col] = x
    return rows


@dataclass(frozen=True)
class HomologyResult:
    """Reduced integral homology: per degree a betti number and torsion list."""

    is_empty: bool
    entries: tuple[tuple[int, int, tuple[int, ...]], ...]

    def betti(self, d: int) -> int:
        for deg, b, _ in self.entries:
            if deg == d:
                return b
        return 0

    def torsion(self, d: int) -> tuple[int, ...]:
        for deg, _, t in self.entries:
            if deg == d:
                return t
        return ()

    def is_trivial(self, d: int) -> bool:
        return self.betti(d) == 0 and not self.torsion(d)


def reduced_homology(k: SimplicialComplex, max_degree: int | None = None) -> HomologyResult:
    """Betti numbers and torsion of the Morse complex of an acyclic matching.

    Degrees through ``top`` (``max_degree``, capped at the dimension) need the cells
    through ``last = min(top + 1, dim)``.  From ``last = 2`` on, ``_matching`` pairs
    them, the empty simplex included, and the critical cells left span a chain
    complex with the same reduced homology.  Below that nothing is matched and every
    cell is critical, the empty one too, so degree 0 alone reads only layers 0 and 1.
    rank d_0 is 1 if the empty cell is critical and 0 if not.  Reduced H_0 is free of
    rank (components - 1), counted by ``_component_count``, so rank d_1 = c_0 -
    rank d_0 - (components - 1) for c_0 critical vertices.  A Morse boundary d_j with
    j >= 2 is zero when degree j or j - 1 has no critical cell; otherwise
    ``_morse_rows`` builds it and ``_sparse_diagonal`` gives its rank and torsion.
    """
    if k.is_empty:
        return HomologyResult(True, ())
    top = k.dim if max_degree is None else min(max_degree, k.dim)
    last = min(top + 1, k.dim)
    masks = _neighbour_masks(k)
    if last >= 2:
        _, up, critical = _matching(k, last, masks)
        empty = 0
    else:
        up, critical, empty = {}, [k.simplices.get(d, ()) for d in range(last + 1)], 1
    counts = [len(c) for c in critical]
    ranks = [empty, counts[0] - empty - _component_count(k, masks) + 1]
    torsion = [(), ()]
    for d in range(2, last + 1):
        diag = []
        if critical[d] and critical[d - 1]:
            rows = _morse_rows(sorted(critical[d]), sorted(critical[d - 1]), up)
            diag = _sparse_diagonal(rows, counts[d - 1], counts[d])
        ranks.append(sum(1 for x in diag if x))
        torsion.append(tuple(x for x in diag if x > 1))
    # above the dimension the boundary is zero
    ranks.append(0)
    torsion.append(())
    entries = tuple(
        (d, counts[d] - ranks[d] - ranks[d + 1], torsion[d + 1]) for d in range(top + 1)
    )
    return HomologyResult(False, entries)


def _neighbour_masks(k: SimplicialComplex) -> list[int]:
    """One bitmask of 1-skeleton neighbours per vertex index."""
    masks = [0] * len(k.vertices)
    for a, b in k.simplices.get(1, ()):
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def _component_count(k: SimplicialComplex, masks: list[int]) -> int:
    """The number of connected components of a nonempty complex, by repeated
    ``_component`` searches over its ``_neighbour_masks``; vertex labels that
    carry no 0-simplex are not counted."""
    left = sum(1 << v for (v,) in k.simplices[0])
    count = 0
    while left:
        left &= ~_component(masks, (left & -left).bit_length() - 1)
        count += 1
    return count


def is_q_acyclic(k: SimplicialComplex, q: int) -> bool:
    """Reduced homology vanishes in degrees <= q (vacuous above the dimension).

    Through degree 0 alone ``reduced_homology`` counts components and matches no cell;
    from q = 1 on it matches the cells through degree min(q + 1, dim) when that is 2 or more.
    """
    if k.is_empty:
        return False
    if q < 0:
        return True
    hom = reduced_homology(k, max_degree=min(q, k.dim))
    return all(hom.is_trivial(d) for d in range(0, min(q, k.dim) + 1))


def homological_connectivity(k: SimplicialComplex) -> int:
    """Largest q with vanishing reduced homology through degree q.

    -2 for the empty complex, -1 for nonempty, capped at the dimension.
    """
    if k.is_empty:
        return -2
    hom = reduced_homology(k)
    q = -1
    while q + 1 <= k.dim and hom.is_trivial(q + 1):
        q += 1
    return q


def wcm_check(k: SimplicialComplex, n: int) -> tuple[bool, str | None]:
    """Weakly Cohen-Macaulay of dimension n, read homologically.

    Requires (n-1)-acyclicity of the complex and (n-p-2)-acyclicity of every
    p-simplex link; thresholds at or below -2 are vacuous, -1 means nonempty.
    The threshold falls as p grows, so the scan stops at the first vacuous
    one; at -1 the link of s is empty exactly when s is maximal, so links
    are built only at thresholds 0 and up, and that layer's ``_maximal``
    simplices are the only ones computed.
    """
    def meets(complex_, target, what):
        if target <= -2:
            return None
        if complex_.is_empty:
            return f"{what} is empty but must be {target}-connected"
        if target >= 0 and not is_q_acyclic(complex_, target):
            return f"{what} is not {target}-acyclic"
        return None

    problem = meets(k, n - 1, "complex")
    if problem:
        return False, problem
    for d in sorted(k.simplices):
        target = n - d - 2
        if target <= -2:
            break
        maximal = k._maximal(d) if target == -1 else ()
        for s in sorted(k.simplices[d]):
            if target >= 0:
                problem = meets(link(k, s), target, f"link of {s}")
            elif s in maximal:
                problem = f"link of {s} is empty but must be -1-connected"
            if problem:
                return False, problem
    return True, None


# -- truncated stability complexes -------------------------------------------


def _check_truncation(k: int, n: int, bound: int) -> None:
    """Reject truncation parameters outside k >= 1, n >= 1 and bound >= 0."""
    if n < 1 or bound < 0:
        raise ValidationError("need n >= 1 and bound >= 0")
    if k < 1:
        raise ValidationError("need k >= 1")


def _bounded_vertices(
    k: int, n: int, bound: int, size_limit: int | None
) -> tuple[tuple[Ray, ...], list[tuple], list[frozenset]]:
    """The threshold-B domain cells, each B-bounded vertex as its leaf (the translations
    picked, one per domain cell, each shared by all leaves) and the leaves' image cells the
    backtracking prunes on.  A cell's options, target first, come off ``_vertex_template``.
    The vertex guard counts leaves, before ``_vertex_map``.
    """
    _check_truncation(k, n, bound)
    offsets = itertools.product(range(-bound, bound + 1), repeat=k)
    moves = {(off, t): _translation(off, t) for off in offsets for t in range(1, n + 1)}
    options = [[(moves[off, t], frozenset([(t, base) for base in bases]))
                for t in range(1, n + 1) for off, bases in cell_options]
               for cell_options in _vertex_template(k, bound)[2]]
    leaves, cells = [], []

    def backtrack(i: int, used: frozenset, chosen: tuple) -> None:
        if i == len(options):
            leaves.append(chosen)
            cells.append(used)
            if size_limit is not None and len(leaves) > size_limit:
                raise SizeLimitError(
                    f"vertex enumeration exceeds the size limit {size_limit}: "
                    f"{len(leaves)} vertices"
                )
            return
        for tr, image in options[i]:
            if used.isdisjoint(image):
                backtrack(i + 1, used | image, chosen + (tr,))

    backtrack(0, frozenset(), ())
    return grid_cells(k, bound), leaves, cells


@lru_cache(maxsize=32)
def _vertex_template(k: int, bound: int) -> tuple[tuple, tuple, tuple, tuple]:
    """What every leaf's canonical table and image cells read off ``grid_cells(k, B)``.

    ``pairs``: each ``(b, i, j)`` with domain cells i and j neighbours in one coordinate,
    at values b and b+1, highest b first.  ``levels[t]``: for each t <= B, the t-cells in
    ``(dirs, base)`` order, the copy-1 ``MarkedRay``s of ``rays._grid_template`` that every
    map table on that grid shares, each with the index of the domain cell at its base, one
    of the domain cells it is the union of.
    ``options[i]``: the offsets in [-B, B]^k, in product order, that keep domain cell i in N^k,
    each with the bases of its translate's cells on ``cuts``, 1..2B+1, the fitted cuts of all.
    """
    domain = grid_cells(k, bound)
    index = {cell.base: i for i, cell in enumerate(domain)}
    pairs = sorted(
        ((base[j], i, index[base[:j] + (base[j] + 1,) + base[j + 1:]])
         for base, i in index.items() for j in range(k) if base[j] <= bound),
        reverse=True,
    )
    levels = tuple(
        tuple(zip(_grid_template(k, t, 1), (index[cell.base] for cell in grid_cells(k, t))))
        for t in range(bound + 1)
    )
    cuts = (tuple(range(1, 2 * bound + 2)),) * k
    options = tuple(tuple((off, tuple(_cell_bases(_moved(cell, off), cuts)))
                          for off in itertools.product(range(-bound, bound + 1), repeat=k)
                          if all(b + d >= 1 for b, d in zip(cell.base, off)))
                    for cell in domain)
    return tuple(pairs), levels, options, cuts


def _vertex_map(k: int, n: int, bound: int, leaf: tuple) -> HoughtonMap:
    """The vertex of a ``_bounded_vertices`` leaf, one translation per ``grid_cells(k, B)``
    cell, built by ``houghton._map_of_cells`` on the table read off ``_vertex_template``.

    A level merges exactly when no coordinate changes translation between t and t+1, so t* is
    the b of the first pair whose shared translations are not one object, or 0; a t*-cell
    takes the translation of the domain cell at its base, as ``rays._full_grid`` would.
    """
    pairs, levels, _, _ = _vertex_template(k, bound)
    t = next((b for b, i, j in pairs if leaf[i] is not leaf[j]), 0)
    return _map_of_cells(k, 1, n, (t, tuple((cell, leaf[i]) for cell, i in levels[t])))


def enumerate_bounded_vertices(
    k: int, n: int, bound: int, size_limit: int | None = DEFAULT_SIZE_LIMIT
) -> list[HoughtonMap]:
    """All ray injections N^k -> N^k x [n] that are B-bounded, in canonical form.

    Equivalently: all assignments of a translation with offsets in [-B, B]^k
    to each cell of the threshold-B grid of the domain, with pairwise
    disjoint images.  Backtracking prunes on shared image cells.
    """
    _, leaves, _ = _bounded_vertices(k, n, bound, size_limit)
    return [_vertex_map(k, n, bound, leaf) for leaf in leaves]


_ONE = re.compile("1")


def _bits(mask: int) -> list[int]:
    """The positions of the set bits of ``mask`` >= 0, ascending, read in one pass
    over its binary digits: O(width + bits), where peeling the low bit off one at a
    time copies the whole int for every bit."""
    return [m.start() for m in _ONE.finditer(bin(mask)[:1:-1])]


def _component(masks: list[int], start: int) -> int:
    """The bitmask of the vertices joined to ``start`` in the graph whose
    neighbours of v are the set bits of ``masks[v]``: each round ORs the
    masks of the last round's new vertices and keeps the bits not yet seen."""
    seen = frontier = 1 << start
    while frontier:
        reach = 0
        for v in _bits(frontier):
            reach |= masks[v]
        frontier = reach & ~seen
        seen |= frontier
    return seen


def pi_projection(vertex: HoughtonMap) -> int:
    """Target copy of the vertex's full-dimensional ray."""
    if vertex.m != 1:
        raise ValidationError("projection applies to vertices (single-copy domains)")
    return _k_piece(vertex, 1)[1].target_copy


def simplex_test(vertices: list[HoughtonMap]) -> bool:
    """Tuples of vertices span a simplex iff their images are disjoint.

    Full-size tuples (as many vertices as copies) must additionally cover
    the whole codomain, matching the top-dimensional automorphism condition.
    Both are decided by one ``_disjoint_cover`` over the image rays of all the
    vertices, once ``validate`` has checked each one, so that its own rays are disjoint.
    """
    if not vertices:
        raise ValidationError("need at least one vertex")
    k, n = vertices[0].k, vertices[0].n
    if any((v.k, v.m, v.n) != (k, 1, n) for v in vertices):
        raise ValidationError("vertices must share one ambient and single-copy domains")
    if len(vertices) > n:
        raise ValidationError(f"at most {n} vertices can span a simplex")
    if len({id(v) for v in vertices}) != len(vertices):
        raise ValidationError("repeated vertex")
    disjoint, covers = _disjoint_cover(
        k, n, [(m.copy, m.ray.base, m.ray.dirs) for v in vertices for m in _checked_rays(v)]
    )
    return disjoint and (len(vertices) < n or covers)


def build_sn_truncated(
    k: int,
    n: int,
    bound: int,
    include_top: bool = False,
    size_limit: int | None = DEFAULT_SIZE_LIMIT,
) -> SimplicialComplex:
    """The B-bounded truncation of S_n, with vertex maps as labels.

    Vertices are the B-bounded ray injections; p+1 of them span a p-simplex
    when their images are pairwise disjoint, for p+1 < n.  Sets of n vertices
    are included as top simplices only with ``include_top``, and then also
    need jointly surjective images.

    The disjointness graph is one ``_disjoint_masks`` bitmask per vertex,
    read off the cells the enumeration pruned on and cut to the neighbours
    above it; for n >= 3 its vertices and edges are counted
    against ``size_limit`` as each mask is formed, before any layer is
    listed.  (For n = 2 the only edge layer is the top one, which keeps just
    the covering pairs, so there the layer count guards it.)  The vertex maps
    are built from the leaves after that guard, before the layers.  A clique's
    extensions are the set bits, ascending, of the AND of its vertices' masks;
    they are counted against ``size_limit`` by ``int.bit_count`` before any is
    listed.  A top simplex needs disjoint images whose cell counts sum to the
    cell total, that is, which cover every cell, so a top-layer clique's AND
    also keeps only the vertices with the one cell count that fills it.  The
    simplices come out layer by layer, already face-closed, so no second
    closure pass runs.
    """
    _, leaves, cells = _bounded_vertices(k, n, bound, size_limit)
    cells_total = n * (2 * bound + 1) ** k
    max_dim = n - 1 if include_top else n - 2
    if include_top and n == 1:
        leaves = [leaf for leaf, c in zip(leaves, cells) if len(c) == cells_total]
    count = len(leaves)
    limit = math.inf if size_limit is None else size_limit
    # later[v]: the neighbours of v above it, enough to grow sorted cliques
    later: list[int] = []
    total = count
    if max_dim >= 1:
        for v, mask in enumerate(_disjoint_masks(cells)):
            later.append(mask >> (v + 1) << (v + 1))
            if n >= 3:
                total += later[v].bit_count()
                if total > limit:
                    raise SizeLimitError(
                        f"disjointness graph exceeds the size limit {size_limit}: "
                        f"{total} vertices and edges"
                    )
    labels = tuple(_vertex_map(k, n, bound, leaf) for leaf in leaves)
    # by_count[c]: the vertices whose images have c cells, for the top layer
    by_count: dict[int, int] = {}
    if include_top:
        for v, c in enumerate(cells):
            by_count[len(c)] = by_count.get(len(c), 0) | 1 << v
    layers = [[(i,) for i in range(count)]]
    total = count
    for dim in range(1, max_dim + 1):
        next_layer = []
        for s in layers[-1]:
            common = later[s[0]]
            for v in s[1:]:
                common &= later[v]
            if dim == n - 1:
                common &= by_count.get(cells_total - sum(len(cells[v]) for v in s), 0)
            total += common.bit_count()
            if total > limit:
                raise SizeLimitError(
                    f"simplex layers exceed the size limit {size_limit}: "
                    f"{limit + 1} simplices at dimension {dim}"
                )
            next_layer += [s + (w,) for w in _bits(common)]
        layers.append(next_layer)
    simplices = {d: frozenset(layer) for d, layer in enumerate(layers) if layer}
    return SimplicialComplex(labels, simplices)


# -- sections of the copy projection ------------------------------------------


def _checked_rays(v: HoughtonMap, what: str = "vertex") -> tuple[MarkedRay, ...]:
    """The image rays of ``v`` once ``validate`` has checked it."""
    diag = validate(v)
    if not diag.valid:
        raise ValidationError(f"invalid {what}: {diag.problems}")
    return _image_rays(v)


def _check_ambient(k: int, n: int) -> None:
    """Reject an ambient N^k x [n] with k < 1 or n < 1, naming k first."""
    if k < 1 or n < 1:
        raise ValidationError("need k >= 1" if k < 1 else "need n >= 1")


def _s_images(k: int, n: int, s_vertices: list[HoughtonMap]) -> list[tuple[MarkedRay, ...]]:
    """Each vertex of S checked once, its shape ``(k, 1, n)`` and then ``validate``, and
    its image rays, which the section's avoidance and its check reuse."""
    images = []
    for v in s_vertices:
        if (v.k, v.m, v.n) != (k, 1, n):
            raise ValidationError(f"vertex {v} does not live in the (k={k}, n={n}) complex")
        images.append(_checked_rays(v, "vertex in S"))
    return images


def build_s_section(k: int, n: int, s_vertices: list[HoughtonMap]) -> list[HoughtonMap]:
    """Vertices f_1..f_n sending the full ray far enough out into each copy.

    f_p lands in copy p beyond everything the given vertices reach there,
    except for vertices whose own full ray already occupies copy p, which a
    section cannot and need not avoid.  k and n are checked first, then S by
    ``_s_images``, whose image rays the avoidance lists are built from.
    """
    _check_ambient(k, n)
    return _s_section(k, n, s_vertices, _s_images(k, n, s_vertices))


def _s_section(
    k: int, n: int, s_vertices: list[HoughtonMap], s_images: list[tuple[MarkedRay, ...]]
) -> list[HoughtonMap]:
    """``build_s_section`` on valid vertices, with their image rays."""
    avoid: dict[int, list[Ray]] = {p: [] for p in range(1, n + 1)}
    for v, rays in zip(s_vertices, s_images):
        own = pi_projection(v)
        for m in rays:
            if m.copy != own:
                avoid[m.copy].append(m.ray)
    return [_far_vertex(k, n, p, _far_offset(avoid[p])) for p in range(1, n + 1)]


def _far_offset(blockers: list[Ray]) -> int:
    """The least uniform M >= 0 whose orthant, based at (M+1, ..., M+1), misses
    ``blockers``: each keeps a pinned coordinate below M+1, and a full ray is rejected."""
    offset = 0
    for ray in blockers:
        pinned = [b for j, b in enumerate(ray.base, start=1) if j not in ray.dirs]
        if not pinned:
            raise ValidationError(f"cannot avoid the full ray {ray}")
        offset = max(offset, min(pinned))
    return offset


def _far_vertex(k: int, n: int, copy: int, offset: int) -> HoughtonMap:
    """The vertex translating N^k by (offset, ..., offset) into ``copy``, built unchecked
    with its table: for ``copy`` in [1, n] and ``offset`` >= 0 its one piece is the one
    threshold-0 cell."""
    full = _marked(_ray((1,) * k, tuple(range(1, k + 1))), 1)
    return _map_of_cells(k, 1, n, (0, ((full, _translation((offset,) * k, copy)),)))


def verify_s_section(
    k: int, n: int, s_vertices: list[HoughtonMap], rho: list[HoughtonMap]
) -> tuple[bool, tuple | None]:
    """Check the link biconditional defining an S-section.

    For every simplex sigma spanned by S and every simplex tau of the
    codomain skeleton: tau lies in the link of the projected sigma iff the
    section's image of tau lies in the link of sigma.  Returns the first
    failing pair, if any; the pairs ({v}, {p}) decide, as ``_verify_s_section``
    explains.  k and n are checked first, then every vertex, the section's and
    then S's by ``_s_images``, whose image rays the check reuses.
    """
    _check_ambient(k, n)
    for f in rho:
        _checked_rays(f)
    return _verify_s_section(k, n, s_vertices, rho, _s_images(k, n, s_vertices))


def _verify_s_section(
    k: int, n: int, s_vertices: list[HoughtonMap], rho: list[HoughtonMap],
    s_images: list[tuple[MarkedRay, ...]],
) -> tuple[bool, tuple | None]:
    """``verify_s_section`` on valid vertices: S, checked by ``_s_images`` or
    built valid by the caller, and a section such as ``_s_section`` builds.

    Two facts reduce the biconditional to the |S| * n pairs ({v}, {p}):

    - pi is injective on every simplex, since two full orthants in one copy
      meet, so for tau missing pi(sigma) "tau + pi(sigma) spans" and
      |sigma| + |tau| <= n - 1 agree;
    - each side is then an AND over the pairs (v in sigma, p in tau), of
      pi(v) != p and of "rho(p) misses v".

    So for n >= 3 every (sigma, tau) passes exactly when every ({v}, {p}) does,
    and the first failure, sigma by size and index and tau by size and value,
    is the first such v with its least such p; a repeat of v comes after it.
    For n < 3 no pair is short enough on either side.  Otherwise one
    ``_cell_sets`` grid is fitted to S's image rays ``s_images`` and the
    section's, and one ``_disjoint_masks`` bitmask per map read off it, the
    section's first: "rho(p) misses v" is bit p-1 of v's mask, and the section
    must span a simplex.  ``tests/_oracles.py::verify_s_section_by_pairs``, the
    exhaustive check, is the reference.
    """
    if len(rho) != n:
        raise ValidationError(f"section must assign all {n} copies")
    for p, f in enumerate(rho, start=1):
        if pi_projection(f) != p:
            raise ValidationError(f"not a section: assigned vertex for copy {p} projects to {pi_projection(f)}")
    if n < 3:
        return True, None
    masks = list(_disjoint_masks(_cell_sets(k, [*map(_image_rays, rho), *s_images])[1]))
    section = (1 << n) - 1
    if any(masks[p] & section != section ^ 1 << p for p in range(n)):
        raise ValidationError("not a section: assigned vertices do not span simplices")
    for v, mask in zip(s_vertices, masks[n:]):
        # rho(p) should miss v exactly for p != pi(v)
        wrong = mask & section ^ section ^ 1 << (pi_projection(v) - 1)
        if wrong:
            return False, ((map_to_json(v),), ((wrong & -wrong).bit_length(),))
    return True, None


def simplexwise_injective_check(
    domain: SimplicialComplex,
    codomain: SimplicialComplex,
    vertex_map: dict[int, int] | list[int],
) -> bool:
    """True when every simplex maps to a simplex of the same dimension.

    Raises when the vertex assignment is not simplicial at all.
    """
    get = vertex_map.__getitem__
    for s in domain.all_simplices():
        image = tuple(sorted({get(v) for v in s}))
        if image not in codomain:
            raise ValidationError(f"vertex map is not simplicial on {s}")
        if len(image) != len(s):
            return False
    return True


def _intermediate(n: int, domain: tuple[Ray, ...], u: tuple, w: tuple) -> tuple[int, int]:
    """The ``(copy, offset)`` of the far vertex missing both images of the leaves u and w,
    in a copy neither's full domain cell is sent to, past their translated cells there."""
    pieces = [(cell, tr) for v in (u, w) for cell, tr in zip(domain, v)]
    occupied = {tr.target_copy for cell, tr in pieces if cell.is_full}
    copy = next(c for c in range(1, n + 1) if c not in occupied)
    return copy, _far_offset([_moved(cell, tr.offset) for cell, tr in pieces if tr.target_copy == copy])


def _far_cells(k: int, bound: int, copy: int, offset: int) -> frozenset:
    """The cells of the enumeration grid (``_vertex_template``'s ``cuts``) that the far vertex
    ``(copy, offset)`` meets, for M above B: its orthant's, base M+1 clipped to the top cut."""
    cuts = _vertex_template(k, bound)[3]
    orthant = _ray((min(offset + 1, cuts[0][-1]),) * k, tuple(range(1, k + 1)))
    return frozenset((copy, base) for base in _cell_bases(orthant, cuts))


def connectivity_probe(
    k: int,
    n: int,
    bound: int,
    slack: int,
    trials: int,
    seed: int,
    size_limit: int | None = DEFAULT_SIZE_LIMIT,
) -> dict:
    """Path-connect sampled pairs of bounded vertices inside a larger truncation.

    Pairs of B-bounded vertices are joined either directly or through a far
    translate into a copy that neither endpoint's full ray occupies.  That
    intermediate misses both endpoints by construction, so it is not tested
    against them; its offset must stay within B+slack.  Only a failing pair's
    maps are built, and none is compared: vertices are known by their leaves and
    far vertices by ``(copy, offset)``; one with offset at most B is enumerated,
    and each distinct key above B adds its ``_far_cells`` to the pool, in
    first-seen order.  The report also gives the size of the first vertex's
    component in the ``_disjoint_masks`` graph of the pool, read by ``_component``.
    """
    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    if slack < 0:
        raise ValidationError(f"slack must be >= 0, got {slack}")
    report: dict = {"k": k, "n": n, "bound": bound, "slack": slack, "trials": trials}
    domain, leaves, cells = _bounded_vertices(k, n, bound, size_limit)
    report["bounded_vertices"] = len(leaves)
    if n < 3:
        report["claim"] = "only (-1)-connectivity (nonempty) is asserted for n < 3"
        report["nonempty"] = bool(leaves)
        return report
    report["claim"] = "sampled pairs connect within the enlarged truncation"
    rng = random.Random(seed)
    indices = range(len(leaves))  # the same draws as choosing from the list
    far: dict[tuple[int, int], None] = {}
    lengths = []  # one per connected pair
    failures = []
    for _ in range(trials):
        i, j = rng.choice(indices), rng.choice(indices)
        if i == j or cells[i].isdisjoint(cells[j]):
            lengths.append(0 if i == j else 1)
            continue
        copy, offset = _intermediate(n, domain, leaves[i], leaves[j])
        if offset <= bound + slack:
            lengths.append(2)
            if offset > bound:
                far[copy, offset] = None
        else:
            pair = (_vertex_map(k, n, bound, leaves[x]) for x in (i, j))
            failures.append(tuple(map(map_to_json, pair)))
    report["connected_pairs"] = len(lengths)
    report["disconnected_pairs"] = len(failures)
    report["max_path_length"] = max(lengths, default=0)
    report["failures"] = failures

    pool = cells + [_far_cells(k, bound, copy, offset) for copy, offset in far]
    report["component_size"] = _component(list(_disjoint_masks(pool)), 0).bit_count()
    # reduced H_0 of a connected component is zero
    report["component_betti0"] = 0
    return report


# -- JSON ---------------------------------------------------------------------


def _label_to_json(label):
    if isinstance(label, HoughtonMap):
        return map_to_json(label)
    return label


def complex_to_json(k: SimplicialComplex) -> dict:
    return {
        "vertices": [_label_to_json(v) for v in k.vertices],
        "maximal_simplices": [list(s) for s in k.maximal_simplices()],
    }


def complex_from_json(data: dict, size_limit: int | None = DEFAULT_SIZE_LIMIT) -> SimplicialComplex:
    try:
        vertices, maximal = data["vertices"], data["maximal_simplices"]
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"malformed complex object: {exc}") from exc
    # a string or an object would otherwise be read as its characters or keys
    for field, value in (("vertices", vertices), ("maximal_simplices", maximal)):
        if not isinstance(value, (list, tuple)):
            raise ValidationError(f"{field} must be a JSON array, got {type(value).__name__}")
    if not all(isinstance(s, (list, tuple)) for s in maximal):
        raise ValidationError("every entry of maximal_simplices must be a JSON array")
    labels = tuple(map_from_json(v) if isinstance(v, dict) and "pieces" in v else v for v in vertices)
    # ``build`` checks each simplex's entries; as tuples, its messages read as they always have
    return SimplicialComplex.build(labels, map(tuple, maximal), size_limit)


def homology_to_json(hom: HomologyResult) -> list[dict]:
    return [
        {"degree": d, "betti": b, "torsion": list(t)} for d, b, t in hom.entries
    ]
