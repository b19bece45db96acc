"""Independent brute-force oracles used by the test suite.

Everything here recomputes expected values from first principles (pointwise
enumeration over boxes, cofactor determinants, gcds of minors) without going
through the code paths under test.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from math import gcd


def box_points(k: int, hi: int):
    """All points of [1..hi]^k."""
    return itertools.product(range(1, hi + 1), repeat=k)


def ray_points_in_box(base, dirs, k: int, hi: int) -> set:
    """Pointwise evaluation of the ray membership conditions over a box."""
    free = set(dirs)
    out = set()
    for p in box_points(k, hi):
        ok = True
        for j, (x, b) in enumerate(zip(p, base), start=1):
            if j in free:
                if x < b:
                    ok = False
                    break
            elif x != b:
                ok = False
                break
        if ok:
            out.add(p)
    return out


def marked_points_in_box(marked_rays, k: int, n: int, hi: int) -> set:
    """Points of N^k x [n] inside a box covered by a list of (base, dirs, copy)."""
    out = set()
    for base, dirs, copy in marked_rays:
        for p in ray_points_in_box(base, dirs, k, hi):
            out.add((p, copy))
    return out


def bounded_vertex_census(n: int) -> int:
    """Independent count of 1-bounded vertices N x [1] -> N x [n] (k = 1).

    A 1-bounded vertex translates each cell of the threshold-1 grid of N,
    ``{1}`` and ``[2, oo)``, by an offset in [-1, 1] into some copy; it is
    counted when the offset keeps the cell inside N and the two images,
    enumerated pointwise over a box, are disjoint.
    """
    cells = [((1,), ()), ((2,), (1,))]
    options = []
    for base, dirs in cells:
        opts = []
        for target in range(1, n + 1):
            for d in (-1, 0, 1):
                if base[0] + d >= 1:
                    opts.append((d, target))
        options.append(opts)
    count = 0
    for combo in itertools.product(*options):
        marked = [
            ((base[0] + d,), dirs, target)
            for (base, dirs), (d, target) in zip(cells, combo)
        ]
        sets = [marked_points_in_box([m], 1, n, 8) for m in marked]
        if sets[0] & sets[1]:
            continue
        count += 1
    return count


def raw_pieces(f):
    """Flatten a HoughtonMap into plain tuples for the oracles below."""
    return [
        (dom.ray.base, dom.ray.dirs, dom.copy, tr.offset, tr.target_copy)
        for dom, tr in f.pieces
    ]


def apply_raw(pieces, point, copy):
    """Apply a piecewise translation by scanning raw membership conditions."""
    hits = []
    for base, dirs, pcopy, offset, target in pieces:
        if pcopy != copy:
            continue
        free = set(dirs)
        ok = all(
            (x >= b) if j in free else (x == b)
            for j, (x, b) in enumerate(zip(point, base), start=1)
        )
        if ok:
            hits.append((tuple(x + d for x, d in zip(point, offset)), target))
    assert len(hits) == 1, f"point {point} copy {copy} hit {len(hits)} pieces"
    return hits[0]


def apply_map_by_table_scan(f, point, copy):
    """``houghton.apply_map`` as it was before it read its piece by index: a scan of the
    canonical table for the piece on the threshold cell that holds the point."""
    from hforge.houghton import _table_of
    from hforge.rays import cell_of_point

    t, pieces = _table_of(f)
    cell = cell_of_point(point, t)
    tr = next(label for dom, label in pieces if dom.copy == copy and dom.ray == cell)
    return tuple(x + d for x, d in zip(point, tr.offset)), tr.target_copy


def det_cofactor(rows) -> int:
    """Determinant by cofactor expansion; exact, independent of elimination."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * rows[0][j] * det_cofactor(minor)
    return total


def minor_gcd_diagonal(rows, ncols: int) -> list[int]:
    """Smith diagonal via gcds of j x j minors.

    d_1 ... d_j equals the gcd of all j x j minors; entries after the rank
    are zero.  Exponential, fine for the small matrices the tests feed it.
    """
    nrows = len(rows)
    r = min(nrows, ncols)
    diag = []
    prev = 1
    for size in range(1, r + 1):
        g = 0
        for ris in itertools.combinations(range(nrows), size):
            for cis in itertools.combinations(range(ncols), size):
                sub = [[rows[i][j] for j in cis] for i in ris]
                g = gcd(g, abs(det_cofactor(sub)))
                if g == 1:
                    break
            if g == 1:
                break
        if g == 0:
            diag.extend([0] * (r - size + 1))
            return diag
        diag.append(g // prev)
        prev = g
    return diag


def rank_over_q(rows, ncols: int) -> int:
    """Row reduction over the rationals."""
    mat = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        pivot = next((i for i in range(rank, nrows) if mat[i][col] != 0), None)
        if pivot is None:
            col += 1
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pv = mat[rank][col]
        for i in range(nrows):
            if i != rank and mat[i][col] != 0:
                factor = mat[i][col] / pv
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
        col += 1
    return rank


def mat_mul_dense(a, b, cols: int):
    """``snf.mat_mul`` as it first was: every row of ``a`` against every
    column of ``b`` by transpose and zip, zero entries included."""
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{cols}")
    if not b:
        return tuple((0,) * cols for _ in a)
    bt = list(zip(*b))
    return tuple(tuple(sum(map(operator.mul, row, col)) for col in bt) for row in a)


# Minimal 6-vertex triangulation of the real projective plane: antipodal
# quotient of the icosahedron.  Every edge lies in exactly two facets.
RP2_FACETS = (
    (1, 2, 6),
    (2, 3, 6),
    (3, 4, 6),
    (4, 5, 6),
    (1, 5, 6),
    (1, 2, 4),
    (2, 3, 5),
    (1, 3, 4),
    (2, 4, 5),
    (1, 3, 5),
)


def boundary_matrices_from_facets(facets):
    """Hand-rolled simplicial boundary matrices (d1, d2) for a 2-complex.

    Facets are given as sorted vertex triples; edges are all sorted pairs
    occurring in facets.  Signs follow the alternating face rule on sorted
    simplices.
    """
    edges = sorted({(s[i], s[j]) for s in facets for i in range(3) for j in range(i + 1, 3)})
    vertices = sorted({v for s in facets for v in s})
    vindex = {v: i for i, v in enumerate(vertices)}
    eindex = {e: i for i, e in enumerate(edges)}
    d1 = [[0] * len(edges) for _ in vertices]
    for e, col in eindex.items():
        a, b = e
        d1[vindex[a]][col] = -1
        d1[vindex[b]][col] = 1
    d2 = [[0] * len(facets) for _ in edges]
    for col, f in enumerate(facets):
        for omit in range(3):
            face = tuple(v for i, v in enumerate(f) if i != omit)
            sign = -1 if omit % 2 else 1
            d2[eindex[face]][col] = sign
    return d1, d2


def maximal_simplices_quadratic(simplices) -> list:
    """Maximal simplices by comparing each simplex with every one kept so far.

    ``simplices`` maps dimension to a set of sorted tuples.  Simplices are
    scanned from the top dimension down and kept unless they are a proper
    subset of one already kept; quadratic, and independent of face closure.
    """
    out = []
    for d in sorted(simplices, reverse=True):
        for s in sorted(simplices[d]):
            sset = set(s)
            if not any(sset < set(m) for m in out):
                out.append(s)
    return sorted(out, key=lambda s: (len(s), s))


def images_disjoint_all_pairs(a, b) -> bool:
    """Whether two tuples of marked image rays are disjoint, via every pair.

    Intersects each ray of ``a`` with each ray of ``b`` through
    ``marked_intersect``, whatever their copies.
    """
    from hforge.rays import marked_intersect

    return all(marked_intersect(x, y) is None for x in a for y in b)


def _image_points(v, hi: int) -> set:
    marked = [
        (tuple(b + d for b, d in zip(base, offset)), dirs, target)
        for base, dirs, _, offset, target in raw_pieces(v)
    ]
    return marked_points_in_box(marked, v.k, v.n, hi)


def sn_simplices_brute_force(vertices, include_top: bool) -> dict:
    """Simplices per degree of the bounded truncation on ``vertices``.

    Every subset of at most n - 1 vertices (n with ``include_top``) is
    tested pointwise.  Two rays that meet share the point whose coordinates
    are the larger of their bases, and a union of rays covers N^k once it
    covers every grid cell's base point, so the box [1, M + 1]^k, with M the
    largest image base coordinate, decides both disjointness and coverage.
    Every vertex is a 0-simplex, except that for n = 1 with ``include_top``
    a vertex is a top simplex and must cover.  Simplices are tuples of
    indices into ``vertices``.
    """
    k, n = vertices[0].k, vertices[0].n
    hi = 1 + max(
        b + d for v in vertices for base, _, _, offset, _ in raw_pieces(v)
        for b, d in zip(base, offset)
    )
    points = [_image_points(v, hi) for v in vertices]
    everything = hi**k * n
    top = n if include_top else max(n - 1, 1)
    out: dict = {}
    for size in range(1, top + 1):
        for combo in itertools.combinations(range(len(vertices)), size):
            if any(points[a] & points[b] for a, b in itertools.combinations(combo, 2)):
                continue
            if include_top and size == n and sum(len(points[i]) for i in combo) != everything:
                continue
            out.setdefault(size - 1, set()).add(combo)
    return out


# -- the grid layer as it was before rays.py owned it alone -----------------


def cells_within_ray(ray, t: int):
    """The t-grid cells whose union is ``ray``, for t >= ray.threshold: its
    ``_cell_bases`` on the threshold cuts 1..t+1."""
    from hforge.rays import Ray, _cell_bases

    for base in _cell_bases(ray, (range(1, t + 2),) * ray.k):
        yield Ray(base, tuple(j for j, b in enumerate(base, start=1) if b > t))


def partition_validate_pairwise(p):
    """``rays.partition_validate`` with its first overlapping pair found by
    ``marked_intersect``; returns the (ok, reason) of its diagnostics."""
    from hforge.rays import marked_intersect

    for a, b in itertools.combinations(p.cells, 2):
        if marked_intersect(a, b) is not None:
            return False, f"cells overlap: {a} and {b}"
    t = max(p.region.threshold, max((m.ray.threshold for m in p.cells), default=0))
    region_rays = {c: [m.ray for m in p.region.rays if m.copy == c] for c in range(1, p.region.n + 1)}
    cell_rays = {c: [m.ray for m in p.cells if m.copy == c] for c in range(1, p.region.n + 1)}
    for copy, rays in cell_rays.items():
        for ray in rays:
            for sub in cells_within_ray(ray, t):
                if not any(h.contains(sub.base) for h in region_rays[copy]):
                    return False, f"cell {ray} on copy {copy} leaves the region near {sub.base}"
    for copy, hosts in region_rays.items():
        for host in hosts:
            for sub in cells_within_ray(host, t):
                if not any(c.contains(sub.base) for c in cell_rays[copy]):
                    return False, f"uncovered cell {sub} on copy {copy}"
    return True, None


def validate_reference(f):
    """(valid, bijective, problems) of a map, by the three geometric passes of
    the first ``houghton.validate``: a partition check of the domain against
    the full region, a pairwise ``marked_intersect`` over the image rays, and,
    when m = n, the grid cells no image ray contains."""
    from hforge.rays import RayPartition, Region, grid_cells, marked_intersect

    problems = []
    ok, reason = partition_validate_pairwise(
        RayPartition(Region.full(f.k, f.m), tuple(dom for dom, _ in f.pieces))
    )
    if not ok:
        problems.append(f"domain is not a ray partition: {reason}")
    images = [f.image_ray(p) for p in f.pieces]
    for a, b in itertools.combinations(images, 2):
        if marked_intersect(a, b) is not None:
            problems.append(f"image rays overlap: {a} and {b}")
            break
    bijective = False
    if not problems and f.m == f.n:
        t = max(m.ray.threshold for m in images)
        bijective = all(
            any(m.copy == copy and m.ray.contains(cell.base) for m in images)
            for copy in range(1, f.n + 1)
            for cell in grid_cells(f.k, t)
        )
    return not problems, bijective, tuple(problems)


def _cell_children(cell, t: int) -> list:
    """The t-grid cells partitioning a (t-1)-grid cell."""
    from hforge.rays import Ray

    options = []
    for j, b in enumerate(cell.base, start=1):
        options.append(((t, False), (t + 1, True)) if j in cell.dirs else ((b, False),))
    return [
        Ray(tuple(v for v, _ in combo), tuple(j for j, (_, f) in enumerate(combo, start=1) if f))
        for combo in itertools.product(*options)
    ]


def canonical_table_children_scan(f):
    """(t, sorted ((copy, cell), translation) items) of a map, coarsened by
    scanning every (t-1)-cell's children for one common translation; raises
    ``ValidationError`` on overlapping or missing domain pieces."""
    from hforge.errors import ValidationError
    from hforge.rays import grid_cells

    t = max(dom.ray.threshold for dom, _ in f.pieces)
    table = {}
    for dom, tr in f.pieces:
        for cell in cells_within_ray(dom.ray, t):
            key = (dom.copy, cell)
            if key in table and table[key] != tr:
                raise ValidationError(f"domain pieces overlap on copy {dom.copy} at {cell}")
            table[key] = tr
    if len(table) != f.m * (t + 1) ** f.k:
        raise ValidationError("domain pieces do not cover every copy")
    while t > 0:
        merged = {}
        for copy in range(1, f.m + 1):
            for parent in grid_cells(f.k, t - 1):
                trs = {table[(copy, child)] for child in _cell_children(parent, t)}
                if len(trs) != 1:
                    return t, tuple(sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())))
                merged[(copy, parent)] = trs.pop()
        table = merged
        t -= 1
    return t, tuple(sorted(table.items(), key=lambda kv: (kv[0][0], kv[0][1].sort_key())))


def canonical_cells_group_by_parent(reg):
    """(t, sorted marked cells) of a region, coarsened by grouping the cells of
    each level under their parents and merging while every group is full."""
    from hforge.rays import MarkedRay, cell_of_point

    if not reg.rays:
        return 0, ()
    t = reg.threshold
    current = {(m.copy, cell) for m in reg.rays for cell in cells_within_ray(m.ray, t)}
    while t > 0:
        groups = {}
        for copy, cell in current:
            groups.setdefault((copy, cell_of_point(cell.base, t - 1)), set()).add(cell)
        if any(len(found) != 2 ** len(parent.dirs) for (_, parent), found in groups.items()):
            break
        current = set(groups)
        t -= 1
    return t, tuple(sorted((MarkedRay(cell, copy) for copy, cell in current), key=MarkedRay.sort_key))


# -- map arithmetic as it was before the canonical table was its only check ---


def inverse_via_validate(g):
    """``houghton.inverse`` as it first was: a full ``validate``, then the
    image rays of g's own pieces with negated translations, canonicalised."""
    from hforge.errors import ValidationError
    from hforge.houghton import HoughtonMap, Translation, canonical_form, validate

    if g.m != g.n:
        raise ValidationError("only m = n maps can be inverted")
    diag = validate(g)
    if not diag.bijective:
        raise ValidationError(f"map is not bijective: {diag.problems or 'image has gaps'}")
    pieces = tuple(
        (g.image_ray((dom, tr)), Translation(tuple(-d for d in tr.offset), dom.copy))
        for dom, tr in g.pieces
    )
    return canonical_form(HoughtonMap(g.k, g.n, g.m, pieces))


def graph_on_box_filtered(f, hi):
    """Pointwise graph of a map on [1..hi]^k, testing every point of every
    piece against the box."""
    graph = {}
    for dom, tr in f.pieces:
        free = set(dom.ray.dirs)
        ranges = [
            range(b, hi + 1) if j in free else range(b, b + 1)
            for j, b in enumerate(dom.ray.base, start=1)
        ]
        for p in itertools.product(*ranges):
            if all(x <= hi for x in p):
                key = (p, dom.copy)
                assert key not in graph
                graph[key] = (tuple(x + d for x, d in zip(p, tr.offset)), tr.target_copy)
    return graph


def compose_global_grid(g, f):
    """``houghton.compose`` as it first was: f's domain is refined to the one
    grid t = tf + tg + max |offset|, fine enough that each translated cell
    lies in a single canonical cell of g, and the result is canonicalised."""
    from hforge.errors import ValidationError
    from hforge.houghton import (
        HoughtonMap,
        MarkedRay,
        Translation,
        _canonical_table,
        canonical_form,
    )
    from hforge.rays import cell_of_point, grid_cells

    if f.k != g.k or f.n != g.m:
        raise ValidationError(
            f"shape mismatch: cannot compose {g.m}->{g.n} after {f.m}->{f.n}"
        )
    tf, f_pieces = _canonical_table(f)
    tg, g_pieces = _canonical_table(g)
    f_table = {(dom.copy, dom.ray): tr for dom, tr in f_pieces}
    g_table = {(dom.copy, dom.ray): tr for dom, tr in g_pieces}
    off = max((abs(d) for tr in f_table.values() for d in tr.offset), default=0)
    t = tf + tg + off
    pieces = []
    for copy in range(1, f.m + 1):
        for cell in grid_cells(f.k, t):
            tr1 = f_table[(copy, cell_of_point(cell.base, tf))]
            moved = cell.translate(tr1.offset)
            gcell = cell_of_point(moved.base, tg)
            if not set(moved.dirs) <= set(gcell.dirs) or not gcell.contains(moved.base):
                raise AssertionError("composition refinement threshold too small")
            tr2 = g_table[(tr1.target_copy, gcell)]
            combined = Translation(
                tuple(a + b for a, b in zip(tr1.offset, tr2.offset)), tr2.target_copy
            )
            pieces.append((MarkedRay(cell, copy), combined))
    return canonical_form(HoughtonMap(f.k, f.m, g.n, tuple(pieces)))


def snf_core_separate_transforms(a, want_transforms: bool):
    """``snf._snf_core`` as it first was: U and V are kept as separate
    matrices that every elementary operation updates by hand, and the
    divisibility scan runs under every pivot, units included.  Returns
    (diag, d, u, v)."""
    d = [list(row) for row in a]
    nrows = len(d)
    ncols = len(d[0]) if d else 0

    def identity(n):
        return [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    u = identity(nrows) if want_transforms else None
    v = identity(ncols) if want_transforms else None

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        if u is not None:
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for row in d:
            row[i], row[j] = row[j], row[i]
        if v is not None:
            for row in v:
                row[i], row[j] = row[j], row[i]

    def add_row(src, dst, factor):
        drow, srow = d[dst], d[src]
        for c in range(ncols):
            drow[c] += factor * srow[c]
        if u is not None:
            urow, usrc = u[dst], u[src]
            for c in range(nrows):
                urow[c] += factor * usrc[c]

    def add_col(src, dst, factor):
        for row in d:
            row[dst] += factor * row[src]
        if v is not None:
            for row in v:
                row[dst] += factor * row[src]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        if u is not None:
            u[i] = [-x for x in u[i]]

    def find_pivot(p):
        best = None
        for i in range(p, nrows):
            row = d[i]
            for j in range(p, ncols):
                x = row[j]
                if x != 0 and (best is None or abs(x) < abs(d[best[0]][best[1]])):
                    best = (i, j)
                    if abs(x) == 1:
                        return best
        return best

    p = 0
    while p < min(nrows, ncols):
        best = find_pivot(p)
        if best is None:
            break
        swap_rows(p, best[0])
        swap_cols(p, best[1])
        while True:
            for i in range(p + 1, nrows):
                if d[i][p]:
                    add_row(p, i, -(d[i][p] // d[p][p]))
            for j in range(p + 1, ncols):
                if d[p][j]:
                    add_col(p, j, -(d[p][j] // d[p][p]))
            dirty = [i for i in range(p + 1, nrows) if d[i][p]] or [
                j for j in range(p + 1, ncols) if d[p][j]
            ]
            if dirty:
                best = find_pivot(p)
                swap_rows(p, best[0])
                swap_cols(p, best[1])
                continue
            offender = None
            for i in range(p + 1, nrows):
                for j in range(p + 1, ncols):
                    if d[i][j] % d[p][p]:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, p, 1)
        if d[p][p] < 0:
            negate_row(p)
        p += 1

    diag = [d[i][i] for i in range(min(nrows, ncols))]
    return diag, d, u, v


def grid_cells_by_mask(k: int, t: int) -> tuple:
    """``rays.grid_cells`` as it first was: one pass per subset S of free
    directions (all 2^k of them), fixing the other coordinates in [1, t]."""
    from hforge.rays import Ray

    cells = []
    for mask in itertools.product((False, True), repeat=k):
        fixed_ranges = [range(1, t + 1) if not free else (t + 1,) for free in mask]
        dirs = tuple(j for j, free in enumerate(mask, start=1) if free)
        for base in itertools.product(*fixed_ranges):
            cells.append(Ray(tuple(base), dirs))
    cells.sort(key=Ray.sort_key)
    return tuple(cells)


# -- overlap and cover before the cell-set tests ------------------------------


def uncovered_cells_by_containment(k: int, n: int, rays):
    """The threshold-grid cells of N^k x [n] that no ray contains, copy by
    copy and least base first: each cell of the largest threshold's grid is
    tested against every ray of its copy through its base point."""
    from hforge.rays import MarkedRay, grid_cells

    per_copy = {c: [] for c in range(1, n + 1)}
    t = 0
    for m in rays:
        per_copy[m.copy].append(m.ray)
        t = max(t, m.ray.threshold)
    cells = sorted(grid_cells(k, t), key=lambda cell: cell.base)
    for copy in range(1, n + 1):
        hosts = per_copy[copy]
        for cell in cells:
            if not any(h.contains(cell.base) for h in hosts):
                yield MarkedRay(cell, copy)


def s_section_holds_by_pairs(s_vertices, rho) -> bool:
    """The link biconditional of ``verify_s_section``, with every simplex
    decided by ``images_disjoint_all_pairs`` on the vertices' image rays."""
    from hforge.complexes import pi_projection
    from hforge.houghton import equals

    n = len(rho)

    def image(v):
        return tuple(v.image_ray(p) for p in v.pieces)

    def is_simplex(maps):
        return all(
            images_disjoint_all_pairs(image(a), image(b))
            for a, b in itertools.combinations(maps, 2)
        )

    distinct = []
    for v in s_vertices:
        if not any(equals(v, w) for w in distinct):
            distinct.append(v)
    for size in range(1, min(len(distinct), n - 1) + 1):
        for sigma in itertools.combinations(distinct, size):
            if not is_simplex(sigma):
                continue
            projected = {pi_projection(v) for v in sigma}
            for tau_size in range(1, n):
                for tau in itertools.combinations(range(1, n + 1), tau_size):
                    lhs = not (set(tau) & projected) and len(set(tau) | projected) <= n - 1
                    joint = list(sigma) + [rho[i - 1] for i in tau]
                    if lhs != (len(joint) <= n - 1 and is_simplex(joint)):
                        return False
    return True


def link_by_closure(k, simplex):
    """Lk(s) found by one scan over every simplex and then face-closed again."""
    from hforge.complexes import SimplicialComplex
    from hforge.errors import ValidationError

    s = tuple(sorted(simplex))
    if s not in k:
        raise ValidationError(f"{simplex!r} is not a simplex of the complex")
    sset = set(s)
    found = set()
    for d, simplices in k.simplices.items():
        if d < len(s):
            continue
        for rho in simplices:
            if sset <= set(rho):
                t = tuple(v for v in rho if v not in sset)
                if t:
                    found.add(t)
    return SimplicialComplex.build(k.vertices, found, size_limit=None)


def star_by_closure(k, simplex):
    """The closed star from a scan over every simplex, face-closed."""
    from hforge.complexes import SimplicialComplex
    from hforge.errors import ValidationError

    s = tuple(sorted(simplex))
    if s not in k:
        raise ValidationError(f"{simplex!r} is not a simplex of the complex")
    sset = set(s)
    found = {rho for simplices in k.simplices.values() for rho in simplices if sset <= set(rho)}
    return SimplicialComplex.build(k.vertices, found, size_limit=None)


def maximal_simplices_by_global_sort(k):
    """``SimplicialComplex.maximal_simplices`` as it was before it sorted layer by
    layer: every layer's maximal simplices gathered, then sorted together through a
    key function."""
    out = []
    for d, layer in k.simplices.items():
        covered = {
            s[:omit] + s[omit + 1 :] for s in k.simplices.get(d + 1, ()) for omit in range(d + 2)
        }
        out.extend(layer - covered)
    return sorted(out, key=lambda s: (len(s), s))


def cofaces_by_full_scan(k, simplex):
    """``complexes._cofaces`` as it was before it read only the layers above the
    simplex: the vertex set of ``simplex`` and every simplex of ``k`` containing it,
    the simplex itself included, found by scanning its own layer and every one above."""
    from hforge.errors import ValidationError

    s = tuple(sorted(simplex))
    if s not in k:
        raise ValidationError(f"{simplex!r} is not a simplex of the complex")
    sset = set(s)
    layers = (layer for d, layer in k.simplices.items() if d >= len(s) - 1)
    return sset, [rho for layer in layers for rho in layer if sset.issubset(rho)]


def skeleton_by_closure(k, d):
    """The d-skeleton, face-closed again."""
    from hforge.complexes import SimplicialComplex

    kept = {s for dd, ss in k.simplices.items() if dd <= d for s in ss}
    return SimplicialComplex.build(k.vertices, kept, size_limit=None)


def wcm_check_every_link(k, n, link=link_by_closure):
    """``wcm_check`` that builds the link of every simplex, whatever its
    threshold, and reads each threshold off the link it built.

    ``link(k, s)`` may be a memoised ``link_by_closure``, so that checks of
    one complex at several targets build each link once.
    """
    from hforge.complexes import is_q_acyclic

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
        for s in sorted(k.simplices[d]):
            problem = meets(link(k, s), n - d - 2, f"link of {s}")
            if problem:
                return False, problem
    return True, None


# -- vertex enumeration as it was before it pruned on grid cells --------------


def enumerate_bounded_vertices_by_meets(k, n, bound):
    """``complexes.enumerate_bounded_vertices`` as it was before it pruned on
    cell sets: each image ray is met against every image chosen so far, and a
    leaf builds its map on the threshold-B grid, then takes ``canonical_form``."""
    from hforge.houghton import HoughtonMap, Translation, canonical_form
    from hforge.rays import MarkedRay, grid_cells, marked_intersect

    cells = grid_cells(k, bound)
    options = [
        [
            Translation(off, target)
            for target in range(1, n + 1)
            for off in itertools.product(range(-bound, bound + 1), repeat=k)
            if all(b + d >= 1 for b, d in zip(cell.base, off))
        ]
        for cell in cells
    ]
    found, images, chosen = [], [], []

    def backtrack(i):
        if i == len(cells):
            pieces = tuple((MarkedRay(cell, 1), tr) for cell, tr in zip(cells, chosen))
            found.append(canonical_form(HoughtonMap(k, 1, n, pieces)))
            return
        for tr in options[i]:
            img = MarkedRay(cells[i].translate(tr.offset), tr.target_copy)
            if all(marked_intersect(img, other) is None for other in images):
                images.append(img)
                chosen.append(tr)
                backtrack(i + 1)
                images.pop()
                chosen.pop()

    backtrack(0)
    return found


def canonical_grid_by_sort(cuts, labels, keys):
    """``rays._canonical_grid`` as it was before map tables were read off a shared grid
    template: the t* search, then one checked-free ``Ray`` and ``MarkedRay`` per output
    cell, its ``dirs`` from a generator, and one sort on ``(copy, dirs, base)``."""
    from hforge.rays import _marked, _ray

    below = [dict(zip(cut[1:], cut)) for cut in cuts]
    above = [dict(zip(cut, cut[1:])) for cut in cuts]
    last, top = max(cut[-1] for cut in cuts), 1
    for (copy, base), label in labels.items():
        if top == last:
            break
        for j, b in enumerate(base):
            for d in (below[j].get(b), above[j].get(b)):
                if d is not None and max(b, d) > top:
                    if labels.get((copy, base[:j] + (d,) + base[j + 1:])) != label:
                        top = max(b, d)
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


def vertex_map_by_canonical_grid(k, n, bound, domain, leaf):
    """``complexes._vertex_map`` as it was before it read a per-(k, B) template: the leaf's
    translations labelled on the domain cells and canonicalised by ``canonical_grid_by_sort``."""
    from hforge.houghton import _map_of_cells

    labels = {(1, cell.base): tr for cell, tr in zip(domain, leaf)}
    cuts = (list(range(1, bound + 2)),) * k
    return _map_of_cells(k, 1, n, canonical_grid_by_sort(cuts, labels, labels))


def option_cells_by_refit(k, n, bound) -> tuple:
    """Each domain cell's enumeration options as ``complexes._bounded_vertices`` found them
    before it read them off a template: checked ``Translation``s, target first, and one
    grid fitted by ``rays._cell_sets`` to every option's image ray.  Returns the fitted
    cuts and, per cell of ``grid_cells(k, B)``, its ``(offset, target, cells)`` options."""
    from hforge.houghton import Translation
    from hforge.rays import MarkedRay, _cell_sets, grid_cells

    domain = grid_cells(k, bound)
    translations = [
        [
            Translation(off, target)
            for target in range(1, n + 1)
            for off in itertools.product(range(-bound, bound + 1), repeat=k)
            if all(b + d >= 1 for b, d in zip(cell.base, off))
        ]
        for cell in domain
    ]
    cuts, image_cells = _cell_sets(k, [
        (MarkedRay(cell.translate(tr.offset), tr.target_copy),)
        for cell, trs in zip(domain, translations)
        for tr in trs
    ])
    image_cells = iter(image_cells)
    return cuts, [
        [(tr.offset, tr.target_copy, next(image_cells)) for tr in trs] for trs in translations
    ]


# -- vertex images and probe intermediates read off maps, before leaves -------


def image_cells_by_refit(vertices) -> tuple:
    """Cell count of N^k x [n] and the vertices' image cells on one grid fitted again to
    their image rays (``complexes._image_cells`` as it was); pairwise disjoint images
    cover N^k x [n] exactly when their cells number the count."""
    from hforge.houghton import _image_rays
    from hforge.rays import _cell_sets

    if not vertices:
        return 0, []
    cuts, cells = _cell_sets(vertices[0].k, [_image_rays(v) for v in vertices])
    return vertices[0].n * math.prod(len(c) for c in cuts), cells


def intermediate_on_maps(k, n, u, w) -> tuple:
    """The probe's ``(copy, offset)`` for the vertex maps u and w, read off their
    canonical image rays (``complexes._intermediate`` as it was before it took leaves)."""
    from hforge.complexes import _far_offset, pi_projection
    from hforge.houghton import _image_rays

    occupied = {pi_projection(u), pi_projection(w)}
    copy = next(c for c in range(1, n + 1) if c not in occupied)
    return copy, _far_offset([m.ray for v in (u, w) for m in _image_rays(v) if m.copy == copy])


# -- disjointness, sections and random draws as they were before bitmasks ----


def disjoint_pairs_by_buckets(vertices, cells) -> list:
    """Index pairs i < j of vertices whose ``image_cells_by_refit`` sets are disjoint.

    Pairs with equal ``pi_projection`` are skipped untested: both images
    contain a translated orthant of N^k in that copy, and any two orthants
    meet (at the coordinatewise maximum of their bases).
    """
    from hforge.complexes import pi_projection

    buckets: dict = {}
    for i, v in enumerate(vertices):
        buckets.setdefault(pi_projection(v), []).append(i)
    pairs = []
    for p, q in itertools.combinations(sorted(buckets), 2):
        for i in buckets[p]:
            for j in buckets[q]:
                if cells[i].isdisjoint(cells[j]):
                    pairs.append((i, j) if i < j else (j, i))
    return pairs


def verify_s_section_by_pairs(k, n, s_vertices, rho):
    """``_verify_s_section`` testing every pair of image-cell sets again for
    each sigma + rho(tau), with S deduplicated by ``equals`` alone."""
    from hforge.complexes import pi_projection
    from hforge.errors import ValidationError
    from hforge.houghton import equals, map_to_json

    if len(rho) != n:
        raise ValidationError(f"section must assign all {n} copies")
    all_maps = [*rho, *s_vertices]
    for p, f in enumerate(rho, start=1):
        if pi_projection(f) != p:
            raise ValidationError(
                f"not a section: assigned vertex for copy {p} projects to {pi_projection(f)}"
            )
    image = {id(v): c for v, c in zip(all_maps, image_cells_by_refit(all_maps)[1])}

    def is_simplex(maps):
        pairs = itertools.combinations(maps, 2)
        return all(image[id(a)].isdisjoint(image[id(b)]) for a, b in pairs)

    if n >= 3 and not is_simplex(rho):
        raise ValidationError("not a section: assigned vertices do not span simplices")

    distinct_s = []
    for v in s_vertices:
        if not any(equals(v, w) for w in distinct_s):
            distinct_s.append(v)

    sigmas = [
        combo
        for size in range(1, min(len(distinct_s), n - 1) + 1)
        for combo in itertools.combinations(distinct_s, size)
        if is_simplex(combo)
    ]
    taus = [
        set(t)
        for size in range(1, n)
        for t in itertools.combinations(range(1, n + 1), size)
    ]
    for sigma in sigmas:
        pi_sigma = {pi_projection(v) for v in sigma}
        for tau in taus:
            lhs = not (tau & pi_sigma) and len(tau | pi_sigma) <= n - 1
            joint = list(sigma) + [rho[i - 1] for i in sorted(tau)]
            rhs = len(joint) <= n - 1 and is_simplex(joint)
            if lhs != rhs:
                return False, (tuple(map_to_json(v) for v in sigma), tuple(sorted(tau)))
    return True, None


def random_injection_by_restriction(k, m, n, bound, seed):
    """The whole random element on n copies, drawn as it was before draws
    were shared with injections, then restricted to the first m copies."""
    import random

    from hforge.houghton import HoughtonMap, Translation, restrict
    from hforge.rays import MarkedRay, grid_cells

    rng = random.Random(seed)
    t = rng.randint(0, bound)
    by_dirs: dict = {}
    for copy in range(1, n + 1):
        for cell in grid_cells(k, t):
            by_dirs.setdefault(cell.dirs, []).append(MarkedRay(cell, copy))
    pieces = []
    for dirs in sorted(by_dirs):
        cells = by_dirs[dirs]
        targets = cells[:]
        rng.shuffle(targets)
        for src, dst in zip(cells, targets):
            offset = tuple(b - a for a, b in zip(src.ray.base, dst.ray.base))
            pieces.append((src, Translation(offset, dst.copy)))
    return restrict(HoughtonMap(k, n, n, tuple(pieces)), m)


# -- components and the induced differential as they were first computed -----


def component_roots_by_union_find(nodes, edges) -> dict:
    """Union-find over ``edges``: the representative of each node's component."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in edges:
        parent[find(a)] = find(b)
    return {v: find(v) for v in parent}


def sigma1_by_words(v, n):
    """The differential of ``fimodules.sigma1`` with block i formed as
    ``action_matrix`` of tau_i, the word s_i s_{i+1} ... s_{n-1} multiplied
    out from the identity, times the inclusion."""
    from hforge.fimodules import _tau, action_matrix
    from hforge.snf import mat_mul

    base_rank = v.levels[n - 1].rank
    blocks = [
        mat_mul(action_matrix(v, n, _tau(i, n)), v.levels[n].iota, base_rank)
        for i in range(1, n + 1)
    ]
    return tuple(
        tuple(x for block in blocks for x in block[row]) for row in range(v.levels[n].rank)
    )


# -- reduced homology with every boundary eliminated ---------------------------


def boundary_rows_by_faces(bases, d):
    """The rows of the degree-``d`` boundary (d >= 1), one per face in
    ``bases[d - 1]``, as ``{simplex index: +-1}``."""
    index = {s: i for i, s in enumerate(bases[d - 1])}
    rows = [{} for _ in bases[d - 1]]
    for col, s in enumerate(bases[d]):
        for omit in range(len(s)):
            rows[index[s[:omit] + s[omit + 1 :]]][col] = -1 if omit % 2 else 1
    return rows


def reduced_homology_by_elimination(k, max_degree=None):
    """``reduced_homology`` as it first was: d_0 (the augmentation row) and
    every boundary through d_{top+1} written out as sparse rows and reduced
    to a Smith diagonal, the ranks and torsion of d_0 and d_1 included."""
    from hforge.complexes import HomologyResult
    from hforge.snf import _sparse_diagonal

    if k.is_empty:
        return HomologyResult(True, ())
    top = k.dim if max_degree is None else min(max_degree, k.dim)
    bases = [k.simplices_of_dim(d) for d in range(min(top + 1, k.dim) + 1)]
    ranks, torsion = [], []
    for d, basis in enumerate(bases):
        if d == 0:
            rows, nrows = {0: dict.fromkeys(range(len(basis)), 1)}, 1
        else:
            rows, nrows = dict(enumerate(boundary_rows_by_faces(bases, d))), len(bases[d - 1])
        diag = _sparse_diagonal(rows, nrows, len(basis))
        ranks.append(sum(1 for x in diag if x))
        torsion.append(tuple(x for x in diag if x > 1))
    ranks.append(0)
    torsion.append(())
    entries = tuple(
        (d, len(bases[d]) - ranks[d] - ranks[d + 1], torsion[d + 1]) for d in range(top + 1)
    )
    return HomologyResult(False, entries)


def morse_matching_faults(cells, up, critical):
    """What keeps ``up`` from being an acyclic matching on ``cells`` (sorted simplices
    by degree, with the empty simplex below them) whose unpaired cells are ``critical``.

    [] when every pair is a face and a coface one degree up, no cell is paired twice,
    the empty simplex is paired, the unpaired cells of each degree are ``critical``,
    and the face graph with the matched edges reversed has no directed cycle, found by
    peeling off cells with no edge left into them (Kahn's algorithm).
    """
    present = {(): -1}
    for d, layer in enumerate(cells):
        present.update(dict.fromkeys(layer, d))
    faults = []
    partner = {}
    for t, s in up.items():
        if t not in present or s not in present or len(s) != len(t) + 1 or not set(t) < set(s):
            faults.append(f"{t} -> {s} is not a face and a coface one degree up")
        for c in (t, s):
            if c in partner:
                faults.append(f"{c} is paired twice")
        partner[t], partner[s] = s, t
    if () not in partner:
        faults.append("the empty simplex is unpaired")
    for d, layer in enumerate(cells):
        if sorted(s for s in layer if s not in partner) != sorted(critical[d]):
            faults.append(f"the critical cells of degree {d} are not the unpaired ones")
    succ = {c: [] for c in present}
    into = dict.fromkeys(present, 0)
    for s in present:
        for omit in range(len(s)):
            f = s[:omit] + s[omit + 1 :]
            a, b = (f, s) if up.get(f) == s else (s, f)
            succ[a].append(b)
            into[b] += 1
    ready = [c for c, n in into.items() if n == 0]
    peeled = 0
    while ready:
        peeled += 1
        for b in succ[ready.pop()]:
            into[b] -= 1
            if not into[b]:
                ready.append(b)
    if peeled != len(present):
        faults.append(f"{len(present) - peeled} cells lie on or behind a directed cycle")
    return faults


# -- FI-module relations and surjectivity on dense matrices --------------------


def validate_fimodule_dense(v):
    """``fimodules.validate_fimodule`` as it first was: every relation
    multiplied out on the dense transposition matrices themselves."""
    from hforge.fimodules import ModuleDiagnostics, _shape_ok
    from hforge.snf import identity_matrix, mat_mul

    problems = []
    shaped: set[int] = set()
    for n in range(v.N + 1):
        lv = v.levels[n]
        r = lv.rank
        if r < 0:
            problems.append(f"level {n}: negative rank")
            continue
        if len(lv.transpositions) != max(n - 1, 0):
            problems.append(
                f"level {n}: expected {max(n - 1, 0)} transposition matrices"
            )
            continue
        if n >= 1 and not _shape_ok(lv.iota, r, v.levels[n - 1].rank):
            problems.append(f"level {n}: inclusion matrix has wrong shape")
            continue
        pres = lv.presentation
        if v.ring == "Q" and pres is not None:
            problems.append(f"level {n}: presentations are only supported over Z")
        elif pres is not None and (len(pres) != r or len({len(row) for row in pres}) > 1):
            problems.append(f"level {n}: presentation rows must number {r} and have equal length")
        ident = identity_matrix(r)
        s = lv.transpositions
        for i, si in enumerate(s, start=1):
            if not _shape_ok(si, r, r):
                problems.append(f"level {n}: s_{i} has wrong shape")
                break
            if mat_mul(si, si, r) != ident:
                problems.append(f"level {n}: s_{i}^2 != 1")
        else:
            shaped.add(n)
        if n not in shaped:
            continue
        for i in range(1, len(s)):
            lhs = mat_mul(mat_mul(s[i - 1], s[i], r), s[i - 1], r)
            rhs = mat_mul(mat_mul(s[i], s[i - 1], r), s[i], r)
            if lhs != rhs:
                problems.append(f"level {n}: braid relation fails at (s_{i}, s_{i + 1})")
        for i in range(1, len(s) + 1):
            for j in range(i + 2, len(s) + 1):
                if mat_mul(s[i - 1], s[j - 1], r) != mat_mul(s[j - 1], s[i - 1], r):
                    problems.append(f"level {n}: s_{i} and s_{j} do not commute")
        if n - 1 in shaped:
            prev = v.levels[n - 1]
            for i in range(1, n - 1):
                lhs = mat_mul(s[i - 1], lv.iota, prev.rank)
                rhs = mat_mul(lv.iota, prev.transpositions[i - 1], prev.rank)
                if lhs != rhs:
                    problems.append(
                        f"level {n}: inclusion does not intertwine s_{i}"
                    )
    return ModuleDiagnostics(not problems, tuple(problems))


def _hstack(blocks, rows: int):
    out = []
    for i in range(rows):
        row: list = []
        for block in blocks:
            row.extend(block[i])
        out.append(tuple(row))
    return tuple(out)


def surjective_at_dense(v, n) -> bool:
    """``fimodules._surjective_at`` as it first was: the dense differential
    stacked beside the presentation, then its rank over Q or its Smith
    diagonal over Z.  The differential comes from ``sigma1_by_words`` and
    the rank from ``rank_over_q``, so neither shares code with the sparse
    rows under test."""
    from hforge.snf import snf_diagonal

    r = v.levels[n].rank
    if r == 0:
        return True
    d1 = sigma1_by_words(v, n)
    pres = v.levels[n].presentation
    if pres is not None:
        d1 = _hstack([d1, pres], r)
    if v.ring == "Q":
        return rank_over_q(d1, len(d1[0])) == r
    return snf_diagonal(d1).count(1) == r


# -- element JSON read by the constructors, partitions decided per ray ---------


def parse_map_by_constructors(data):
    """``houghton._parse_map`` as it was before its one-pass reader: every field
    type-checked by the JSON helpers and checked again by the ``Ray``,
    ``MarkedRay``, ``Translation`` and ``HoughtonMap`` constructors."""
    from hforge.errors import ValidationError
    from hforge.houghton import HoughtonMap, Translation
    from hforge.rays import _json_int, _json_ints, marked_ray_from_json

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


def _first_gap(n, cuts, cells):
    """The first cell of N^k x [n] that disjoint rays with these ``_cell_sets`` miss, or None:
    the t-cell at the least uncovered base, copy by copy, for t+1 the largest cut.  All cuts
    lie in [1, t+1], so a walk over every threshold cell would find this same cell first."""
    from hforge.rays import MarkedRay, cell_of_point

    if sum(map(len, cells)) == n * math.prod(map(len, cuts)):
        return None
    covered = frozenset().union(*cells)
    keys = ((copy, base) for copy in range(1, n + 1) for base in itertools.product(*cuts))
    copy, base = next(key for key in keys if key not in covered)
    return MarkedRay(cell_of_point(base, max(cut[-1] for cut in cuts) - 1), copy)


def validate_by_cell_sets(f):
    """``houghton.validate`` as it was before it decided on one cell set, with the
    image rays it checked: one ``frozenset`` of cells per ray, domain and images,
    and the fault-naming ``_overlapping_pair`` and ``_first_gap`` run on every map."""
    from hforge.houghton import MapDiagnostics
    from hforge.rays import _cell_sets, _overlapping_pair

    problems: list[str] = []
    domain = [dom for dom, _ in f.pieces]
    cuts, cells = _cell_sets(f.k, [(m,) for m in domain])
    if (pair := _overlapping_pair(domain, cells)) is not None:
        problems.append(f"domain is not a ray partition: cells overlap: {pair[0]} and {pair[1]}")
    elif (gap := _first_gap(f.m, cuts, cells)) is not None:
        problems.append(
            f"domain is not a ray partition: uncovered cell {gap.ray} on copy {gap.copy}"
        )
    images = tuple(f.image_ray(p) for p in f.pieces)
    cuts, cells = _cell_sets(f.k, [(m,) for m in images])
    if (pair := _overlapping_pair(images, cells)) is not None:
        problems.append(f"image rays overlap: {pair[0]} and {pair[1]}")
    bijective = not problems and f.m == f.n and _first_gap(f.n, cuts, cells) is None
    return MapDiagnostics(not problems, bijective, tuple(problems)), images


def mat_from_json_by_entries(rows, ring: str, field: str, n: int):
    """``fimodules._mat_from_json`` as it was: every entry, zeros included, read
    by ``_entry_from_json``."""
    from hforge.fimodules import _entry_from_json

    return tuple(tuple(_entry_from_json(x, ring, field, n) for x in row) for row in rows)


def connectivity_probe_by_comparison(k, n, bound, slack, trials, seed, size_limit=200_000):
    """``complexes.connectivity_probe`` as it was before it knew its vertices by
    construction: the length-0 path decided by ``equals``, the intermediate
    built as a map and tested by ``canonical_threshold``, and the pool
    deduplicated by an ``equals`` scan over every vertex already in it.  Every
    vertex is a map, and the pool's cells are fitted again to its images."""
    import random

    from hforge.complexes import _component, _far_vertex, enumerate_bounded_vertices
    from hforge.errors import ValidationError
    from hforge.houghton import canonical_threshold, equals, map_to_json
    from hforge.rays import _disjoint_masks

    if trials < 0:
        raise ValidationError(f"trials must be >= 0, got {trials}")
    if slack < 0:
        raise ValidationError(f"slack must be >= 0, got {slack}")
    report: dict = {"k": k, "n": n, "bound": bound, "slack": slack, "trials": trials}
    vertices = enumerate_bounded_vertices(k, n, bound, size_limit)
    cells = image_cells_by_refit(vertices)[1]
    report["bounded_vertices"] = len(vertices)
    if n < 3:
        report["claim"] = (
            "only (-1)-connectivity (nonempty) is asserted for n < 3"
        )
        report["nonempty"] = bool(vertices)
        return report
    report["claim"] = "sampled pairs connect within the enlarged truncation"
    rng = random.Random(seed)
    indices = range(len(vertices))  # the same draws as choosing from the list
    intermediates = []
    connected = 0
    lengths = []
    failures = []
    for _ in range(trials):
        i, j = rng.choice(indices), rng.choice(indices)
        u, w = vertices[i], vertices[j]
        if equals(u, w):
            connected += 1
            lengths.append(0)
            continue
        if cells[i].isdisjoint(cells[j]):
            connected += 1
            lengths.append(1)
            continue
        z = _far_vertex(k, n, *intermediate_on_maps(k, n, u, w))
        offset = max(z.pieces[0][1].offset)
        if canonical_threshold(z) <= bound + slack and offset <= bound + slack:
            connected += 1
            lengths.append(2)
            intermediates.append(z)
        else:
            failures.append((map_to_json(u), map_to_json(w)))
    report["connected_pairs"] = connected
    report["disconnected_pairs"] = trials - connected
    report["max_path_length"] = max(lengths, default=0)
    report["failures"] = failures

    pool = list(vertices)
    for z in intermediates:
        if not any(equals(z, v) for v in pool):
            pool.append(z)
    component = _component(list(_disjoint_masks(image_cells_by_refit(pool)[1])), 0)
    report["component_size"] = component.bit_count()
    # reduced H_0 of a connected component is zero
    report["component_betti0"] = 0
    return report


def set_bits_by_peeling(mask):
    """The set bits of ``mask`` >= 0, ascending, peeled off one low bit at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def sn_layers_bit_by_bit(k, n, bound, include_top=False, size_limit=200_000):
    """The simplices of ``complexes.build_sn_truncated`` as it listed them before it
    listed in bulk: each clique grows one set bit at a time, peeled off the AND of
    its masks low bit first, every n-vertex candidate is kept or dropped by its
    cell total, and the layer guard counts one simplex at a time.  The vertex and
    graph guards fire as the build's do."""
    from hforge.complexes import _bounded_vertices
    from hforge.errors import SizeLimitError
    from hforge.rays import _disjoint_masks

    _, leaves, cells = _bounded_vertices(k, n, bound, size_limit)
    cells_total = n * (2 * bound + 1) ** k
    max_dim = n - 1 if include_top else n - 2
    if include_top and n == 1:
        leaves = [leaf for leaf, c in zip(leaves, cells) if len(c) == cells_total]
    limit = math.inf if size_limit is None else size_limit
    later = []
    total = len(leaves)
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
    layers = [[(i,) for i in range(len(leaves))]]
    total = len(leaves)
    for dim in range(1, max_dim + 1):
        next_layer = []
        for s in layers[-1]:
            common = later[s[0]]
            for v in s[1:]:
                common &= later[v]
            for w in set_bits_by_peeling(common):
                t = s + (w,)
                if dim == n - 1 and sum(len(cells[v]) for v in t) != cells_total:
                    continue
                next_layer.append(t)
                total += 1
                if total > limit:
                    raise SizeLimitError(
                        f"simplex layers exceed the size limit {size_limit}: "
                        f"{total} simplices at dimension {dim}"
                    )
        layers.append(next_layer)
    return {d: frozenset(layer) for d, layer in enumerate(layers) if layer}
