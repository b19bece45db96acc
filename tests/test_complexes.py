import itertools
import json
import math
import random
import re
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import hforge.complexes as complexes_module
from hforge.complexes import (
    SimplicialComplex,
    build_s_section,
    build_sn_truncated,
    complex_from_json,
    complex_to_json,
    connectivity_probe,
    enumerate_bounded_vertices,
    homological_connectivity,
    homology_to_json,
    is_q_acyclic,
    link,
    pi_projection,
    reduced_homology,
    simplex_test,
    simplexwise_injective_check,
    skeleton,
    star,
    verify_s_section,
    wcm_check,
)
from hforge.errors import SizeLimitError, ValidationError
from hforge.houghton import (
    HoughtonMap,
    PermutationN,
    Translation,
    canonical_form,
    canonical_threshold,
    compose,
    embed_symmetric,
    equals,
    map_to_json,
    random_element,
    random_injection,
    validate,
)
from hforge.rays import MarkedRay, Ray, _disjoint_masks, grid_cells
from hforge.snf import mat_mul, snf_diagonal, zero_matrix

from _oracles import (
    boundary_matrices_from_facets,
    boundary_rows_by_faces,
    bounded_vertex_census,
    cofaces_by_full_scan,
    connectivity_probe_by_comparison,
    component_roots_by_union_find,
    disjoint_pairs_by_buckets,
    enumerate_bounded_vertices_by_meets,
    image_cells_by_refit,
    images_disjoint_all_pairs,
    intermediate_on_maps,
    link_by_closure,
    maximal_simplices_by_global_sort,
    maximal_simplices_quadratic,
    minor_gcd_diagonal,
    morse_matching_faults,
    option_cells_by_refit,
    reduced_homology_by_elimination,
    s_section_holds_by_pairs,
    set_bits_by_peeling,
    skeleton_by_closure,
    sn_layers_bit_by_bit,
    sn_simplices_brute_force,
    star_by_closure,
    uncovered_cells_by_containment,
    verify_s_section_by_pairs,
    vertex_map_by_canonical_grid,
    wcm_check_every_link,
    RP2_FACETS,
)

FIXTURES = Path(__file__).parent / "fixtures"


def full_simplex(n):
    """The full simplex on n vertices."""
    return SimplicialComplex.build(tuple(range(n)), [tuple(range(n))])


def boundary_simplex(n):
    """The boundary of the (n-1)-simplex on n vertices."""
    face = tuple(range(n))
    return SimplicialComplex.build(
        tuple(range(n)), [face[:i] + face[i + 1 :] for i in range(n)]
    )


def pseudo_projective_plane(m, circle=3):
    """A disk whose boundary ring of ``m * circle`` vertices wraps m times
    round a circle of ``circle`` vertices, filled by one inner ring and a
    centre: reduced H_1 = Z/m and H_2 = 0."""
    length = m * circle
    outer = [i % circle for i in range(length)]
    inner = [circle + i for i in range(length)]
    centre = circle + length
    triangles = []
    for i in range(length):
        j = (i + 1) % length
        triangles += [
            (outer[i], outer[j], inner[i]),
            (outer[j], inner[i], inner[j]),
            (inner[i], inner[j], centre),
        ]
    return SimplicialComplex.build(tuple(range(centre + 1)), triangles)


def strip_beside_rp2(length):
    """A band of the triangles (i, i+1, i+3), (i, i+2, i+3), (i, i+3, i+4) and
    (i+2, i+3, i+4) for i < ``length``, beside a disjoint RP^2 on the last six
    vertices.  The band's critical triangles and RP^2's critical edges lie in adjacent
    degrees, so the Morse flow runs, and the band's gradient paths branch and merge:
    their number grows exponentially with the length."""
    band = {(i, i + 1, i + 3) for i in range(length)}
    band |= {(i, i + 2, i + 3) for i in range(length)}
    band |= {(i, i + 3, i + 4) for i in range(length)}
    band |= {(i + 2, i + 3, i + 4) for i in range(length)}
    n = length + 4
    rp2 = [tuple(n + v - 1 for v in f) for f in RP2_FACETS]
    return SimplicialComplex.build(tuple(range(n + 6)), sorted(band) + rp2)


def rp2_complex():
    """The 6-vertex RP^2 of ``RP2_FACETS``, on vertices 0..5."""
    return SimplicialComplex.build(tuple(range(6)), [tuple(v - 1 for v in f) for f in RP2_FACETS])


def simplex_skeleton(n, d):
    """The d-skeleton of the (n-1)-simplex."""
    return skeleton(full_simplex(n), d)


def vertex_map(k, n, pieces):
    return canonical_form(HoughtonMap(k, 1, n, pieces))


def inclusion(k, n, copy, shift=0):
    full = Ray((1,) * k, tuple(range(1, k + 1)))
    return vertex_map(k, n, ((MarkedRay(full, 1), Translation((shift,) * k, copy)),))


def test_build_and_face_closure():
    K = full_simplex(4)
    assert K.dim == 3
    assert K.simplex_count() == 15
    assert (0, 2) in K
    assert (0, 1, 2, 3) in K
    assert K.euler_characteristic() == 1
    assert K.maximal_simplices() == [(0, 1, 2, 3)]
    with pytest.raises(ValidationError):
        SimplicialComplex.build((0, 1), [(0, 0)])
    with pytest.raises(ValidationError):
        SimplicialComplex.build((0, 1), [(0, 2)])
    # 2^20 - 1 faces if closed in full; the guard stops at the first one over.
    with pytest.raises(
        SizeLimitError, match=r"face closure exceeds the size limit 100: 101 simplices"
    ):
        SimplicialComplex.build(tuple(range(20)), [tuple(range(20))], size_limit=100)


@pytest.mark.parametrize("simplex", [(0.0, 1), (True, 0), (0, "a")], ids=["float", "bool", "string"])
def test_build_takes_integer_indices_only(simplex):
    message = f"simplex entries must be integer vertex indices, got {list(simplex)!r}"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        SimplicialComplex.build((0, 1), [simplex])


def test_complex_reader_reports_the_first_faulty_simplex():
    """``build`` checks the JSON reader's simplices one by one, in the file's order."""
    repeat = "simplex with repeated vertices: (0, 0)"
    not_int = "simplex entries must be integer vertex indices, got [0.5, 1]"
    for simplices, message in [([[0, 0], [0.5, 1]], repeat), ([[0.5, 1], [0, 0]], not_int)]:
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            complex_from_json({"vertices": [0, 1], "maximal_simplices": simplices})


def test_link_star_skeleton_examples():
    bd3 = boundary_simplex(4)
    lk = link(bd3, (0,))
    # boundary of a triangle: a 3-cycle
    assert lk.simplices_of_dim(0) == [(1,), (2,), (3,)]
    assert lk.simplices_of_dim(1) == [(1, 2), (1, 3), (2, 3)]
    assert lk.dim == 1

    sk = skeleton(full_simplex(4), 2)
    assert sk.simplex_count() == 14  # all nonempty subsets of size <= 3
    assert sk.dim == 2

    lk_edge = link(simplex_skeleton(4, 2), (0, 1))
    assert lk_edge.simplices_of_dim(0) == [(2,), (3,)]
    assert lk_edge.dim == 0

    st = star(bd3, (0,))
    assert (1, 2) in st and (1, 2, 3) not in st

    with pytest.raises(ValidationError):
        link(bd3, (0, 1, 2, 3))


def assert_squares_to_zero(K):
    """Shapes chain up, and d_i @ d_{i+1} == 0 for every consecutive pair."""
    bases = [K.simplices_of_dim(d) for d in range(K.dim + 1)]
    boundaries = [dense_boundary(bases, d) for d in range(K.dim + 1)]
    for d, (basis, mat) in enumerate(zip(bases, boundaries)):
        assert all(len(row) == len(basis) for row in mat)
        assert len(mat) == (1 if d == 0 else len(bases[d - 1]))
    for lower, upper in zip(boundaries, boundaries[1:]):
        cols = len(upper[0])
        assert mat_mul(lower, upper, cols) == zero_matrix(len(lower), cols)
    return boundaries


def test_boundary_matrices_shape_and_squares_to_zero():
    boundaries = assert_squares_to_zero(boundary_simplex(4))
    assert boundaries[0] == [[1, 1, 1, 1]]
    assert len(boundaries[1]) == 4 and len(boundaries[1][0]) == 6
    assert len(boundaries[2]) == 6 and len(boundaries[2][0]) == 4

    # RP^2 against the hand-rolled boundary matrices of the oracle
    facets = sorted(RP2_FACETS)
    rp2 = SimplicialComplex.build(
        tuple(range(6)), [tuple(v - 1 for v in f) for f in facets]
    )
    assert assert_squares_to_zero(rp2)[1:] == list(boundary_matrices_from_facets(facets))

    delta3 = complex_from_json(json.loads((FIXTURES / "boundary_delta3.json").read_text()))
    assert_squares_to_zero(delta3)
    for params, top in (((1, 2, 1), True), ((1, 3, 1), False), ((1, 3, 1), True)):
        assert_squares_to_zero(build_sn_truncated(*params, include_top=top))


@given(
    st.lists(
        st.lists(st.integers(0, 6), min_size=3, max_size=3, unique=True),
        min_size=1,
        max_size=14,
    ),
    st.lists(st.lists(st.integers(0, 6), min_size=1, max_size=5, unique=True), max_size=4),
)
@settings(max_examples=100, deadline=None)
def test_random_boundaries_square_to_zero(triangles, extra):
    """Pure 2-complexes also match the oracle; extra simplices reach dimension 4."""
    facets = sorted({tuple(sorted(t)) for t in triangles})
    K = SimplicialComplex.build(tuple(range(7)), facets)
    assert assert_squares_to_zero(K)[1:] == list(boundary_matrices_from_facets(facets))
    assert_squares_to_zero(SimplicialComplex.build(tuple(range(7)), facets + extra))


def dense_boundary(bases, d):
    """The face rows of the degree-d boundary, written out with their zeros;
    degree 0 is the augmentation row."""
    if d == 0:
        return [[1] * len(bases[0])]
    rows = boundary_rows_by_faces(bases, d)
    return [[row.get(j, 0) for j in range(len(bases[d]))] for row in rows]


def test_boundary_rows_match_hand_built_matrices():
    facets = sorted(RP2_FACETS)
    bases = [
        [(v - 1,) for v in range(1, 7)],
        sorted({(f[i] - 1, f[j] - 1) for f in facets for i, j in ((0, 1), (0, 2), (1, 2))}),
        [tuple(v - 1 for v in f) for f in facets],
    ]
    d1, d2 = boundary_matrices_from_facets(facets)
    assert [dense_boundary(bases, d) for d in (1, 2)] == [d1, d2]


def test_homology_point_and_spheres():
    pt = full_simplex(1)
    hom = reduced_homology(pt)
    assert all(hom.is_trivial(d) for d in range(3))

    for n in (3, 4, 5, 6):
        hom = reduced_homology(boundary_simplex(n))
        for d in range(n - 2):
            assert hom.is_trivial(d), (n, d)
        assert hom.betti(n - 2) == 1 and hom.torsion(n - 2) == ()


def test_homology_projective_plane_vs_hand_built_matrices():
    facets = [tuple(v - 1 for v in f) for f in RP2_FACETS]
    K = SimplicialComplex.build(tuple(range(6)), facets)
    assert K.euler_characteristic() == 1
    hom = reduced_homology(K)
    assert hom.betti(0) == 0 and hom.torsion(0) == ()
    assert hom.betti(1) == 0 and hom.torsion(1) == (2,)
    assert hom.betti(2) == 0 and hom.torsion(2) == ()

    # independent route: hand-built boundary matrices + minor-gcd diagonal
    d1, d2 = boundary_matrices_from_facets(RP2_FACETS)
    diag1 = minor_gcd_diagonal(d1, len(d1[0]))
    diag2 = minor_gcd_diagonal(d2, len(d2[0]))
    rank1 = sum(1 for x in diag1 if x)
    rank2 = sum(1 for x in diag2 if x)
    assert len(d1[0]) - rank1 - rank2 == 0  # betti_1
    assert [x for x in diag2 if x > 1] == [2]  # torsion Z/2
    assert snf_diagonal(d2) == diag2


def test_max_degree_assembles_no_higher_boundary(monkeypatch):
    """No cell above degree max_degree + 1 enters the matching, none at all below
    ``last = 2``, and ``_sparse_diagonal`` runs only on the Morse rows between adjacent
    critical degrees >= 2 that both hold cells.  (1,4,1) leaves critical cells in
    degree 2 alone and never eliminates; RP^2 and the pseudo-projective planes do."""
    matched, eliminated = [], []
    matching, diagonal = complexes_module._matching, complexes_module._sparse_diagonal

    def recording_matching(k, last, masks):
        cells, up, critical = matching(k, last, masks)
        matched.append((last, [len(layer) for layer in cells], [len(c) for c in critical]))
        return cells, up, critical

    def counting_diagonal(rows, nrows, ncols):
        eliminated.append((nrows, ncols))
        return diagonal(rows, nrows, ncols)

    def expected(K, max_degree):
        top = K.dim if max_degree is None else min(max_degree, K.dim)
        last = min(top + 1, K.dim)
        if last < 2:
            assert matched == [], max_degree
            return []
        [(got_last, sizes, counts)] = matched
        assert got_last == last
        assert sizes == [len(K.simplices[d]) for d in range(last + 1)]
        adjacent = [d for d in range(2, last + 1) if counts[d] and counts[d - 1]]
        return [(counts[d - 1], counts[d]) for d in adjacent]

    monkeypatch.setattr(complexes_module, "_matching", recording_matching)
    monkeypatch.setattr(complexes_module, "_sparse_diagonal", counting_diagonal)
    rp2 = rp2_complex()
    delta3 = complex_from_json(json.loads((FIXTURES / "boundary_delta3.json").read_text()))
    points = SimplicialComplex.build(tuple(range(4)), [(0,), (2,)])
    planes = [pseudo_projective_plane(m) for m in (2, 3, 5)]
    sn141 = build_sn_truncated(1, 4, 1)
    cases = [points, delta3, rp2, boundary_simplex(5), sn141, *planes] + [
        build_sn_truncated(*params, include_top=top)
        for params, top in (((1, 2, 1), True), ((1, 3, 1), False), ((1, 3, 1), True))
    ]
    eliminating = set()
    for K in cases:
        matched.clear()
        eliminated.clear()
        full = reduced_homology(K)
        assert eliminated == expected(K, None)
        if eliminated:
            eliminating.add(id(K))
        for q in range(K.dim + 1):
            matched.clear()
            eliminated.clear()
            assert reduced_homology(K, max_degree=q).entries == full.entries[: q + 1]
            assert eliminated == expected(K, q), (q, K.dim)
    assert id(sn141) not in eliminating
    assert {id(rp2), *map(id, planes)} <= eliminating
    assert reduced_homology(rp2, max_degree=1).torsion(1) == (2,)


def assert_acyclic_matching(K):
    """At every ``last`` up to the dimension, ``_matching`` lists each layer through
    ``last`` and none above, passes the acyclicity oracle, and its critical counts
    keep the reduced Euler characteristic of the ``last``-skeleton."""
    masks = complexes_module._neighbour_masks(K)
    for last in range(K.dim + 1):
        cells, up, critical = complexes_module._matching(K, last, masks)
        assert [len(layer) for layer in cells] == [len(K.simplices[d]) for d in range(last + 1)]
        assert morse_matching_faults(cells, up, critical) == []
        euler = -1 + sum((-1) ** d * len(K.simplices[d]) for d in range(last + 1))
        assert sum((-1) ** d * len(c) for d, c in enumerate(critical)) == euler


def test_reduced_homology_matches_elimination_oracle_on_fixtures():
    """RP^2, the pseudo-projective planes and every bounded truncation, with and
    without its top simplices, at every ``max_degree``: the same result as
    eliminating every boundary.  A truncation is eliminated once, in full: through
    degree q the elimination reads d_0..d_{q+1} only, so its entries through q are
    the full ones, as the torsion fixtures check at every ``max_degree``.  The
    torsion fixtures' matchings also pass the acyclicity oracle."""
    torsion = [(rp2_complex(), 2)] + [(pseudo_projective_plane(m), m) for m in (2, 3, 5, 7)]
    for K, order in torsion:
        assert reduced_homology(K).entries == ((0, 0, ()), (1, 0, (order,)), (2, 0, ()))
        assert_acyclic_matching(K)
        full = reduced_homology_by_elimination(K)
        for max_degree in (None, *range(K.dim + 2)):
            want = reduced_homology_by_elimination(K, max_degree)
            assert want.entries == full.entries[: len(want.entries)]
            assert reduced_homology(K, max_degree) == want, max_degree
    for params in BOUNDED_TRUNCATIONS:
        for top in (False, True):
            K = build_sn_truncated(*params, include_top=top)
            full = reduced_homology_by_elimination(K)
            for max_degree in (None, *range(K.dim + 2)):
                got = reduced_homology(K, max_degree)
                cut = K.dim if max_degree is None else min(max_degree, K.dim)
                assert got.entries == full.entries[: cut + 1], (params, top, max_degree)
                assert got.is_empty == full.is_empty


SMALL_TORSION = (None, rp2_complex(), pseudo_projective_plane(2), pseudo_projective_plane(3))


@given(
    st.sampled_from(SMALL_TORSION),
    st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), max_size=10),
    st.integers(0, 2),
    st.sampled_from((None, 0, 1, 2, 3)),
)
@settings(max_examples=300, deadline=None)
def test_reduced_homology_matches_elimination_oracle(base, raw, unused, max_degree):
    """A random complex on labels 0..7, beside a torsion complex or alone,
    with ``unused`` labels that no simplex carries: single-vertex lists give
    isolated vertices, and labels no list draws go unused too.  Its matchings
    also pass the acyclicity oracle."""
    shift = len(base.vertices) if base else 0
    simplices = [tuple(v + shift for v in s) for s in raw]
    if base:
        simplices += base.maximal_simplices()
    K = SimplicialComplex.build(tuple(range(shift + 8 + unused)), simplices)
    assert reduced_homology(K, max_degree) == reduced_homology_by_elimination(K, max_degree)
    assert_acyclic_matching(K)


def gradient_path_counts(sigma, up):
    """For each face reached from the boundary of ``sigma`` along gradient paths (a
    face with an up partner steps on to the partner's other faces), the number of
    paths that reach it, summed over its in-edges by memoised recursion."""
    starts = [t for t, _ in complexes_module._faces(sigma)]
    into = {}
    todo = list(starts)
    seen = set(starts)
    while todo:
        t = todo.pop()
        if t in up:
            for f, _ in complexes_module._faces(up[t]):
                if f != t:
                    into.setdefault(f, []).append(t)
                    if f not in seen:
                        seen.add(f)
                        todo.append(f)
    counts = {}

    def paths(t):
        if t not in counts:
            counts[t] = (t in starts) + sum(paths(u) for u in into.get(t, ()))
        return counts[t]

    return {t: paths(t) for t in seen}


def test_morse_flow_expands_each_gradient_cell_once_per_critical_cell(monkeypatch):
    """On the strip the paths from one critical triangle to one edge number in the
    tens of thousands, yet each gradient edge it reaches is flowed once: its partner's
    faces are listed once, after the critical triangle's own."""
    K = strip_beside_rp2(20)
    assert_acyclic_matching(K)
    _, up, critical = complexes_module._matching(K, 2, complexes_module._neighbour_masks(K))
    reached = {sigma: gradient_path_counts(sigma, up) for sigma in critical[2]}
    assert max(n for counts in reached.values() for n in counts.values()) > 10_000
    listed = []
    faces = complexes_module._faces

    def recording(s):
        listed.append(s)
        return faces(s)

    monkeypatch.setattr(complexes_module, "_faces", recording)
    assert reduced_homology(K) == reduced_homology_by_elimination(K)
    runs = []
    for s in listed:
        if s in reached:
            runs.append([s])
        else:
            runs[-1].append(s)
    assert [run[0] for run in runs] == sorted(critical[2])
    for sigma, *partners in runs:
        assert sorted(partners) == sorted(up[t] for t in reached[sigma] if t in up)


def test_homology_cones_are_acyclic():
    rng = random.Random(6)
    for _ in range(100):
        nverts = rng.randint(1, 5)
        simplices = set()
        for _ in range(rng.randint(1, 6)):
            size = rng.randint(1, min(3, nverts))
            simplices.add(tuple(sorted(rng.sample(range(nverts), size))))
        base = SimplicialComplex.build(tuple(range(nverts + 1)), simplices)
        coned = {s + (nverts,) for s in base.all_simplices()} | set(base.all_simplices())
        cone = SimplicialComplex.build(tuple(range(nverts + 1)), coned)
        hom = reduced_homology(cone)
        assert all(hom.is_trivial(d) for d in range(cone.dim + 1))


def test_euler_characteristic_equals_alternating_betti_sum():
    for K in (full_simplex(4), boundary_simplex(4), simplex_skeleton(5, 2)):
        hom = reduced_homology(K)
        total = 1 + sum(
            (-1) ** d * hom.betti(d) for d in range(K.dim + 1)
        )  # unreduced chi
        assert K.euler_characteristic() == total
        assert all(not hom.torsion(d) for d in range(K.dim + 1))


def test_homological_connectivity():
    empty = SimplicialComplex.build((), [])
    assert homological_connectivity(empty) == -2
    assert homological_connectivity(full_simplex(1)) == 0
    assert homological_connectivity(boundary_simplex(4)) == 1
    two_points = SimplicialComplex.build((0, 1), [(0,), (1,)])
    assert homological_connectivity(two_points) == -1
    for n in (3, 4, 5, 6):
        assert homological_connectivity(simplex_skeleton(n, n - 2)) == n - 3
    assert is_q_acyclic(boundary_simplex(4), 1)
    assert not is_q_acyclic(boundary_simplex(4), 2)
    assert not is_q_acyclic(empty, -1)


def test_wcm_examples():
    ok, _ = wcm_check(full_simplex(3), 2)
    assert ok
    ok, _ = wcm_check(boundary_simplex(4), 2)
    assert ok
    ok, why = wcm_check(boundary_simplex(4), 3)
    assert not ok and "acyclic" in why
    for n in (4, 5, 6):
        ok, why = wcm_check(simplex_skeleton(n, n - 2), n - 2)
        assert ok, why


def memoised_link():
    """``link_by_closure`` built once per (complex, simplex); complexes hash
    by identity, and the cache keeps each one alive."""
    cache = {}

    def get(k, s):
        if (k, s) not in cache:
            cache[k, s] = link_by_closure(k, s)
        return cache[k, s]

    return get


def wcm_fixtures():
    """Small complexes for the differential wcm and link tests."""
    rp2 = SimplicialComplex.build(
        tuple(range(6)), [tuple(v - 1 for v in f) for f in RP2_FACETS]
    )
    delta3 = complex_from_json(json.loads((FIXTURES / "boundary_delta3.json").read_text()))
    bowtie = SimplicialComplex.build(tuple(range(5)), [(0, 1, 2), (0, 3, 4)])
    return [
        rp2,
        delta3,
        bowtie,
        *(full_simplex(n) for n in (1, 2, 3, 4)),
        *(boundary_simplex(n) for n in (2, 3, 4, 5)),
        *(simplex_skeleton(n, d) for n in (4, 5, 6) for d in range(n - 1)),
    ]


def wcm_message_kind(ok, why):
    """``ok``, or which of the complex or a link fails, and whether it is empty."""
    if ok:
        return "ok"
    subject = "complex" if why.startswith("complex ") else "link"
    return f"{subject} {'empty' if ' is empty but ' in why else 'not acyclic'}"


def test_wcm_matches_every_link_oracle_on_fixtures():
    link_of = memoised_link()
    empty = SimplicialComplex.build((), [])
    cases = [(empty, n) for n in (-1, 0)]
    cases += [(K, n) for K in wcm_fixtures() for n in range(-3, 6)]
    truncations = [
        build_sn_truncated(1, 3, 1),
        build_sn_truncated(1, 3, 1, include_top=True),
        build_sn_truncated(1, 4, 1),
    ]
    cases += [(K, n) for K in truncations for n in range(-3, 5)]
    kinds = set()
    for K, n in cases:
        got = wcm_check(K, n)
        assert got == wcm_check_every_link(K, n, link_of), (K.simplices.keys(), n)
        kinds.add(wcm_message_kind(*got))
    assert kinds == {
        "ok", "complex empty", "complex not acyclic", "link empty", "link not acyclic"
    }
    assert wcm_check(empty, 0) == (False, "complex is empty but must be -1-connected")
    assert wcm_check(empty, -1) == (True, None)


@given(
    st.lists(st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=8),
    st.integers(-3, 5),
)
@settings(max_examples=150, deadline=None)
def test_wcm_matches_every_link_oracle_hypothesis(simplices, n):
    K = SimplicialComplex.build(tuple(range(8)), simplices)
    assert wcm_check(K, n) == wcm_check_every_link(K, n)


def assert_same_complex(got, want):
    assert got.vertices == want.vertices
    assert list(got.simplices.items()) == list(want.simplices.items())


def test_link_star_skeleton_match_closure_oracles():
    for K in [*wcm_fixtures(), build_sn_truncated(1, 3, 1)]:
        for s in K.all_simplices():
            assert_same_complex(link(K, s), link_by_closure(K, s))
            assert_same_complex(star(K, s), star_by_closure(K, s))
        for d in range(-1, K.dim + 2):
            assert_same_complex(skeleton(K, d), skeleton_by_closure(K, d))
    with pytest.raises(ValidationError, match="is not a simplex of the complex"):
        star(boundary_simplex(4), (0, 1, 2, 3))


def test_wcm_builds_links_only_at_thresholds_zero_and_up(monkeypatch):
    built = []
    real_link = complexes_module.link

    def counting(k, s):
        built.append(s)
        return real_link(k, s)

    monkeypatch.setattr(complexes_module, "link", counting)
    K = build_sn_truncated(1, 4, 1)
    assert wcm_check(K, 2) == (True, None)
    assert len(built) == len(K.simplices[0]) == 84
    built.clear()
    assert wcm_check(K, 1) == (True, None)
    assert built == []


def test_bounded_vertex_census():
    vs1 = enumerate_bounded_vertices(1, 1, 1)
    assert len(vs1) == bounded_vertex_census(1) == 3
    shapes = {
        tuple(
            (dom.ray.base, dom.ray.dirs, tr.offset[0], tr.target_copy)
            for dom, tr in v.pieces
        )
        for v in vs1
    }
    assert (((1,), (1,), 0, 1),) in shapes  # identity
    assert (((1,), (1,), 1, 1),) in shapes  # shift
    assert (((1,), (), 0, 1), ((2,), (1,), 1, 1)) in shapes  # fix 1, shift [2, oo)

    vs2 = enumerate_bounded_vertices(1, 2, 1)
    assert len(vs2) == bounded_vertex_census(2) == 18

    for v in vs1 + vs2:
        diag = validate(v)
        assert diag.valid
        assert canonical_threshold(v) <= 1


ENUMERATION_ORACLE_CASES = [
    (1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 2, 2), (1, 3, 2), (1, 2, 3),
    (2, 1, 1), (2, 2, 1), (3, 1, 0), (3, 2, 0),
]


@pytest.mark.parametrize(
    "k, n, bound", ENUMERATION_ORACLE_CASES,
    ids=["".join(map(str, p)) for p in ENUMERATION_ORACLE_CASES],
)
def test_enumeration_matches_meets_oracle(k, n, bound):
    """Same vertices, in the same order, with the same canonical pieces and labels."""
    got = enumerate_bounded_vertices(k, n, bound)
    expected = enumerate_bounded_vertices_by_meets(k, n, bound)
    assert [map_to_json(v) for v in got] == [map_to_json(v) for v in expected]
    assert got == expected


def test_bounded_vertex_set_closed_under_symmetric_action():
    for n in (2, 3):
        vs = enumerate_bounded_vertices(1, n, 1)
        for sigma in itertools.permutations(range(1, n + 1)):
            e = embed_symmetric(PermutationN(tuple(sigma)), 1)
            for v in vs:
                moved = compose(e, v)
                assert any(equals(moved, w) for w in vs)


def test_build_sn_truncated():
    K1 = build_sn_truncated(1, 1, 1)
    assert len(K1.vertices) == 3
    assert K1.dim == 0

    K1top = build_sn_truncated(1, 1, 1, include_top=True)
    assert len(K1top.vertices) == 1  # only the bijection survives

    K2 = build_sn_truncated(1, 2, 1)
    assert len(K2.vertices) == 18
    assert K2.dim == 0  # p+1 <= n-1 allows only vertices

    K2top = build_sn_truncated(1, 2, 1, include_top=True)
    assert K2top.dim == 1
    for s in K2top.simplices_of_dim(1):
        maps = [K2top.vertices[i] for i in s]
        assert simplex_test(maps)

    K3 = build_sn_truncated(1, 3, 1)
    assert K3.dim <= 1
    assert len(K3.simplices_of_dim(1)) > 0
    with pytest.raises(SizeLimitError):
        build_sn_truncated(1, 3, 1, size_limit=10)


def test_canonical_inclusions_span_simplices():
    for k, n in ((1, 2), (2, 3), (1, 4)):
        incs = [inclusion(k, n, c) for c in range(1, n + 1)]
        for size in range(1, n + 1):
            assert simplex_test(incs[:size])


def test_pi_projection():
    assert pi_projection(inclusion(1, 2, 2)) == 2
    g = vertex_map(
        1,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 2)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((-1,), 1)),
        ),
    )
    assert pi_projection(g) == 1
    # vertices of a simplex project to pairwise distinct copies
    K = build_sn_truncated(1, 3, 1)
    for s in K.simplices_of_dim(1):
        a, b = (K.vertices[i] for i in s)
        assert pi_projection(a) != pi_projection(b)


def test_simplex_test_examples():
    miss = inclusion(1, 2, 1, shift=1)  # misses (1,1)
    other = inclusion(1, 2, 2)
    assert simplex_test([miss])
    assert simplex_test([miss, other]) is False  # top pair must cover everything
    assert simplex_test([inclusion(1, 2, 1), other]) is True

    gap = vertex_map(
        1,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((1,), 1)),
        ),
    )
    overlap = inclusion(1, 2, 1)
    assert not simplex_test([gap, overlap])

    with pytest.raises(ValidationError):
        simplex_test([inclusion(1, 2, 1), inclusion(1, 2, 2), inclusion(1, 2, 1, shift=3)])


def test_simplexwise_injective_check():
    K = build_sn_truncated(1, 3, 1)
    target = simplex_skeleton(3, 1)
    mapping = [pi_projection(v) - 1 for v in K.vertices]
    assert simplexwise_injective_check(K, target, mapping)

    edge = SimplicialComplex.build((0, 1), [(0, 1)])
    point = full_simplex(1)
    assert simplexwise_injective_check(edge, point, [0, 0]) is False
    assert simplexwise_injective_check(edge, edge, [0, 1]) is True
    with pytest.raises(ValidationError):
        simplexwise_injective_check(edge, SimplicialComplex.build((0, 1), [(0,), (1,)]), [0, 1])


def test_build_s_section_examples():
    fs = build_s_section(1, 2, [])
    assert equals(fs[0], inclusion(1, 2, 1))
    assert equals(fs[1], inclusion(1, 2, 2))

    s = inclusion(1, 2, 1)
    fs = build_s_section(1, 2, [s])
    # the lone S-vertex projects to copy 1, so nothing constrains either slot
    assert equals(fs[0], inclusion(1, 2, 1))
    assert equals(fs[1], inclusion(1, 2, 2))
    ok, _ = verify_s_section(1, 2, [s], fs)
    assert ok

    # an S-vertex aiming at copy 2 with debris in copy 1 pushes f_1 out
    g = vertex_map(
        1,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((2,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((-1,), 2)),
        ),
    )
    fs = build_s_section(1, 2, [g])
    assert equals(fs[0], inclusion(1, 2, 1, shift=3))
    ok, _ = verify_s_section(1, 2, [g], fs)
    assert ok

    # a section vertex equal to an S-vertex: sigma + rho(tau) then repeats a
    # vertex, and with n = 3 that pair is short enough that only the
    # disjointness test (equal maps have equal images) rejects it
    s3 = inclusion(1, 3, 1)
    fs = build_s_section(1, 3, [s3])
    assert equals(fs[0], s3) and fs[0] is not s3
    assert not simplex_test([s3, fs[0]])
    ok, witness = verify_s_section(1, 3, [s3], fs)
    assert ok, witness


def test_verify_s_section_rejects_bad_sections():
    s = inclusion(1, 3, 2)
    good = build_s_section(1, 3, [s])
    ok, _ = verify_s_section(1, 3, [s], good)
    assert ok

    # overlap f_1 with the S-vertex's debris: break the biconditional
    bad = list(good)
    bad[0] = inclusion(1, 3, 1)
    overlapping = vertex_map(
        1,
        3,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((-1,), 2)),
        ),
    )
    ok, witness = verify_s_section(1, 3, [overlapping], [bad[0], good[1], good[2]])
    assert not ok
    assert witness is not None

    with pytest.raises(ValidationError):
        verify_s_section(1, 2, [], [inclusion(1, 2, 2), inclusion(1, 2, 2)])


def seeded_s_sets():
    """The 100 seeded (k, n, S) of ``test_s_section_property_seeded``."""
    rng = random.Random(77)
    for trial in range(100):
        k = rng.choice((1, 2))
        n = rng.choice((2, 3, 4))
        size = rng.randint(0, 6)
        S = []
        for i in range(size):
            g = random_element(k, n, rng.randint(0, 2), seed=trial * 31 + i)
            S.append(canonical_form(restrict_vertex(g)))
        yield k, n, S


@pytest.mark.parametrize("public, k, n, message", [
    (build_s_section, 1, -1, "need n >= 1"),
    (build_s_section, 1, 0, "need n >= 1"),
    (build_s_section, 0, 2, "need k >= 1"),
    (build_s_section, 0, 0, "need k >= 1"),
    (verify_s_section, 2, 0, "need n >= 1"),
    (verify_s_section, 1, -3, "need n >= 1"),
    (verify_s_section, 0, 2, "need k >= 1"),
    (verify_s_section, -1, -1, "need k >= 1"),
], ids=["build-n-neg", "build-n0", "build-k0", "build-k0-n0",
        "verify-n0", "verify-n-neg", "verify-k0", "verify-k-neg-n-neg"])
def test_section_functions_check_k_and_n_before_any_work(public, k, n, message):
    """k < 1 and n < 1 are named before any vertex is read: an empty S or section
    is not accepted, and a vertex that fails ``validate`` is not reached."""
    broken = HoughtonMap(1, 1, 2, ())
    for vertices in ([], [broken]):
        args = (k, n, vertices) if public is build_s_section else (k, n, vertices, vertices)
        with pytest.raises(ValidationError) as info:
            public(*args)
        assert str(info.value) == message


def test_s_section_property_seeded():
    for k, n, S in seeded_s_sets():
        fs = build_s_section(k, n, S)
        for subset_size in range(1, n):
            for combo in itertools.combinations(fs, subset_size):
                assert simplex_test(list(combo))
        ok, witness = verify_s_section(k, n, S, fs)
        assert ok, witness


def restrict_vertex(g):
    from hforge.houghton import restrict

    return restrict(g, 1)


def test_section_masks_match_pairwise_oracle_on_seeded_sets():
    for k, n, S in seeded_s_sets():
        fs = build_s_section(k, n, S)
        got = complexes_module._verify_s_section(k, n, S, fs, [_images(v) for v in S])
        assert got == verify_s_section_by_pairs(k, n, S, fs)


def test_section_masks_match_pairwise_oracle_on_shallow_first_slots():
    """A first slot swapped for the inclusion into copy 1 meets S's debris
    there, so the witness path runs; both checks must name the same pair."""
    rng = random.Random(91)
    outcomes = set()
    for k, n in itertools.product((1, 2), range(1, 5)):
        for trial in range(6):
            S = [
                random_injection(k, 1, n, rng.randint(0, 2), seed=500 * k + 50 * n + 7 * trial + i)
                for i in range(rng.randint(1, 5))
            ]
            S.append(S[0])  # a repeat, which both must drop
            rho = build_s_section(k, n, S)
            rho[0] = inclusion(k, n, 1)
            got = complexes_module._verify_s_section(k, n, S, rho, [_images(v) for v in S])
            assert got == verify_s_section_by_pairs(k, n, S, rho)
            outcomes.add(got[0])
    assert outcomes == {False, True}


def slab_vertex(k, n, own, debris, depth=1):
    """The vertex sending the slab x_1 = 1 of N^k, a ray of dimension k - 1, onto the
    slab x_1 = ``depth`` of copy ``debris`` and the rest, moved down by one in x_1,
    onto copy ``own``."""
    slab = Ray((1,) * k, tuple(range(2, k + 1)))
    rest = Ray((2,) + (1,) * (k - 1), tuple(range(1, k + 1)))
    return vertex_map(k, n, (
        (MarkedRay(slab, 1), Translation((depth - 1,) + (0,) * (k - 1), debris)),
        (MarkedRay(rest, 1), Translation((-1,) + (0,) * (k - 1), own)),
    ))


FULL_SIMPLEX_S = [(k, n) for k in (1, 2) for n in range(3, 8)]


@pytest.mark.parametrize("k, n", FULL_SIMPLEX_S, ids=[f"k{k}-n{n}" for k, n in FULL_SIMPLEX_S])
def test_section_pairs_match_exhaustive_oracle_on_a_full_simplex(k, n):
    """S is every vertex of (k, n, 0): one simplex of n vertices, so the exhaustive
    check meets every sigma it has with every tau.  With the built section each pair
    passes.  Slots 1 and 3 swapped for vertices projecting to their own copies that
    put slabs into copy 2 make S's vertex in copy 2 fail against tau = {1} first, and
    against {3}.  Left in the section built for S alone, the first slab meets the
    section's vertex in copy 2."""
    S = enumerate_bounded_vertices(k, n, 0)
    images = [_images(v) for v in S]
    rho = build_s_section(k, n, S)
    got = complexes_module._verify_s_section(k, n, S, rho, images)
    assert got == verify_s_section_by_pairs(k, n, S, rho) == (True, None)

    shallow = [slab_vertex(k, n, 1, 2), slab_vertex(k, n, 3, 2, depth=2)]
    rho[0] = shallow[0]
    unspanned = "^not a section: assigned vertices do not span simplices$"
    with pytest.raises(ValidationError, match=unspanned):
        complexes_module._verify_s_section(k, n, S, rho, images)
    with pytest.raises(ValidationError, match=unspanned):
        verify_s_section_by_pairs(k, n, S, rho)

    rho = build_s_section(k, n, [*S, *shallow])
    rho[0], rho[2] = shallow
    got = complexes_module._verify_s_section(k, n, S, rho, images)
    assert got == verify_s_section_by_pairs(k, n, S, rho)
    [in_copy_2] = [v for v in S if pi_projection(v) == 2]
    assert got == (False, ((map_to_json(in_copy_2),), (1,)))


def test_section_check_of_a_thirteen_vertex_simplex_is_quick():
    """The 13 vertices of (1, 13, 0) span one simplex; the exhaustive enumeration
    of its sigmas against every tau took seconds, the pairs take milliseconds."""
    S = enumerate_bounded_vertices(1, 13, 0)
    rho = build_s_section(1, 13, S)
    start = time.perf_counter()
    got = verify_s_section(1, 13, S, rho)
    assert time.perf_counter() - start < 1.0
    assert got == (True, None)


BOUNDED_TRUNCATIONS = [
    (1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1), (1, 2, 2), (1, 3, 2), (2, 1, 1), (2, 2, 1)
]


def mask_pairs(cells):
    """The index pairs i < j that ``rays._disjoint_masks`` marks as disjoint."""
    masks = _disjoint_masks(cells)
    return [(i, j) for i, mask in enumerate(masks) for j in complexes_module._bits(mask) if i < j]


@pytest.mark.parametrize(
    "params", BOUNDED_TRUNCATIONS, ids=["".join(map(str, p)) for p in BOUNDED_TRUNCATIONS]
)
def test_disjoint_masks_match_bucket_oracle(params):
    vertices = enumerate_bounded_vertices(*params)
    cells = image_cells_by_refit(vertices)[1]
    assert mask_pairs(cells) == sorted(disjoint_pairs_by_buckets(vertices, cells))


@pytest.mark.parametrize(
    "params", BOUNDED_TRUNCATIONS, ids=["".join(map(str, p)) for p in BOUNDED_TRUNCATIONS]
)
def test_enumerated_cells_match_image_cells(params):
    """The cells the enumeration pruned on give the same graph and cover verdicts."""
    k, n, bound = params
    _, leaves, cells = complexes_module._bounded_vertices(*params, size_limit=None)
    vertices = enumerate_bounded_vertices(*params, size_limit=None)
    assert len(leaves) == len(vertices)
    count = n * (2 * bound + 1) ** k
    image_count, image_cells = image_cells_by_refit(vertices)
    assert list(_disjoint_masks(cells)) == list(_disjoint_masks(image_cells))
    covers = [len(c) == count for c in cells]
    assert covers == [len(c) == image_count for c in image_cells]
    if params[1] == 1:
        assert any(covers)  # the identity covers N^k


def test_disjoint_masks_match_bucket_oracle_on_probe_pools(monkeypatch):
    """The probe's pool masks, over the enumeration's cells and its far cells, are those
    of one grid fitted again to the vertex maps and the ``_far_vertex`` maps of its keys."""
    pools, keys = [], []
    masks = complexes_module._disjoint_masks
    intermediate = complexes_module._intermediate

    def recording_masks(cells):
        pools.append(list(cells))
        return masks(cells)

    def recording(*args):
        keys.append(intermediate(*args))
        return keys[-1]

    monkeypatch.setattr(complexes_module, "_disjoint_masks", recording_masks)
    monkeypatch.setattr(complexes_module, "_intermediate", recording)
    vertices = enumerate_bounded_vertices(1, 3, 1)
    for seed in (3, 4, 5):
        pools.clear()
        keys.clear()
        report = connectivity_probe(1, 3, 1, 3, trials=30, seed=seed)
        [cells] = pools
        far_keys = dict.fromkeys(key for key in keys if 1 < key[1] <= 4)
        pool = vertices + [complexes_module._far_vertex(1, 3, *key) for key in far_keys]
        assert len(cells) == len(pool) > len(vertices)  # intermediates joined the pool
        refit = image_cells_by_refit(pool)[1]
        assert list(masks(cells)) == list(masks(refit))
        pairs = disjoint_pairs_by_buckets(pool, refit)
        assert mask_pairs(refit) == sorted(pairs)
        # the reported component is vertex 0's union-find class, and it is
        # connected: exact elimination finds its reduced H_0 zero
        roots = component_roots_by_union_find(range(len(pool)), pairs)
        members = [v for v in range(len(pool)) if roots[v] == roots[0]]
        assert report["component_size"] == len(members)
        index = {v: i for i, v in enumerate(members)}
        component = SimplicialComplex.build(
            tuple(pool[v] for v in members),
            [(i,) for i in index.values()]
            + [(index[a], index[b]) for a, b in pairs if a in index and b in index],
            size_limit=None,
        )
        assert reduced_homology(component, max_degree=0).betti(0) == 0
        assert report["component_betti0"] == 0


@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                    lambda e: e[0] != e[1]
                ),
                max_size=2 * n,
            ),
        )
    )
)
@settings(max_examples=300, deadline=None)
def test_component_matches_union_find(graph):
    """From every start, the mask search reaches exactly the start's
    union-find class; vertices on no edge are components of their own."""
    n, edges = graph
    masks = [0] * n
    for a, b in edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    roots = component_roots_by_union_find(range(n), edges)
    for v in range(n):
        expected = sum(1 << u for u in range(n) if roots[u] == roots[v])
        assert complexes_module._component(masks, v) == expected


def test_connectivity_probe_n3():
    report = connectivity_probe(1, 3, 1, 3, trials=60, seed=9)
    assert report["connected_pairs"] == 60
    assert report["disconnected_pairs"] == 0
    assert report["max_path_length"] <= 2
    assert report["component_betti0"] == 0
    assert report["bounded_vertices"] == 45


def test_connectivity_probe_small_n():
    report = connectivity_probe(1, 2, 1, 3, trials=5, seed=1)
    assert "nonempty" in report["claim"] or "(-1)" in report["claim"]
    assert report["nonempty"] is True


def test_complex_json_round_trip():
    K = boundary_simplex(4)
    data = complex_to_json(K)
    back = complex_from_json(data)
    assert sorted(back.maximal_simplices()) == sorted(K.maximal_simplices())

    K2 = build_sn_truncated(1, 2, 1, include_top=True)
    data2 = complex_to_json(K2)
    back2 = complex_from_json(data2)
    assert len(back2.vertices) == 18
    assert back2.simplices == K2.simplices

    hom = homology_to_json(reduced_homology(K))
    assert hom == [
        {"degree": 0, "betti": 0, "torsion": []},
        {"degree": 1, "betti": 0, "torsion": []},
        {"degree": 2, "betti": 1, "torsion": []},
    ]


def test_size_guard_messages_name_stage_and_count():
    with pytest.raises(SizeLimitError, match=r"size limit 3: 5 simplices listed"):
        SimplicialComplex.build(tuple(range(5)), [(i,) for i in range(5)], size_limit=3)
    # (1,3,1) has 45 vertices; the enumeration stops at the eleventh
    with pytest.raises(
        SizeLimitError, match=r"vertex enumeration exceeds the size limit 10: 11 vertices"
    ):
        enumerate_bounded_vertices(1, 3, 1, size_limit=10)
    # 45 vertices fit, but 45 + 360 edges do not: the graph guard trips on
    # the first vertex whose neighbours above it pass 50, before any layer.
    with pytest.raises(
        SizeLimitError,
        match=r"disjointness graph exceeds the size limit 50: 63 vertices and edges",
    ):
        build_sn_truncated(1, 3, 1, size_limit=50)
    # 84 + 1,692 fit; the first triangle over 2,000 trips the layer guard.
    with pytest.raises(
        SizeLimitError,
        match=r"simplex layers exceed the size limit 2000: 2001 simplices at dimension 2",
    ):
        build_sn_truncated(1, 4, 1, size_limit=2000)


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True), max_size=10
    )
)
@settings(max_examples=300, deadline=None)
def test_q_acyclic_matches_reduced_homology(raw):
    """Degree 0 is decided by the mask search of ``_component``, higher
    degrees by the Morse complex; single-vertex lists put isolated vertices in
    many of the complexes."""
    K = SimplicialComplex.build(tuple(range(8)), raw)
    if K.is_empty:
        assert not any(is_q_acyclic(K, q) for q in range(-1, 3))
        return
    hom = reduced_homology(K, max_degree=0)
    assert is_q_acyclic(K, 0) == hom.is_trivial(0)
    full = reduced_homology(K)
    for q in range(1, 4):
        assert is_q_acyclic(K, q) == all(full.is_trivial(d) for d in range(min(q, K.dim) + 1))


class RecordingLayers(dict):
    """Simplex layers that note in ``read`` every degree looked up or iterated."""

    def __init__(self, layers, read):
        super().__init__(layers)
        self.read = read

    def __getitem__(self, d):
        self.read.add(d)
        return super().__getitem__(d)

    def get(self, d, default=None):
        self.read.add(d)
        return super().get(d, default)

    def items(self):
        self.read.update(self)
        return super().items()

    def values(self):
        self.read.update(self)
        return super().values()


def test_reduced_homology_reads_only_the_layers_the_matching_needs():
    """d_0 and d_1 come from counts and components, so degrees through 0 read layers
    0 and 1 only; degrees through q >= 1 read layers 0..q+1, the matching's cells."""
    read = set()

    def recording(K):
        return SimplicialComplex(K.vertices, RecordingLayers(K.simplices, read))

    K = recording(full_simplex(6))
    expected = ((0, {0, 1}), (1, {0, 1, 2}), (2, {0, 1, 2, 3}), (None, set(range(6))))
    for max_degree, layers in expected:
        read.clear()
        assert reduced_homology(K, max_degree).is_trivial(0)
        assert read == layers, max_degree
    read.clear()
    assert is_q_acyclic(K, 0) and not is_q_acyclic(recording(boundary_simplex(3)), 1)
    assert read == {0, 1}


def test_q_acyclic_degree_zero_examples():
    assert is_q_acyclic(SimplicialComplex.build((0, 1), [(0,)]), 0)
    assert not is_q_acyclic(SimplicialComplex.build((0, 1), [(0,), (1,)]), 0)
    assert not is_q_acyclic(SimplicialComplex.build(tuple(range(3)), [(0, 1), (2,)]), 3)
    assert is_q_acyclic(SimplicialComplex.build(tuple(range(3)), [(0, 1), (1, 2)]), 0)


@given(
    st.lists(
        st.lists(st.integers(0, 7), min_size=1, max_size=5, unique=True), max_size=12
    )
)
@settings(max_examples=200, deadline=None)
def test_maximal_simplices_match_quadratic_reference(raw):
    K = SimplicialComplex.build(tuple(range(8)), raw)
    assert K.maximal_simplices() == maximal_simplices_quadratic(K.simplices)


def test_maximal_simplices_match_quadratic_reference_on_fixtures():
    rp2 = SimplicialComplex.build(
        tuple(range(6)), [tuple(v - 1 for v in f) for f in RP2_FACETS]
    )
    delta3 = complex_from_json(json.loads((FIXTURES / "boundary_delta3.json").read_text()))
    fixtures = [
        SimplicialComplex.build((), []),
        full_simplex(1),
        full_simplex(4),
        boundary_simplex(4),
        simplex_skeleton(5, 2),
        link(boundary_simplex(5), (0,)),
        rp2,
        delta3,
        build_sn_truncated(1, 2, 1, include_top=True),
        build_sn_truncated(1, 3, 1),
        build_sn_truncated(1, 3, 1, include_top=True),
    ]
    for K in fixtures:
        assert K.maximal_simplices() == maximal_simplices_quadratic(K.simplices)


def link_by_full_scan(K, s):
    """``link`` as it was, on the full-scan cofaces, which hold the simplex itself."""
    sset, cofaces = cofaces_by_full_scan(K, s)
    by_dim = {}
    for rho in cofaces:
        if len(rho) > len(sset):
            t = tuple(v for v in rho if v not in sset)
            by_dim.setdefault(len(t) - 1, set()).add(t)
    return SimplicialComplex(K.vertices, {d: frozenset(by_dim[d]) for d in sorted(by_dim)})


def star_by_full_scan(K, s):
    """``star`` as it was: the face closure of the full-scan cofaces."""
    return SimplicialComplex.build(K.vertices, cofaces_by_full_scan(K, s)[1], size_limit=None)


def assert_layers_match_full_scan_oracles(K, simplices):
    """``maximal_simplices`` sorted once over all layers, and ``link`` and ``star`` of
    each given simplex from cofaces found by scanning its own layer too."""
    assert K.maximal_simplices() == maximal_simplices_by_global_sort(K)
    for s in simplices:
        assert_same_complex(link(K, s), link_by_full_scan(K, s))
        assert_same_complex(star(K, s), star_by_full_scan(K, s))


def test_layers_match_full_scan_oracles_on_fixtures():
    fixtures = [
        SimplicialComplex.build((), []),
        *wcm_fixtures(),
        complex_from_json(json.loads((FIXTURES / "rp2.json").read_text())),
        link(boundary_simplex(5), (0,)),
        SimplicialComplex.build(tuple(range(3000)), [(2990, 2991, 2992), (5, 2990)]),
    ]
    for K in fixtures:
        assert_layers_match_full_scan_oracles(K, K.all_simplices())


@pytest.mark.parametrize("include_top", [False, True], ids=["", "top"])
@pytest.mark.parametrize(
    "params", BOUNDED_TRUNCATIONS, ids=["".join(map(str, p)) for p in BOUNDED_TRUNCATIONS]
)
def test_layers_match_full_scan_oracles_on_truncations(params, include_top):
    """Every maximal simplex, and the links and stars of six seeded simplices per
    layer (or all of a smaller layer), since each full scan reads the whole complex."""
    K = build_sn_truncated(*params, include_top=include_top, size_limit=None)
    rng = random.Random("".join(map(str, params)) + str(include_top))
    picked = [
        s
        for d in sorted(K.simplices)
        for s in rng.sample(sorted(K.simplices[d]), min(6, len(K.simplices[d])))
    ]
    assert_layers_match_full_scan_oracles(K, picked)


@given(
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=5, unique=True), max_size=10),
    st.integers(0, 20),
)
@settings(max_examples=200, deadline=None)
def test_layers_match_full_scan_oracles_hypothesis(raw, unused):
    K = SimplicialComplex.build(tuple(range(10 + unused)), raw)
    assert_layers_match_full_scan_oracles(K, K.all_simplices())


def test_wcm_check_lists_no_maximal_simplices(monkeypatch):
    """At threshold -1 ``wcm_check`` reads the maximal simplices of the one layer it
    tests, and never lists those of the whole complex."""
    calls = []
    listed = SimplicialComplex.maximal_simplices

    def counting(self):
        calls.append(self)
        return listed(self)

    monkeypatch.setattr(SimplicialComplex, "maximal_simplices", counting)
    link_of = memoised_link()
    kinds = set()
    for K in [*wcm_fixtures(), build_sn_truncated(1, 3, 1, include_top=True)]:
        for n in range(-3, K.dim + 3):
            got = wcm_check(K, n)
            assert got == wcm_check_every_link(K, n, link_of)
            kinds.add(wcm_message_kind(*got))
    assert "link empty" in kinds
    assert calls == []


def test_link_homology_ranks_only_the_links_own_vertices():
    """A link keeps its parent's 5,000 labels; its matching relabels onto its own
    0-simplices, ranks 0..5, the isolated 4999 included, which ties with every unused
    label at degree 0, and its homology matches exact elimination."""
    K = SimplicialComplex.build(
        tuple(range(5000)), [(4990, 4991, 4992, 4993), (17, 4000, 4990), (4990, 4999)]
    )
    L = link(K, (4990,))
    assert len(L.vertices) == 5000 and len(L.simplices[0]) == 6
    cells, _, _ = complexes_module._matching(L, L.dim, complexes_module._neighbour_masks(L))
    assert {v for layer in cells for s in layer for v in s} == set(range(6))
    assert reduced_homology(L) == reduced_homology_by_elimination(L)
    assert reduced_homology(L).entries == ((0, 2, ()), (1, 0, ()), (2, 0, ()))


def _indexed_simplices(K, candidates):
    """K's simplices per degree as tuples of indices into ``candidates``."""
    position = {
        json.dumps(map_to_json(v), sort_keys=True): i for i, v in enumerate(candidates)
    }
    index = [position[json.dumps(map_to_json(v), sort_keys=True)] for v in K.vertices]
    return {
        d: {tuple(sorted(index[i] for i in s)) for s in layer}
        for d, layer in K.simplices.items()
    }


@pytest.mark.parametrize("include_top", [False, True])
@pytest.mark.parametrize("k, n, bound", [(1, 1, 1), (1, 2, 1), (1, 3, 1), (1, 2, 2), (2, 1, 1)])
def test_build_sn_truncated_matches_brute_force(k, n, bound, include_top):
    candidates = enumerate_bounded_vertices(k, n, bound)
    K = build_sn_truncated(k, n, bound, include_top=include_top)
    assert _indexed_simplices(K, candidates) == sn_simplices_brute_force(
        candidates, include_top
    )


def test_build_sn_truncated_without_vertices(monkeypatch):
    monkeypatch.setattr(
        complexes_module, "_bounded_vertices", lambda *a, **kw: ((), [], [])
    )
    for n, include_top in ((1, True), (2, True), (3, False), (3, True)):
        K = build_sn_truncated(1, n, 1, include_top=include_top)
        assert K.vertices == ()
        assert K.simplices == {}
        assert K.is_empty


@pytest.mark.parametrize("include_top", [False, True], ids=["", "top"])
@pytest.mark.parametrize(
    "params", BOUNDED_TRUNCATIONS, ids=["".join(map(str, p)) for p in BOUNDED_TRUNCATIONS]
)
def test_layers_match_bit_by_bit_oracle(params, include_top):
    """Listing each clique's extensions in bulk, and the top layer through the
    cell-count masks, gives the layers that growing one bit at a time gave.  At
    each layer's cumulative count - 1, and halfway through the layer, where one
    clique's extensions overshoot the limit, both stop at the same guard in the
    same words."""
    expected = sn_layers_bit_by_bit(*params, include_top=include_top, size_limit=None)
    built = build_sn_truncated(*params, include_top=include_top, size_limit=None)
    assert built.simplices == expected
    total = 0
    for d in sorted(expected):
        below, total = total, total + len(expected[d])
        for limit in sorted({total - 1, below + len(expected[d]) // 2}):
            with pytest.raises(SizeLimitError) as want:
                sn_layers_bit_by_bit(*params, include_top=include_top, size_limit=limit)
            with pytest.raises(SizeLimitError) as got:
                build_sn_truncated(*params, include_top=include_top, size_limit=limit)
            assert str(got.value) == str(want.value)


@given(st.integers(0, 2**300) | st.sampled_from([0, 1, 2**4000, 2**4000 - 1]))
@settings(max_examples=300, deadline=None)
def test_bits_match_peeling(mask):
    assert complexes_module._bits(mask) == list(set_bits_by_peeling(mask))


def test_pair_test_matches_all_pairs_oracle():
    rng = random.Random(11)
    groups = [
        enumerate_bounded_vertices(1, 3, 1),
        [
            canonical_form(restrict_vertex(random_element(2, 3, rng.randint(0, 2), seed=s)))
            for s in range(30)
        ],
    ]
    for vertices in groups:
        images = [tuple(v.image_ray(p) for p in v.pieces) for v in vertices]
        for i, j in itertools.combinations(range(len(vertices)), 2):
            expected = images_disjoint_all_pairs(images[i], images[j])
            assert simplex_test([vertices[i], vertices[j]]) == expected


def _copy_vertex(g, copy):
    """The vertex that ``g`` restricts to on one copy of its domain."""
    pieces = tuple((MarkedRay(dom.ray, 1), tr) for dom, tr in g.pieces if dom.copy == copy)
    return HoughtonMap(g.k, 1, g.n, pieces)


def _shifted(v, d):
    """``v`` followed by the translation by d in every coordinate."""
    pieces = tuple(
        (dom, Translation(tuple(x + d for x in tr.offset), tr.target_copy))
        for dom, tr in v.pieces
    )
    return HoughtonMap(v.k, v.m, v.n, pieces)


def _images(v):
    return tuple(v.image_ray(p) for p in v.pieces)


def _random_vertices(rng, k, n, count):
    """Vertices from random elements of mixed thresholds, some of them shifted."""
    out = []
    for _ in range(count):
        g = random_element(k, n, rng.randint(0, 3 if k < 3 else 2), seed=rng.randrange(10**6))
        v = _copy_vertex(g, rng.randint(1, n))
        out.append(_shifted(v, rng.randint(1, 3)) if rng.random() < 0.3 else v)
    return out


def test_image_cells_match_all_pairs_oracle():
    rng = random.Random(29)
    outcomes = set()
    for k in (1, 2, 3):
        for n in (2, 3):
            vertices = _random_vertices(rng, k, n, 14)
            _, cells = image_cells_by_refit(vertices)
            images = [_images(v) for v in vertices]
            for i, j in itertools.combinations(range(len(vertices)), 2):
                expected = images_disjoint_all_pairs(images[i], images[j])
                assert cells[i].isdisjoint(cells[j]) == expected
                outcomes.add((k, expected))
    assert outcomes == {(k, b) for k in (1, 2, 3) for b in (False, True)}


def _covers_by_containment(vertices):
    k, n = vertices[0].k, vertices[0].n
    rays = [r for v in vertices for r in _images(v)]
    return next(uncovered_cells_by_containment(k, n, rays), None) is None


def test_top_simplex_cover_matches_containment_oracle():
    """n vertices: the cell count decides cover exactly when the containment scan does."""
    rng = random.Random(31)
    outcomes = set()
    for trial in range(60):
        k, n = 1 + trial % 3, rng.choice((1, 2, 3))
        g = random_element(k, n, rng.randint(0, 2), seed=trial)
        vertices = [_copy_vertex(g, c) for c in range(1, n + 1)]
        if trial % 2:
            i = rng.randrange(n)
            vertices[i] = _shifted(vertices[i], 1)
        disjoint = all(
            images_disjoint_all_pairs(_images(a), _images(b))
            for a, b in itertools.combinations(vertices, 2)
        )
        expected = disjoint and _covers_by_containment(vertices)
        assert simplex_test(vertices) == expected
        outcomes.add(expected)
    assert outcomes == {False, True}


def test_simplex_test_matches_all_pairs_oracle_on_seeded_sets():
    """Seeded vertex sets of three kinds: a full-size tuple of the copies of
    one element, which covers unless a copy is shifted; a map beside an equal
    copy of itself; and draws of mixed thresholds.  A set spans a simplex when
    ``images_disjoint_all_pairs`` holds for every pair and, at full size, the
    containment scan finds no uncovered cell."""
    rng = random.Random(43)
    seen = set()
    for trial in range(90):
        k, n, kind = rng.choice((1, 2)), rng.choice((2, 3)), trial % 3
        if kind == 0:
            g = random_element(k, n, rng.randint(0, 2), seed=trial)
            vertices = [_copy_vertex(g, c) for c in range(1, n + 1)]
            if rng.random() < 0.3:
                vertices[-1] = _shifted(vertices[-1], 1)
        elif kind == 1:
            v = _random_vertices(rng, k, n, 1)[0]
            vertices = [v, HoughtonMap(v.k, v.m, v.n, v.pieces)]
        else:
            vertices = _random_vertices(rng, k, n, rng.randint(1, n))
        expected = all(
            images_disjoint_all_pairs(_images(a), _images(b))
            for a, b in itertools.combinations(vertices, 2)
        ) and (len(vertices) < n or _covers_by_containment(vertices))
        assert simplex_test(vertices) == expected, (kind, vertices)
        seen.add((kind, expected))
    assert seen == {(0, True), (0, False), (1, False), (2, True), (2, False)}

    full = Ray((1,), (1,))
    overlapping = HoughtonMap(
        1,
        1,
        2,
        (
            (MarkedRay(full, 1), Translation((0,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((0,), 2)),
        ),
    )
    with pytest.raises(ValidationError) as excinfo:
        simplex_test([inclusion(1, 2, 2), overlapping])
    assert str(excinfo.value) == (
        "invalid vertex: ('domain is not a ray partition: cells overlap: "
        "MarkedRay(ray=Ray(base=(1,), dirs=(1,)), copy=1) and "
        "MarkedRay(ray=Ray(base=(2,), dirs=(1,)), copy=1)',)"
    )


def test_cover_counts_the_cell_just_past_a_pinned_base():
    # the image {1} u [3, oo) of copy 1 misses the point 2 and nothing else
    gap = vertex_map(
        1,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((1,), 1)),
        ),
    )
    assert simplex_test([gap, inclusion(1, 2, 2)]) is False
    assert not _covers_by_containment([gap, inclusion(1, 2, 2)])
    one_copy = vertex_map(1, 1, gap.pieces)
    assert simplex_test([one_copy]) is False
    assert build_sn_truncated(1, 1, 1, include_top=True).vertices == (
        vertex_map(1, 1, ((MarkedRay(Ray((1,), (1,)), 1), Translation((0,), 1)),)),
    )


FAR = 10**5


@pytest.mark.parametrize("k", [2, 3])
def test_far_offset_vertices_match_oracles(k):
    """Vertices translated by 10^5 cost a few cuts, not a grid of that size."""
    rng = random.Random(37 + k)
    n = 3
    near = _random_vertices(rng, k, n, 6)
    far = [_shifted(v, FAR + rng.randint(0, 2)) for v in near]
    outcomes = set()
    for a, b in itertools.product(near + far, far):
        if a is b:
            continue
        expected = images_disjoint_all_pairs(_images(a), _images(b))
        assert simplex_test([a, b]) == expected
        outcomes.add(expected)
    assert outcomes == {False, True}
    # n disjoint far images miss the point (1, ..., 1) of every copy
    g = random_element(k, n, 1, seed=k)
    top = [_shifted(_copy_vertex(g, c), FAR) for c in range(1, n + 1)]
    assert not any(m.contains((1,) * k, 1) for v in top for m in _images(v))
    assert simplex_test(top) is False

    verdicts = set()
    for trial in range(4):
        S = rng.sample(near, 2) + rng.sample(far, 2)
        near_section = [inclusion(k, n, p) for p in range(1, n + 1)]
        for rho in (build_s_section(k, n, S), near_section):
            ok, _ = verify_s_section(k, n, S, rho)
            assert ok == s_section_holds_by_pairs(S, rho)
            verdicts.add(ok)
    assert verdicts == {False, True}


def test_probe_rejects_negative_trials():
    with pytest.raises(ValidationError, match="trials must be >= 0"):
        connectivity_probe(1, 3, 1, 3, trials=-3, seed=0)


def test_probe_builds_neighbour_masks_once(monkeypatch):
    """A trial's adjacency lookup reads two vertices' cell sets; the one
    ``_disjoint_masks`` build is over the pool, for its component."""
    sizes = []
    masks = complexes_module._disjoint_masks

    def counting(cells):
        sizes.append(len(cells))
        return masks(cells)

    monkeypatch.setattr(complexes_module, "_disjoint_masks", counting)
    for seed in (3, 4, 5):
        sizes.clear()
        report = connectivity_probe(1, 3, 1, 3, trials=30, seed=seed)
        assert report["connected_pairs"] == 30
        assert len(sizes) == 1 and sizes[0] > report["bounded_vertices"]


def test_probe_rejects_negative_slack():
    with pytest.raises(ValidationError, match="slack must be >= 0"):
        connectivity_probe(1, 3, 1, -9, trials=3, seed=0)


def test_probe_intermediates_miss_both_endpoints(monkeypatch):
    built = []
    intermediate = complexes_module._intermediate

    def recording(n, domain, u, w):
        copy, offset = intermediate(n, domain, u, w)
        built.append((domain, u, w, copy, offset))
        return copy, offset

    monkeypatch.setattr(complexes_module, "_intermediate", recording)
    for seed in range(50):
        connectivity_probe(1, 3, 1, 3, trials=20, seed=seed)
    assert len(built) > 300
    for domain, u, w, copy, offset in built:
        u, w = (complexes_module._vertex_map(1, 3, 1, leaf) for leaf in (u, w))
        # only a pair whose images meet needs one
        assert not images_disjoint_all_pairs(_images(u), _images(w))
        z = complexes_module._far_vertex(1, 3, copy, offset)
        assert images_disjoint_all_pairs(_images(z), _images(u))
        assert images_disjoint_all_pairs(_images(z), _images(w))


PROBE_TRUNCATIONS = [(1, 3, 0), (1, 3, 1), (1, 3, 2), (1, 4, 1), (2, 3, 0)]


@pytest.mark.parametrize(
    "params", PROBE_TRUNCATIONS, ids=["".join(map(str, p)) for p in PROBE_TRUNCATIONS]
)
def test_probe_matches_comparison_oracle(params):
    """Knowing vertices by index and far vertices by (copy, offset) gives the
    whole report that comparing maps with ``equals`` gave."""
    for slack in range(4):
        for trials in (0, 5, 40):
            for seed in (1, 2, 3):
                args = (*params, slack, trials, seed)
                assert connectivity_probe(*args) == connectivity_probe_by_comparison(*args)


@pytest.mark.parametrize(
    "params",
    BOUNDED_TRUNCATIONS + [(2, 3, 0)],
    ids=["".join(map(str, p)) for p in BOUNDED_TRUNCATIONS + [(2, 3, 0)]],
)
def test_far_vertex_is_enumerated_exactly_within_the_bound(params):
    """The probe's identity rule: N^k translated by (M, ..., M) into a copy is a
    B-bounded vertex if and only if M <= B."""
    k, n, bound = params
    by_copy: dict[int, list] = {}
    for v in enumerate_bounded_vertices(*params, size_limit=None):
        by_copy.setdefault(pi_projection(v), []).append(v)
    for copy in range(1, n + 1):
        for offset in range(bound + 3):
            z = complexes_module._far_vertex(k, n, copy, offset)
            enumerated = any(equals(z, v) for v in by_copy[copy])
            assert enumerated == (offset <= bound), (copy, offset)


def test_probe_builds_one_far_vertex_per_key_and_compares_no_maps(monkeypatch):
    """The probe never calls ``equals`` and builds no far-vertex map.  Its pool gains
    one cell set per distinct (copy, offset) with B < offset <= B + slack, in
    first-seen order and in that copy, and a vertex map is built only for each
    vertex of a failing pair."""
    keys, pools, maps = [], [], []
    intermediate = complexes_module._intermediate
    masks = complexes_module._disjoint_masks
    far_vertex = complexes_module._far_vertex
    vertex_map_of_leaf = complexes_module._vertex_map

    def recording(*args):
        keys.append(intermediate(*args))
        return keys[-1]

    def recording_masks(cells):
        pools.append(list(cells))
        return masks(cells)

    def counting(*args):
        maps.append(args)
        return vertex_map_of_leaf(*args)

    def refuse(*args):
        raise AssertionError("the probe built a far vertex")

    # no code in ``complexes`` can compare maps through ``equals``
    assert not hasattr(complexes_module, "equals")
    far_seen = failures = 0
    for bound, slack in ((0, 3), (1, 1), (1, 3), (2, 1)):
        vertices = enumerate_bounded_vertices(1, 3, bound)
        with monkeypatch.context() as patch:
            patch.setattr(complexes_module, "_intermediate", recording)
            patch.setattr(complexes_module, "_disjoint_masks", recording_masks)
            patch.setattr(complexes_module, "_vertex_map", counting)
            patch.setattr(complexes_module, "_far_vertex", refuse)
            for seed in (3, 4, 5):
                keys.clear()
                pools.clear()
                maps.clear()
                report = connectivity_probe(1, 3, bound, slack, trials=30, seed=seed)
                expected = list(dict.fromkeys(k for k in keys if bound < k[1] <= bound + slack))
                [pool] = pools
                tail = pool[len(vertices):]
                assert [{copy for copy, _ in c} for c in tail] == [{copy} for copy, _ in expected]
                far = [far_vertex(1, 3, *key) for key in expected]
                assert list(masks(pool)) == list(masks(image_cells_by_refit(vertices + far)[1]))
                assert len(maps) == 2 * report["disconnected_pairs"]
                far_seen += len(expected)
                failures += report["disconnected_pairs"]
    assert far_seen > 0 and failures > 0


ENUMERATION_GRIDS = BOUNDED_TRUNCATIONS + [(2, 3, 0), (2, 3, 1)]


@pytest.mark.parametrize(
    "params", ENUMERATION_GRIDS, ids=["".join(map(str, p)) for p in ENUMERATION_GRIDS]
)
def test_enumeration_grid_cuts_are_one_to_twice_the_bound_plus_one(params):
    """The full cell's translates by [-B, B] hit every value 1..2B+1, and a pinned
    coordinate is at most 2B, so one grid fitted again to every option's image ray has
    the template's cuts 1..2B+1 in every coordinate.  The template's option cells, for
    targets 1..n, are that refit's, in its order, and each leaf's cells are the union of
    its options' refit cells."""
    k, n, bound = params
    cuts, refit = option_cells_by_refit(*params)
    _, _, options, template_cuts = complexes_module._vertex_template(k, bound)
    assert cuts == (list(range(1, 2 * bound + 2)),) * k
    assert [list(cut) for cut in template_cuts] == list(cuts)
    assert refit == [
        [(offset, target, frozenset((target, base) for base in bases))
         for target in range(1, n + 1) for offset, bases in cell_options]
        for cell_options in options
    ]
    domain, leaves, cells = complexes_module._bounded_vertices(*params, size_limit=None)
    assert domain == grid_cells(k, bound)
    assert len(leaves) == len(cells)
    image = {(i, offset, target): c for i, opts in enumerate(refit) for offset, target, c in opts}
    for leaf, used in zip(leaves, cells):
        chosen = (image[i, tr.offset, tr.target_copy] for i, tr in enumerate(leaf))
        assert used == frozenset().union(*chosen), leaf


def test_enumeration_checks_nothing_and_shares_translations(monkeypatch):
    """The enumeration, its template included, fits no grid, translates no ray through
    ``Ray.translate`` and runs no ``__post_init__`` of a translation or a marked ray.  Its
    leaves share one translation per (offset, copy), 27 objects on (2,3,1), so
    ``_vertex_map`` compares translations by identity, never through ``__eq__``; the probe's
    intermediates move cells unchecked too."""
    from collections import Counter

    from hforge import houghton, rays

    calls = Counter()

    def counting(name, inner):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return wrapper

    for module in (rays, houghton, complexes_module):
        for name in ("_cell_sets", "_cuts_for"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counting(name, getattr(module, name)))
    for owner, name in (
        (Ray, "translate"), (Translation, "__post_init__"), (MarkedRay, "__post_init__")
    ):
        monkeypatch.setattr(owner, name, counting(f"{owner.__name__}.{name}", getattr(owner, name)))
    complexes_module._vertex_template.cache_clear()
    _, leaves, _ = complexes_module._bounded_vertices(2, 3, 1, None)
    assert len(leaves) == 52056
    assert len({id(tr) for leaf in leaves for tr in leaf}) == 27
    report = connectivity_probe(1, 3, 1, 3, trials=30, seed=3)
    assert report["connected_pairs"] == 30
    assert calls == Counter()
    monkeypatch.setattr(Translation, "__eq__", counting("Translation.__eq__", Translation.__eq__))
    for leaf in leaves:
        complexes_module._vertex_map(2, 3, 1, leaf)
    assert calls == Counter()


FAR_POOLS = [p for p in BOUNDED_TRUNCATIONS if p[1] >= 2]


@pytest.mark.parametrize("params", FAR_POOLS, ids=["".join(map(str, p)) for p in FAR_POOLS])
def test_far_cells_on_the_enumeration_grid_match_the_refit(params):
    """Far vertices as ``_far_cells`` beside the enumeration's cells give the masks of
    one grid fitted again to the vertex maps and the far ``_far_vertex`` maps, for
    every copy and every offset B+1..B+4, so past 2B as well."""
    k, n, bound = params
    cells = complexes_module._bounded_vertices(*params, size_limit=None)[2]
    keys = [(copy, offset) for copy in range(1, n + 1) for offset in range(bound + 1, bound + 5)]
    assert any(offset > 2 * bound for _, offset in keys)
    far_cells = [complexes_module._far_cells(k, bound, *key) for key in keys]
    far = [complexes_module._far_vertex(k, n, *key) for key in keys]
    refit = image_cells_by_refit(enumerate_bounded_vertices(*params, size_limit=None) + far)[1]
    assert list(_disjoint_masks(cells + far_cells)) == list(_disjoint_masks(refit))


MEETING_PAIRS = [(1, 3, 1), (1, 4, 1), (2, 3, 0)]


@pytest.mark.parametrize(
    "params", MEETING_PAIRS, ids=["".join(map(str, p)) for p in MEETING_PAIRS]
)
def test_intermediate_on_leaves_matches_the_maps(params):
    """On every ordered pair whose images meet, the leaves' translated domain cells give
    the (copy, offset) that the vertex maps' canonical image rays give."""
    k, n, bound = params
    domain, leaves, cells = complexes_module._bounded_vertices(*params, size_limit=None)
    vertices = enumerate_bounded_vertices(*params, size_limit=None)
    offsets = set()
    for i, j in itertools.product(range(len(leaves)), repeat=2):
        if not cells[i].isdisjoint(cells[j]):
            got = complexes_module._intermediate(n, domain, leaves[i], leaves[j])
            assert got == intermediate_on_maps(k, n, vertices[i], vertices[j]), (i, j)
            offsets.add(got[1])
    assert len(offsets) > 1 or bound == 0


def test_size_guards_and_a_passing_probe_build_no_vertex_map(monkeypatch):
    """The vertex guard and the graph guard fire before any vertex map is built, and a
    probe with no failing pair builds none; a build that passes builds one per vertex."""
    calls = []
    vertex_map_of_leaf = complexes_module._vertex_map

    def counting(*args):
        calls.append(args)
        return vertex_map_of_leaf(*args)

    def refuse(*args):
        raise AssertionError("the probe built a far vertex")

    monkeypatch.setattr(complexes_module, "_vertex_map", counting)
    monkeypatch.setattr(complexes_module, "_far_vertex", refuse)
    with pytest.raises(SizeLimitError, match="disjointness graph exceeds the size limit 1000"):
        build_sn_truncated(1, 4, 1, size_limit=1000)
    with pytest.raises(SizeLimitError, match="vertex enumeration exceeds the size limit 10"):
        enumerate_bounded_vertices(1, 3, 1, size_limit=10)
    report = connectivity_probe(1, 3, 1, 3, trials=60, seed=9)
    assert (report["connected_pairs"], report["disconnected_pairs"]) == (60, 0)
    assert calls == []
    assert len(build_sn_truncated(1, 3, 1).vertices) == len(calls) == 45


TEMPLATE_TRUNCATIONS = BOUNDED_TRUNCATIONS + [(1, 2, 3), (2, 3, 0)]


@pytest.mark.parametrize(
    "params", TEMPLATE_TRUNCATIONS, ids=["".join(map(str, p)) for p in TEMPLATE_TRUNCATIONS]
)
def test_vertex_maps_match_canonical_grid_oracle(params):
    """The per-(k, B) template gives every leaf the threshold, pieces and JSON that
    ``rays._canonical_grid`` reads off its labelled domain grid, and the map's pieces
    are its table's own tuple."""
    k, n, bound = params
    domain, leaves, _ = complexes_module._bounded_vertices(*params, size_limit=None)
    for leaf in leaves:
        got = complexes_module._vertex_map(k, n, bound, leaf)
        want = vertex_map_by_canonical_grid(k, n, bound, domain, leaf)
        assert got._table == want._table, leaf
        assert got.pieces is got._table[1]
        assert map_to_json(got) == map_to_json(want)


def test_vertex_maps_build_one_template_and_no_canonical_grid(monkeypatch):
    """A build and a probe with failing pairs canonicalise no grid: their maps come from
    one bounded-cache template for their (k, B)."""
    from hforge import houghton, rays

    def refuse(*args):
        raise AssertionError("a vertex map canonicalised its grid")

    monkeypatch.setattr(rays, "_canonical_grid", refuse)
    monkeypatch.setattr(rays, "_full_grid", refuse)
    monkeypatch.setattr(houghton, "_full_grid", refuse)
    template = complexes_module._vertex_template
    template.cache_clear()
    assert len(build_sn_truncated(1, 3, 2).vertices) == 1077
    report = connectivity_probe(1, 3, 2, 1, trials=30, seed=3)
    assert report["disconnected_pairs"] == len(report["failures"]) > 0
    info = template.cache_info()
    assert (info.misses, info.currsize) == (1, 1)
    assert info.maxsize is not None
    for t, level in enumerate(template(1, 2)[1]):
        # the copy-1 cells are the shared grid template's, as every map table's are
        assert all(cell is m for (cell, _), m in zip(level, rays._grid_template(1, t, 1), strict=True))
