"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every tolerance is exact; the stated time budgets are
asserted.
"""
import itertools
import operator
import random
import time
from contextlib import contextmanager

import pytest

from hforge.complexes import (
    SimplicialComplex,
    build_s_section,
    build_sn_truncated,
    connectivity_probe,
    pi_projection,
    reduced_homology,
    simplexwise_injective_check,
    skeleton,
    verify_s_section,
    wcm_check,
)
from hforge.fimodules import (
    constant_module,
    evaluate_injection,
    generation_degree,
    houghton_h1_fimodule,
    permutation_module,
    sum_zero_coords,
)
from hforge.houghton import (
    HoughtonMap,
    Translation,
    compose,
    decompose,
    equals,
    eventual_translation_check,
    extend_to_automorphism,
    fi_map,
    identity_map,
    image_region,
    in_kernel,
    inverse,
    random_element,
    random_injection,
    restrict,
    translation_vector,
    validate,
)
from hforge.rays import (
    MarkedRay,
    Ray,
    RayPartition,
    Region,
    common_refinement,
    partition_validate,
    region_complement,
    region_equal,
)
from hforge.snf import smith_normal_form

from _oracles import (
    boundary_matrices_from_facets,
    bounded_vertex_census,
    graph_on_box_filtered,
    minor_gcd_diagonal,
    RP2_FACETS,
)


@contextmanager
def criterion(cid, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {cid}: {description} ({time.perf_counter() - start:.1f}s)")
        raise
    elapsed = time.perf_counter() - start
    status = "PASS" if elapsed < budget_s else "SLOW"
    print(f"[{status}] {cid}: {description} ({elapsed:.1f}s, budget {budget_s}s)")
    assert elapsed < budget_s, f"{cid} exceeded its {budget_s}s budget"


def graph_on_box(f, hi):
    """Independent pointwise graph of a map on a box, straight off the pieces.

    Free ranges stop at ``hi``, so only a pinned coordinate above ``hi`` can
    leave the box; such a piece has no point in it and is skipped whole.
    """
    graph = {}
    for dom, tr in f.pieces:
        ranges = []
        free = set(dom.ray.dirs)
        for j, b in enumerate(dom.ray.base, start=1):
            ranges.append(range(b, hi + 1) if j in free else range(b, min(b, hi) + 1))
        for p in itertools.product(*ranges):
            key = (p, dom.copy)
            assert key not in graph
            graph[key] = (tuple(map(operator.add, p, tr.offset)), tr.target_copy)
    return graph


def test_graph_on_box_matches_filtering_oracle():
    rng = random.Random(5)
    for case in range(40):
        k = rng.choice((1, 2))
        n = rng.randint(1, 3)
        f = random_element(k, n, rng.randint(0, 3), seed=60_000 + case)
        for hi in (1, 2, 3, 7):
            assert graph_on_box(f, hi) == graph_on_box_filtered(f, hi)


def test_c01_group_axioms():
    with criterion("C01", "group axioms on 1000 seeded random triples", 60):
        rng = random.Random(2024)
        for trial in range(1000):
            k = rng.choice((1, 2))
            n = rng.randint(1, 4)
            bound = rng.randint(0, 3)
            a = random_element(k, n, bound, seed=3 * trial)
            b = random_element(k, n, bound, seed=3 * trial + 1)
            c = random_element(k, n, bound, seed=3 * trial + 2)
            assert equals(compose(compose(a, b), c), compose(a, compose(b, c)))
            ident = identity_map(k, n)
            assert equals(compose(a, ident), a)
            assert equals(compose(ident, a), a)
            inv = inverse(a)
            assert equals(compose(a, inv), ident)
            assert equals(compose(inv, a), ident)


def test_c02_pointwise_oracles():
    with criterion(
        "C02", "compose/inverse/extension match brute force on [1..50]^k boxes", 120
    ):
        rng = random.Random(7)
        for case in range(500):
            k = rng.choice((1, 2))
            n = rng.randint(1, 3)
            bound = rng.randint(0, 2)
            f = random_element(k, n, bound, seed=10_000 + case)
            g = random_element(k, n, bound, seed=20_000 + case)
            h = compose(g, f)
            hi = 50
            f_graph = graph_on_box(f, hi)
            g_graph = graph_on_box(g, hi + 3)
            h_graph = graph_on_box(h, hi)
            for key, mid in f_graph.items():
                assert h_graph[key] == g_graph[mid]
        for case in range(500):
            k = rng.choice((1, 2))
            n = rng.randint(1, 3)
            g = random_element(k, n, rng.randint(0, 2), seed=30_000 + case)
            gi = inverse(g)
            gi_graph = graph_on_box(gi, 53)
            for key, value in graph_on_box(g, 50).items():
                assert gi_graph[value] == key
        for case in range(500):
            k = rng.choice((1, 2))
            n = rng.randint(2, 3)
            m = rng.randint(1, n - 1)
            f = random_injection(k, m, n, rng.randint(0, 2), seed=40_000 + case)
            ext = extend_to_automorphism(f)
            ext_graph = graph_on_box(ext, 50)
            for key, value in graph_on_box(f, 50).items():
                assert ext_graph[key] == value


def test_c03_eventual_translation_tuples():
    with criterion(
        "C03", "eventual-translation certificates and sum-zero tuples, k = 1", 30
    ):
        rng = random.Random(11)
        for case in range(500):
            n = rng.randint(1, 4)
            g = random_element(1, n, rng.randint(0, 3), seed=50_000 + case)
            ok, thresholds = eventual_translation_check(g)
            assert ok
            assert all(t >= 0 for t in thresholds.values())
            kernel_part, _ = decompose(g)
            assert in_kernel(kernel_part)
            assert sum(translation_vector(kernel_part)) == 0
            if in_kernel(g):
                assert sum(translation_vector(g)) == 0


def _pad_with_tail_element(k, m, n, w):
    """Extend an element of the (n-m)-copy group to act on copies m+1..n."""
    pieces = [
        (MarkedRay(dom.ray, dom.copy + m), Translation(tr.offset, tr.target_copy + m))
        for dom, tr in w.pieces
    ]
    full = Ray((1,) * k, tuple(range(1, k + 1)))
    for c in range(1, m + 1):
        pieces.append((MarkedRay(full, c), Translation((0,) * k, c)))
    return HoughtonMap(k, n, n, tuple(pieces))


def test_c04_extension_lemma():
    with criterion(
        "C04", "injections extend to automorphisms with well-defined cosets", 120
    ):
        rng = random.Random(3)
        for case in range(200):
            k = rng.choice((1, 2))
            n = rng.randint(2, 3)
            m = rng.randint(1, n - 1)
            f = random_injection(k, m, n, rng.randint(0, 2), seed=60_000 + case)
            ext = extend_to_automorphism(f)
            diag = validate(ext)
            assert diag.valid and diag.bijective
            assert equals(restrict(ext, m), f)
            w = random_element(k, n - m, rng.randint(0, 2), seed=70_000 + case)
            ext2 = compose(ext, _pad_with_tail_element(k, m, n, w))
            assert validate(ext2).bijective
            assert equals(restrict(ext2, m), f)
            assert equals(restrict(ext, m), restrict(ext2, m))


def test_c05_smith_normal_form():
    with criterion(
        "C05", "Smith normal forms verify and match the minor-gcd oracle", 30
    ):
        rng = random.Random(5)
        for _ in range(200):
            rows = rng.randint(1, 6)
            cols = rng.randint(1, 6)
            mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            res = smith_normal_form(mat)
            assert res.verify()
            assert list(res.diag) == minor_gcd_diagonal(mat, cols)


def _simplex_complex(n):
    return SimplicialComplex.build(tuple(range(n)), [tuple(range(n))])


def _boundary_complex(n):
    face = tuple(range(n))
    return SimplicialComplex.build(
        tuple(range(n)), [face[:i] + face[i + 1 :] for i in range(n)]
    )


def test_c06_homology_fixtures():
    with criterion("C06", "homology fixtures reproduce exactly", 30):
        pt = _simplex_complex(1)
        hom = reduced_homology(pt)
        assert all(hom.is_trivial(d) for d in range(4))
        for n in range(1, 6):
            hom = reduced_homology(_boundary_complex(n + 1))
            for d in range(n - 1):
                assert hom.is_trivial(d)
            assert hom.betti(n - 1) == 1 and hom.torsion(n - 1) == ()
        facets = [tuple(v - 1 for v in f) for f in RP2_FACETS]
        rp2 = SimplicialComplex.build(tuple(range(6)), facets)
        hom = reduced_homology(rp2)
        assert hom.betti(1) == 0 and hom.torsion(1) == (2,)
        assert hom.betti(2) == 0 and hom.torsion(2) == ()
        d1, d2 = boundary_matrices_from_facets(RP2_FACETS)
        assert [x for x in minor_gcd_diagonal(d2, 10) if x > 1] == [2]
        assert minor_gcd_diagonal(d1, 15).count(1) == 5


def test_c07_wcm_certification():
    with criterion(
        "C07", "codimension-one skeleta of simplices are weakly Cohen-Macaulay", 60
    ):
        for n in (4, 5, 6):
            sk = skeleton(_simplex_complex(n), n - 2)
            ok, why = wcm_check(sk, n - 2)
            assert ok, why


def test_c08_fin_retraction():
    with criterion(
        "C08", "sections exist and verify for 100 seeded finite vertex sets", 300
    ):
        rng = random.Random(88)
        for trial in range(100):
            k = rng.choice((1, 2))
            n = rng.randint(2, 4)
            size = rng.randint(0, 6)
            members = [
                restrict(
                    random_element(k, n, rng.randint(0, 2), seed=trial * 97 + i), 1
                )
                for i in range(size)
            ]
            section = build_s_section(k, n, members)
            ok, witness = verify_s_section(k, n, members, section)
            assert ok, witness


def test_c09_truncated_sn_census():
    with criterion(
        "C09", "bounded vertex censuses and simplexwise injectivity of the projection", 30
    ):
        k2 = build_sn_truncated(1, 2, 1)
        assert len(k2.vertices) == 18
        k3 = build_sn_truncated(1, 3, 1)
        target3 = SimplicialComplex.build(
            (1, 2, 3), [(0, 1), (0, 2), (1, 2)]
        )
        mapping3 = [pi_projection(v) - 1 for v in k3.vertices]
        assert simplexwise_injective_check(k3, target3, mapping3)
        k1 = build_sn_truncated(1, 1, 1)
        # A 1-bounded vertex has canonical threshold <= 1, so it translates
        # each cell of the threshold-1 grid of N, {1} and [2, oo), by an
        # offset in [-1, 1].  Offset -1 on [2, oo) leaves no room for 1,
        # offset 0 forces 1 -> 1, offset +1 allows 1 -> 1 or 1 -> 2: three
        # maps, the identity, the shift, and the map fixing 1 while shifting
        # [2, oo).
        whole = Ray((1,), (1,))
        identity = HoughtonMap(1, 1, 1, ((MarkedRay(whole, 1), Translation((0,), 1)),))
        shift = HoughtonMap(1, 1, 1, ((MarkedRay(whole, 1), Translation((1,), 1)),))
        fix_one = HoughtonMap(
            1,
            1,
            1,
            (
                (MarkedRay(Ray((1,), ()), 1), Translation((0,), 1)),
                (MarkedRay(Ray((2,), (1,)), 1), Translation((1,), 1)),
            ),
        )
        assert len(k1.vertices) == bounded_vertex_census(1) == 3
        for expected in (identity, shift, fix_one):
            assert sum(equals(v, expected) for v in k1.vertices) == 1


def test_c10_connectivity_probe():
    with criterion(
        "C10", "every sampled vertex pair connects inside the enlarged truncation", 120
    ):
        report = connectivity_probe(1, 3, 1, 3, trials=100, seed=42)
        assert report["connected_pairs"] == 100
        assert report["disconnected_pairs"] == 0
        assert report["component_betti0"] == 0


def test_c11_fimodule_suite():
    with criterion(
        "C11", "generation degrees and the translation-vector naturality square", 60
    ):
        assert generation_degree(constant_module(6)) == 0
        assert generation_degree(permutation_module(6)) == 1
        v6 = houghton_h1_fimodule(6)
        assert generation_degree(v6) == 2
        rng = random.Random(19)
        for case in range(200):
            m = rng.randint(1, 4)
            n = rng.randint(m, 6)
            g, _ = decompose(random_element(1, m, 2, seed=80_000 + case))
            images = tuple(rng.sample(range(1, n + 1), m))
            lhs = sum_zero_coords(translation_vector(fi_map(images, n, g)))
            mat = evaluate_injection(v6, images, n)
            tg = sum_zero_coords(translation_vector(g))
            rhs = tuple(sum(a * b for a, b in zip(row, tg)) for row in mat)
            assert lhs == rhs


def test_c12_complemented_category_axioms():
    with criterion(
        "C12", "complements exist, partition, and invert; refinements validate", 60
    ):
        rng = random.Random(23)
        for case in range(100):
            k = rng.choice((1, 2))
            n = rng.randint(2, 3)
            m = rng.randint(1, n - 1)
            f = random_injection(k, m, n, rng.randint(0, 2), seed=90_000 + case)
            image = image_region(f)
            comp = region_complement(image)
            assert partition_validate(RayPartition(comp, comp.rays)).ok
            assert region_equal(region_complement(comp), image)
            assert all(
                not comp.contains(mr.ray.base, mr.copy) for mr in image.rays
            )
        for case in range(100):
            k = rng.choice((1, 2))
            n = rng.randint(1, 3)
            e1 = random_element(k, n, rng.randint(0, 2), seed=95_000 + case)
            e2 = random_element(k, n, rng.randint(0, 2), seed=96_000 + case)
            p1 = RayPartition(Region.full(k, n), tuple(dom for dom, _ in e1.pieces))
            p2 = RayPartition(Region.full(k, n), tuple(dom for dom, _ in e2.pieces))
            refined = common_refinement(p1, p2)
            assert partition_validate(refined).ok
