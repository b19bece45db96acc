import itertools
import random
from bisect import bisect_right

import pytest
from hypothesis import given, settings, strategies as st

from hforge.errors import ValidationError
from hforge.rays import (
    MarkedRay,
    _canonical_cells,
    _cell_bases,
    _cell_sets,
    _complement_cells,
    _cuts_for,
    _partition_fault,
    Ray,
    RayPartition,
    Region,
    canonicalize_region,
    cell_of_point,
    common_refinement,
    grid_cells,
    grid_partition,
    marked_intersect,
    partition_validate,
    ray_from_json,
    ray_intersect,
    ray_split,
    ray_to_json,
    region_complement,
    region_equal,
    region_from_json,
    region_to_json,
)

from _oracles import (
    cells_within_ray,
    canonical_cells_group_by_parent,
    grid_cells_by_mask,
    partition_validate_pairwise,
    ray_points_in_box,
    uncovered_cells_by_containment,
)


def R(base, *dirs):
    return Ray(tuple(base), tuple(dirs))


def test_ray_contains_examples():
    assert R((1, 1), 1, 2).contains((5, 7))
    assert not R((3, 2), 1).contains((3, 3))
    # brute-force membership over the box [1..10]^2
    pts = ray_points_in_box((3, 2), (1,), 2, 10)
    assert (9, 2) in pts
    assert R((3, 2), 1).contains((9, 2))
    for p in itertools.product(range(1, 11), repeat=2):
        assert R((3, 2), 1).contains(p) == (p in pts)


def test_ray_contains_dimension_mismatch():
    with pytest.raises(ValidationError):
        R((1, 1), 1).contains((1,))


def test_ray_validation():
    with pytest.raises(ValidationError):
        Ray((0, 1), ())
    with pytest.raises(ValidationError):
        Ray((1, 1), (2, 1))
    with pytest.raises(ValidationError):
        Ray((1,), (2,))


def test_ray_intersect_examples():
    got = ray_intersect(R((1, 1), 1, 2), R((3, 2), 1))
    assert got == R((3, 2), 1)
    assert ray_intersect(R((1, 1)), R((2, 2), 1)) is None
    r = R((2, 3), 2)
    assert ray_intersect(r, r) == r


@given(
    st.integers(1, 2),
    st.data(),
)
@settings(max_examples=200, deadline=None)
def test_ray_intersect_matches_pointwise(k, data):
    def rand_ray():
        base = tuple(data.draw(st.integers(1, 4)) for _ in range(k))
        dirs = tuple(
            j for j in range(1, k + 1) if data.draw(st.booleans())
        )
        return Ray(base, dirs)

    r1, r2 = rand_ray(), rand_ray()
    got = ray_intersect(r1, r2)
    pts1 = ray_points_in_box(r1.base, r1.dirs, k, 8)
    pts2 = ray_points_in_box(r2.base, r2.dirs, k, 8)
    expected = pts1 & pts2
    if got is None:
        assert expected == set()
    else:
        assert ray_points_in_box(got.base, got.dirs, k, 8) == expected


def test_ray_intersect_box_oracle_k3():
    rng = random.Random(7)
    for trial in range(60):
        k = 3
        hi = 12 if trial < 10 else 6
        r1 = Ray(tuple(rng.randint(1, 3) for _ in range(k)),
                 tuple(j for j in range(1, k + 1) if rng.random() < 0.5))
        r2 = Ray(tuple(rng.randint(1, 3) for _ in range(k)),
                 tuple(j for j in range(1, k + 1) if rng.random() < 0.5))
        got = ray_intersect(r1, r2)
        expected = ray_points_in_box(r1.base, r1.dirs, k, hi) & ray_points_in_box(
            r2.base, r2.dirs, k, hi
        )
        if got is None:
            assert expected == set()
        else:
            assert ray_points_in_box(got.base, got.dirs, k, hi) == expected


@given(st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_cell_of_point_membership(k, data):
    t = data.draw(st.integers(0, 4))
    p = tuple(data.draw(st.integers(1, 9)) for _ in range(k))
    cell = cell_of_point(p, t)
    assert cell.contains(p)
    assert cell in grid_cells(k, t)


@given(st.integers(1, 3), st.data())
@settings(max_examples=150, deadline=None)
def test_ray_split_disjoint_union(k, data):
    base = tuple(data.draw(st.integers(1, 5)) for _ in range(k))
    dirs = tuple(j for j in range(1, k + 1) if data.draw(st.booleans()))
    if not dirs:
        return
    r = Ray(base, dirs)
    j = data.draw(st.sampled_from(dirs))
    child, rest = ray_split(r, j)
    assert ray_intersect(child, rest) is None
    whole = ray_points_in_box(base, dirs, k, 8)
    assert ray_points_in_box(child.base, child.dirs, k, 8) | ray_points_in_box(
        rest.base, rest.dirs, k, 8
    ) == whole


def test_ray_split_examples():
    child, rest = ray_split(R((1,), 1), 1)
    assert child == R((1,))
    assert rest == R((2,), 1)

    child, rest = ray_split(R((1, 1), 1, 2), 2)
    assert child == R((1, 1), 1)
    assert rest == R((1, 2), 1, 2)
    # disjoint union equals the input, brute force on [1..6]^2
    whole = ray_points_in_box((1, 1), (1, 2), 2, 6)
    a = ray_points_in_box(child.base, child.dirs, 2, 6)
    b = ray_points_in_box(rest.base, rest.dirs, 2, 6)
    assert a | b == whole
    assert a & b == set()

    with pytest.raises(ValidationError):
        ray_split(R((1, 1), 1), 2)


def test_ray_split_partitions_parent():
    r = R((2, 1, 3), 1, 3)
    child, rest = ray_split(r, 3)
    region = Region(3, 1, (MarkedRay(r, 1),))
    part = RayPartition(region, (MarkedRay(child, 1), MarkedRay(rest, 1)))
    assert partition_validate(part).ok


def test_grid_partition_examples():
    p = grid_partition(1, 2, 1)
    got = {(m.ray.base, m.ray.dirs) for m in p.cells}
    assert got == {((1,), ()), ((2,), ()), ((3,), (1,))}

    p = grid_partition(2, 1, 1)
    got = {(m.ray.base, m.ray.dirs) for m in p.cells}
    assert got == {
        ((1, 1), ()),
        ((1, 2), (2,)),
        ((2, 1), (1,)),
        ((2, 2), (1, 2)),
    }
    # exhaustive disjoint cover on [1..6]^2
    seen = {}
    for m in p.cells:
        for pt in ray_points_in_box(m.ray.base, m.ray.dirs, 2, 6):
            assert pt not in seen
            seen[pt] = m
    assert len(seen) == 36

    p = grid_partition(1, 0, 3)
    assert len(p.cells) == 3
    assert all(m.ray == R((1,), 1) for m in p.cells)


@pytest.mark.parametrize("k,t,n", [(k, t, n) for k in (1, 2, 3) for t in (0, 1, 2, 3) for n in (1, 2, 3)])
def test_grid_partition_validates(k, t, n):
    assert partition_validate(grid_partition(k, t, n)).ok
    assert len(grid_partition(k, t, n).cells) == n * (t + 1) ** k


@pytest.mark.parametrize("k,t", [(k, t) for k in (1, 2, 3) for t in (0, 1, 2, 3)])
def test_grid_cells_match_mask_oracle(k, t):
    assert grid_cells(k, t) == grid_cells_by_mask(k, t)


def test_containment_lemma_exhaustive():
    # a ray fitting the threshold contains every grid cell it meets
    for k in (1, 2):
        for t in (1, 2, 3):
            cells = grid_cells(k, t)
            for base in itertools.product(range(1, t + 1), repeat=k):
                for rdirs in itertools.chain.from_iterable(
                    itertools.combinations(range(1, k + 1), r) for r in range(k + 1)
                ):
                    ray = Ray(base, tuple(rdirs))
                    rpts = ray_points_in_box(base, rdirs, k, 2 * t + 3)
                    for cell in cells:
                        cpts = ray_points_in_box(cell.base, cell.dirs, k, 2 * t + 3)
                        if rpts & cpts:
                            assert cpts <= rpts


def test_containment_lemma_symbolic_k3():
    # same statement as above at k = 3, decided through ray_intersect, whose
    # own pointwise correctness is established separately
    k = 3
    for t in (1, 2, 3):
        cells = grid_cells(k, t)
        for base in itertools.product(range(1, t + 1), repeat=k):
            for r in range(k + 1):
                for rdirs in itertools.combinations(range(1, k + 1), r):
                    ray = Ray(base, rdirs)
                    for cell in cells:
                        meet = ray_intersect(ray, cell)
                        if meet is not None:
                            assert meet == cell


def test_partition_validate_gap_and_overlap():
    region = Region.full(1, 1)
    gap = RayPartition(region, (MarkedRay(R((1,)), 1), MarkedRay(R((3,), 1), 1)))
    diag = partition_validate(gap)
    assert not diag.ok
    assert "uncovered" in diag.reason

    with pytest.raises(ValidationError):
        # overlapping cells are rejected by the region/partition invariants
        Region(1, 1, (MarkedRay(R((1,), 1), 1), MarkedRay(R((2,), 1), 1)))
    overlap = RayPartition(region, (MarkedRay(R((1,), 1), 1), MarkedRay(R((2,), 1), 1)))
    diag = partition_validate(overlap)
    assert not diag.ok
    assert "overlap" in diag.reason


def test_common_refinement_examples():
    whole = RayPartition(Region.full(1, 1), (MarkedRay(R((1,), 1), 1),))
    two = RayPartition(
        Region.full(1, 1), (MarkedRay(R((1,)), 1), MarkedRay(R((2,), 1), 1))
    )
    assert common_refinement(whole, two).cells == two.cells

    g1, g2 = grid_partition(1, 1, 1), grid_partition(1, 2, 1)
    assert set(common_refinement(g1, g2).cells) == set(g2.cells)

    p = grid_partition(2, 1, 2)
    assert set(common_refinement(p, p).cells) == set(p.cells)


def test_common_refinement_refines_and_validates():
    rng = random.Random(11)
    for _ in range(20):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2))
        p1 = _random_split_partition(rng, k, n)
        p2 = _random_split_partition(rng, k, n)
        ref = common_refinement(p1, p2)
        assert partition_validate(ref).ok
        for cell in ref.cells:
            assert any(
                marked_intersect_eq(cell, big) for big in p1.cells
            ) and any(marked_intersect_eq(cell, big) for big in p2.cells)


def marked_intersect_eq(small, big):
    from hforge.rays import marked_intersect

    got = marked_intersect(small, big)
    return got == small


def _random_split_partition(rng, k, n, splits=4):
    cells = list(grid_partition(k, 0, n).cells)
    for _ in range(splits):
        i = rng.randrange(len(cells))
        m = cells[i]
        if not m.ray.dirs:
            continue
        j = rng.choice(m.ray.dirs)
        child, rest = ray_split(m.ray, j)
        cells[i : i + 1] = [MarkedRay(child, m.copy), MarkedRay(rest, m.copy)]
    return RayPartition(Region.full(k, n), tuple(cells))


def test_region_complement_examples():
    tail = Region(1, 1, (MarkedRay(R((3,), 1), 1),))
    comp = region_complement(tail)
    assert {(m.ray.base, m.ray.dirs, m.copy) for m in comp.rays} == {
        ((1,), (), 1),
        ((2,), (), 1),
    }

    image = Region(1, 2, (MarkedRay(R((2,), 1), 1),))
    comp = region_complement(image)
    # {(1,1)} plus all of copy 2; checked pointwise on [1..20]
    for x in range(1, 21):
        assert comp.contains((x,), 2)
        assert comp.contains((x,), 1) == (x == 1)

    assert region_complement(Region.full(2, 2)).is_empty


def test_region_complement_involution():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2))
        part = _random_split_partition(rng, k, n)
        sub = Region(k, n, tuple(m for m in part.cells if rng.random() < 0.5))
        assert region_equal(region_complement(region_complement(sub)), sub)


def test_regions_keep_their_keys_driven_reader(monkeypatch):
    """Regions are read cell by cell off their own keys, never off the shared map grid
    template, whose t*-grid can be far larger than their output: the point (120, 120, 120)
    of N^3 is one cell on the 120-grid, which has 121^3 cells."""
    import hforge.rays as rays
    from hforge.houghton import HoughtonMap, Translation, image_complement

    def refuse(*args):
        raise AssertionError("a region was read off the map grid template")

    monkeypatch.setattr(rays, "_grid_template", refuse)
    monkeypatch.setattr(rays, "_full_grid", refuse)
    point = MarkedRay(Ray((120, 120, 120), ()), 1)
    canon = canonicalize_region(Region(3, 1, (point,)))
    assert canon.rays == (point,)
    assert region_equal(Region(3, 1, (point,)), canon)
    full = MarkedRay(Ray((1, 1, 1), (1, 2, 3)), 1)
    into_copy_1 = HoughtonMap(3, 1, 2, ((full, Translation((0, 0, 0), 1)),))
    assert image_complement(into_copy_1).rays == (MarkedRay(full.ray, 2),)


def test_canonicalize_region_examples():
    two_chunks = Region(1, 1, (MarkedRay(R((1,)), 1), MarkedRay(R((2,), 1), 1)))
    canon = canonicalize_region(two_chunks)
    assert canon.rays == (MarkedRay(R((1,), 1), 1),)

    # point on copy 1 plus a tail on copy 2, presented with redundant splits
    messy = Region(
        1,
        2,
        (
            MarkedRay(R((1,)), 1),
            MarkedRay(R((2,)), 2),
            MarkedRay(R((3,)), 2),
            MarkedRay(R((4,)), 2),
            MarkedRay(R((5,), 1), 2),
        ),
    )
    canon = canonicalize_region(messy)
    assert canon.rays == (
        MarkedRay(R((1,)), 1),
        MarkedRay(R((2,), 1), 2),
    )
    assert canon.threshold == 1


def test_canonicalize_region_representation_independent():
    rng = random.Random(42)
    for _ in range(500):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2))
        part = _random_split_partition(rng, k, n, splits=3)
        chosen = tuple(m for m in part.cells if rng.random() < 0.6)
        reg = Region(k, n, chosen)
        resplit = list(chosen)
        for _ in range(3):
            if not resplit:
                break
            i = rng.randrange(len(resplit))
            m = resplit[i]
            if not m.ray.dirs:
                continue
            j = rng.choice(m.ray.dirs)
            child, rest = ray_split(m.ray, j)
            resplit[i : i + 1] = [MarkedRay(child, m.copy), MarkedRay(rest, m.copy)]
        reg2 = Region(k, n, tuple(resplit))
        assert canonicalize_region(reg) == canonicalize_region(reg2)
        assert region_equal(reg, reg2)


def test_cell_of_point():
    assert cell_of_point((1, 5), 2) == R((1, 3), 2)
    assert cell_of_point((3,), 2) == R((3,), 1)
    assert cell_of_point((2,), 2) == R((2,))


def test_json_round_trip():
    r = R((2, 1), 2)
    assert ray_from_json(ray_to_json(r)) == r
    reg = Region(2, 2, (MarkedRay(r, 1), MarkedRay(R((1, 1)), 2)))
    back = region_from_json(region_to_json(reg))
    assert region_equal(reg, back)
    # parser accepts unsorted dirs
    assert ray_from_json({"base": [1, 1], "dirs": [2, 1]}) == R((1, 1), 1, 2)
    with pytest.raises(ValidationError):
        ray_from_json({"dirs": []})


def _refined_region(rng, k, n):
    """A random union of coarse grid cells, each written as its finer cells.

    Some coarse cells are written one level finer than the rest, and now
    and then one fine cell is left out, so coarsening stops at every level.
    """
    coarse = rng.randint(0, 2)
    fine = coarse + rng.randint(0, 2)
    cells = []
    for copy in range(1, n + 1):
        for cell in grid_cells(k, coarse):
            if rng.random() < 0.6:
                t = fine + rng.randint(0, 1)
                cells += [MarkedRay(sub, copy) for sub in cells_within_ray(cell, t)]
    if cells and rng.random() < 0.3:
        cells.pop(rng.randrange(len(cells)))
    return Region(k, n, tuple(cells))


def test_canonical_cells_match_group_by_parent_oracle():
    from hforge.houghton import image_region, random_element, random_injection

    rng = random.Random(17)
    regions = [_refined_region(rng, rng.choice((1, 2, 3)), rng.choice((1, 2))) for _ in range(150)]
    for seed in range(30):
        k, n = 1 + seed % 3, 2 + seed % 2
        f = random_injection(k, n - 1, n, seed % 3, seed)
        regions += [image_region(f), region_complement(image_region(f))]
        regions.append(image_region(random_element(k, n, seed % 3, seed)))
    for reg in regions:
        t, cells = canonical_cells_group_by_parent(reg)
        assert _canonical_cells(reg.rays) == (t, cells)
        assert canonicalize_region(reg) == Region(reg.k, reg.n, cells)


def _random_ray(rng, k, hi):
    base = tuple(rng.randint(1, hi) for _ in range(k))
    return Ray(base, tuple(j for j in range(1, k + 1) if rng.random() < 0.5))


def test_cell_bases_on_fitted_cuts_match_points():
    """On the cuts fitted to some rays, a point lies in a ray exactly when its cell does."""
    rng = random.Random(5)
    for _ in range(100):
        k = rng.choice((1, 2, 3))
        rays = [_random_ray(rng, k, 5) for _ in range(rng.randint(1, 4))]
        cuts = _cuts_for(k, rays)
        cells = [set(_cell_bases(ray, cuts)) for ray in rays]
        for point in itertools.product(range(1, 8), repeat=k):
            cell = tuple(c[bisect_right(c, x) - 1] for c, x in zip(cuts, point))
            for ray, held in zip(rays, cells):
                assert ray.contains(point) == (cell in held), (ray, point, cuts)


def test_cells_within_ray_is_the_threshold_grid_of_cell_bases():
    rng = random.Random(6)
    for _ in range(100):
        k = rng.choice((1, 2, 3))
        ray = _random_ray(rng, k, 4)
        t = ray.threshold + rng.randint(0, 2)
        expected = [cell for cell in grid_cells(k, t) if ray.contains(cell.base)]
        assert sorted(cells_within_ray(ray, t), key=Ray.sort_key) == expected


def test_uncovered_cells_match_containment_oracle():
    from hforge.houghton import image_region, random_injection

    rng = random.Random(23)
    cases = []
    for _ in range(150):
        k, n = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        rays = [
            MarkedRay(_random_ray(rng, k, 4), rng.randint(1, n))
            for _ in range(rng.randint(0, 5))
        ]
        cases.append((k, n, rays))
    for _ in range(60):
        k, n = rng.choice((1, 2, 3)), rng.choice((1, 2))
        cases.append((k, n, list(_refined_region(rng, k, n).rays)))
    for seed in range(30):
        k, n = 1 + seed % 3, 2 + seed % 2
        f = random_injection(k, n - 1, n, seed % 3, seed)
        cases.append((k, n, list(image_region(f).rays)))
    found = 0
    for k, n, rays in cases:
        uncovered = tuple(uncovered_cells_by_containment(k, n, rays))
        _, expected = canonical_cells_group_by_parent(Region(k, n, uncovered))
        try:
            got = region_complement(Region(k, n, tuple(rays))).rays
        except ValidationError:  # overlapping rays: their union's complement
            got = _complement_cells(k, n, iter(rays))
        assert got == expected, rays
        found += bool(uncovered)
    assert 0 < found < len(cases)


def test_partition_validate_matches_containment_oracle():
    """Same verdict and same first reason as the pairwise and containment scans."""
    rng = random.Random(41)
    reasons = set()
    for trial in range(160):
        k, n = rng.choice((1, 2, 3)), rng.choice((1, 2))
        cells = list(_random_split_partition(rng, k, n, splits=rng.randint(0, 8)).cells)
        region = Region.full(k, n)
        if trial % 4 == 1:  # a gap
            cells.pop(rng.randrange(len(cells)))
        elif trial % 4 == 2:  # one cell leaves a smaller region
            rng.shuffle(cells)
            region = Region(k, n, tuple(cells[1:]))
        elif trial % 4 == 3:  # most likely an overlap
            cells.append(MarkedRay(_random_ray(rng, k, 3), rng.randint(1, n)))
        part = RayPartition(region, tuple(cells))
        diag = partition_validate(part)
        assert (diag.ok, diag.reason) == partition_validate_pairwise(part)
        reasons.add(diag.reason.split()[0] if diag.reason else None)
    assert reasons == {None, "uncovered", "cell", "cells"}


def test_partition_validate_names_a_far_gap():
    """The rays of ``fixtures/far_gap.json``: their gap is named on the
    threshold grid without that grid, of 3000^3 cells, being walked."""
    plane = MarkedRay(R((1, 1, 1), 1, 2), 1)
    orthant = MarkedRay(R((1, 1, 3000), 1, 2, 3), 1)
    diag = partition_validate(RayPartition(Region.full(3, 1), (plane, orthant)))
    assert diag.reason == "uncovered cell Ray(base=(1, 1, 2), dirs=()) on copy 1"


# Pairs (0, 3) and (1, 2) meet and no pair before (0, 3) does: the first pair
# in ``combinations`` order is (0, 3), though (1, 2) has the smaller j.
FIRST_PAIR_RAYS = (
    MarkedRay(R((1,)), 1),
    MarkedRay(R((2,)), 1),
    MarkedRay(R((2,), 1), 1),
    MarkedRay(R((1,)), 1),
)


def test_overlap_names_the_first_pair_in_combinations_order():
    from hforge.houghton import HoughtonMap, Translation, validate

    a, _, _, b = FIRST_PAIR_RAYS
    with pytest.raises(ValidationError) as err:
        Region(1, 1, FIRST_PAIR_RAYS)
    assert str(err.value) == f"region rays overlap: {a} and {b}"
    diag = partition_validate(RayPartition(Region.full(1, 1), FIRST_PAIR_RAYS))
    assert diag.reason == f"cells overlap: {a} and {b}"
    # domain pieces {1}, {2}, [4, oo) and {3}, sent in this order onto the four rays
    domain = (R((1,)), R((2,)), R((4,), 1), R((3,)))
    pieces = tuple(
        (MarkedRay(src, 1), Translation((dst.ray.base[0] - src.base[0],), 1))
        for src, dst in zip(domain, FIRST_PAIR_RAYS)
    )
    f = HoughtonMap(1, 1, 1, pieces)
    assert [f.image_ray(p) for p in pieces] == list(FIRST_PAIR_RAYS)
    assert validate(f).problems == (f"image rays overlap: {a} and {b}",)


def test_region_overlap_message_matches_pairwise_scan():
    rng = random.Random(61)
    outcomes = set()
    for _ in range(300):
        k, n = rng.choice((1, 2, 3)), rng.choice((1, 2))
        rays = tuple(
            MarkedRay(_random_ray(rng, k, 4), rng.randint(1, n))
            for _ in range(rng.randint(0, 6))
        )
        pair = next(
            ((a, b) for a, b in itertools.combinations(rays, 2) if marked_intersect(a, b)),
            None,
        )
        try:
            Region(k, n, rays)
            got = None
        except ValidationError as exc:
            got = str(exc)
        assert got == (None if pair is None else f"region rays overlap: {pair[0]} and {pair[1]}")
        outcomes.add(pair is None)
    assert outcomes == {False, True}


def test_region_decides_disjointness_on_one_cell_set(monkeypatch):
    """Disjoint rays are accepted without the per-ray cell sets that name an overlap,
    and a region with fewer than two rays fits no cuts, whatever its k."""
    import time

    import hforge.rays

    rng = random.Random(71)
    regions = [_refined_region(rng, k, n) for k in (1, 2, 3) for n in (1, 2)]

    def unused(*args):
        raise AssertionError("an overlap was named on disjoint rays")

    monkeypatch.setattr(hforge.rays, "_cell_sets", unused)
    monkeypatch.setattr(hforge.rays, "_cuts_for", unused)
    start = time.perf_counter()
    assert region_from_json({"k": 10**9, "n": 1, "rays": []}).is_empty
    assert time.perf_counter() - start < 1.0
    one = regions[2].rays[:1]
    assert Region(2, 1, one).rays == one
    monkeypatch.undo()
    monkeypatch.setattr(hforge.rays, "_cell_sets", unused)
    for region in regions:
        assert Region(region.k, region.n, region.rays) == region


def test_first_gap_is_the_first_uncovered_threshold_cell():
    """On disjoint rays, ``_partition_fault`` over the full N^k x [n] names the
    first threshold cell that no ray contains: copy by copy, least base first."""
    from hforge.houghton import image_region, random_injection

    rng = random.Random(67)
    cases = []
    for _ in range(80):
        k, n = rng.choice((1, 2, 3)), rng.choice((1, 2, 3))
        cases.append((k, n, list(_refined_region(rng, k, n).rays)))
        cases.append((k, n, list(_random_split_partition(rng, k, n, splits=4).cells)))
    for seed in range(30):
        k, n = 1 + seed % 3, 2 + seed % 2
        cases.append((k, n, list(image_region(random_injection(k, n - 1, n, seed % 3, seed)).rays)))
    # copy 1 misses the point 3, copy 2 the point 1
    gaps = (MarkedRay(R((1,)), 1), MarkedRay(R((2,)), 1), MarkedRay(R((4,), 1), 1))
    cases.append((1, 2, [*gaps, MarkedRay(R((2,), 1), 2)]))
    copies = set()
    for k, n, rays in cases:
        gap = next(uncovered_cells_by_containment(k, n, rays), None)
        fault = _partition_fault(k, rays, Region.full(k, n).rays)
        assert fault == (gap and f"uncovered cell {gap.ray} on copy {gap.copy}"), rays
        copies.add(gap and gap.copy)
    assert copies == {None, 1, 2, 3}


def test_partition_validate_names_cells_and_gaps_in_copy_order():
    """Rays listed copy 2 first: the cell or gap named is still copy 1's."""
    region = Region(1, 2, (MarkedRay(R((1,), 1), 2), MarkedRay(R((1,), 1), 1)))
    cells = (MarkedRay(R((2,), 1), 2), MarkedRay(R((1,)), 1), MarkedRay(R((3,), 1), 1))
    gaps = RayPartition(region, cells)
    assert partition_validate(gaps).reason == "uncovered cell Ray(base=(2,), dirs=()) on copy 1"
    inner = Region(1, 2, (MarkedRay(R((2,), 1), 2), MarkedRay(R((2,), 1), 1)))
    leaves = RayPartition(inner, (MarkedRay(R((1,), 1), 2), MarkedRay(R((1,), 1), 1)))
    reason = partition_validate(leaves).reason
    assert reason == "cell Ray(base=(1,), dirs=(1,)) on copy 1 leaves the region near (1,)"
    for part in (gaps, leaves):
        diag = partition_validate(part)
        assert (diag.ok, diag.reason) == partition_validate_pairwise(part)
