import itertools
import json
import math
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hforge.errors import ValidationError
from hforge.houghton import (
    _parse_map,
    HoughtonMap,
    MarkedRay,
    PermutationN,
    Ray,
    Translation,
    apply_map,
    canonical_form,
    canonical_threshold,
    complement_subobject,
    compose,
    decompose,
    embed_symmetric,
    equals,
    eventual_translation_check,
    extend_to_automorphism,
    fi_map,
    identity_map,
    image_complement,
    image_region,
    in_kernel,
    inverse,
    k_ray_offsets,
    map_from_json,
    map_to_json,
    random_element,
    random_injection,
    restrict,
    same_subobject,
    sigma_projection,
    translation_vector,
    validate,
)
from hforge.rays import (
    Region,
    _canonical_cells,
    _cuts_for,
    canonicalize_region,
    ray_split,
    region_complement,
    region_equal,
)

from _oracles import (
    apply_raw,
    box_points,
    canonical_cells_group_by_parent,
    canonical_grid_by_sort,
    canonical_table_children_scan,
    compose_global_grid,
    inverse_via_validate,
    parse_map_by_constructors,
    random_injection_by_restriction,
    raw_pieces,
    uncovered_cells_by_containment,
    validate_by_cell_sets,
    validate_reference,
)

FIXTURES = Path(__file__).parent / "fixtures"


def spec_generator():
    """k=1, n=2: send (1,1) to (1,2), shift copy 1 down, copy 2 up."""
    return HoughtonMap(
        1,
        2,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 2)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((-1,), 1)),
            (MarkedRay(Ray((1,), (1,)), 2), Translation((1,), 2)),
        ),
    )


def transposition_of_first_two_points():
    """k=1, n=1: swap the points 1 and 2 of N."""
    return HoughtonMap(
        1,
        1,
        1,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((1,), 1)),
            (MarkedRay(Ray((2,), ()), 1), Translation((-1,), 1)),
            (MarkedRay(Ray((3,), (1,)), 1), Translation((0,), 1)),
        ),
    )


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("n", [1, 2, 4])
def test_identity_map_fixes_every_copy(k, n):
    full = Ray((1,) * k, tuple(range(1, k + 1)))
    pieces = tuple((MarkedRay(full, c), Translation((0,) * k, c)) for c in range(1, n + 1))
    ident = identity_map(k, n)
    assert (ident.k, ident.m, ident.n, ident.pieces) == (k, n, n, pieces)


@pytest.mark.parametrize("k, n, message", [
    (0, 1, "points need at least one coordinate"),
    (0, 0, "points need at least one coordinate"),
    (-1, 2, "points need at least one coordinate"),
    (1, 0, "need k, m, n >= 1"),
    (2, -1, "need k, m, n >= 1"),
])
def test_identity_map_rejects_k_and_n_below_one(k, n, message):
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        identity_map(k, n)


BOOL_FIELDS = [
    ("permutation", lambda: PermutationN((True, 2)), "not a permutation of [2]: (True, 2)"),
    ("embedded-permutation", lambda: map_to_json(embed_symmetric(PermutationN((True, 2)), 1)),
     "not a permutation of [2]: (True, 2)"),
    ("offset", lambda: Translation((True,), 1),
     "offset must be a nonempty integer vector, got (True,)"),
    ("target-copy", lambda: Translation((0,), True), "target copy must be >= 1, got True"),
    ("copy", lambda: MarkedRay(Ray((1,), (1,)), True), "copy index must be >= 1, got True"),
    ("dirs", lambda: Ray((1,), (True,)), "dirs must be strictly increasing within 1..1, got (True,)"),
    ("k", lambda: HoughtonMap(True, 1, 1, ()), "need k, m, n >= 1"),
    ("m", lambda: HoughtonMap(1, True, 1, ()), "need k, m, n >= 1"),
    ("n", lambda: HoughtonMap(1, 1, True, ()), "need k, m, n >= 1"),
    ("region-k", lambda: Region(True, 1, ()), "ambient needs k >= 1 and n >= 1"),
    ("region-n", lambda: Region(1, True, ()), "ambient needs k >= 1 and n >= 1"),
]


@pytest.mark.parametrize(
    "build, message", [f[1:] for f in BOOL_FIELDS], ids=[f[0] for f in BOOL_FIELDS]
)
def test_constructors_reject_bools_as_integers(build, message):
    """A bool is an int to Python but not to the JSON reader, so a map built with one
    would be written as JSON that ``map_from_json`` rejects."""
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        build()


def test_embedded_permutation_round_trips_through_json_after_a_bool_attempt():
    """A map built with True would equal and hash like the one built with 1, so the
    canonical cache could hand the later map its pieces, True included, to write."""
    with pytest.raises(ValidationError):
        map_to_json(embed_symmetric(PermutationN((True, 2)), 1))
    g = embed_symmetric(PermutationN((1, 2)), 1)
    data = map_to_json(g)
    assert {type(p["target_copy"]) for p in data["pieces"]} == {int}
    assert equals(map_from_json(data), g)


def test_validate_examples():
    diag = validate(identity_map(1, 2))
    assert diag.valid and diag.bijective

    g = spec_generator()
    diag = validate(g)
    assert diag.valid and diag.bijective
    # pointwise bijectivity oracle on [1..20] x [2]
    seen = set()
    for x in range(1, 21):
        for c in (1, 2):
            img = apply_raw(raw_pieces(g), (x,), c)
            assert img not in seen
            seen.add(img)
    hit = {p for p in seen if p[0][0] <= 18}
    expect = {((x,), c) for x in range(1, 19) for c in (1, 2)}
    assert hit == expect

    # same shape but with the copy-2 tail pushed two out: injective, not onto
    g2 = HoughtonMap(
        1,
        2,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((0,), 2)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((-1,), 1)),
            (MarkedRay(Ray((1,), (1,)), 2), Translation((2,), 2)),
        ),
    )
    diag = validate(g2)
    assert diag.valid and not diag.bijective
    from hforge.houghton import image_complement

    comp = image_complement(g2)
    assert comp.contains((2,), 2) and not comp.contains((1,), 2)


def test_validate_reports_overlap():
    bad = HoughtonMap(
        1,
        1,
        1,
        (
            (MarkedRay(Ray((1,), (1,)), 1), Translation((0,), 1)),
            (MarkedRay(Ray((2,), (1,)), 1), Translation((5,), 1)),
        ),
    )
    diag = validate(bad)
    assert not diag.valid
    assert any("ray" in p or "partition" in p for p in diag.problems)


def test_apply_examples():
    ident = identity_map(2, 3)
    assert apply_map(ident, (4, 7), 2) == ((4, 7), 2)
    g = spec_generator()
    assert apply_map(g, (1,), 1) == ((1,), 2)
    assert apply_map(g, (5,), 1) == ((4,), 1)
    with pytest.raises(ValidationError):
        apply_map(g, (0,), 1)
    with pytest.raises(ValidationError):
        apply_map(g, (1,), 3)


def test_compose_examples():
    g = spec_generator()
    assert equals(compose(identity_map(1, 2), g), g)
    assert equals(compose(g, identity_map(1, 2)), g)

    gg = compose(g, g)
    assert apply_map(gg, (1,), 1) == ((2,), 2)
    assert apply_map(gg, (2,), 1) == ((1,), 2)
    for x in range(3, 31):
        assert apply_map(gg, (x,), 1) == ((x - 2,), 1)
    for x in range(1, 31):
        assert apply_map(gg, (x,), 2) == ((x + 2,), 2)

    assert equals(compose(inverse(g), g), identity_map(1, 2))
    assert equals(compose(g, inverse(g)), identity_map(1, 2))


def test_compose_pointwise_oracle():
    rng = random.Random(100)
    for trial in range(60):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2, 3))
        f = random_element(k, n, rng.randint(0, 2), seed=1000 + trial)
        g = random_element(k, n, rng.randint(0, 2), seed=2000 + trial)
        h = compose(g, f)
        rf, rg = raw_pieces(f), raw_pieces(g)
        for p in box_points(k, 9):
            for c in range(1, n + 1):
                q, cq = apply_raw(rf, p, c)
                expected = apply_raw(rg, q, cq)
                assert apply_map(h, p, c) == expected


def test_compose_matches_global_grid_oracle():
    """Local refinement against the one-global-grid composition.

    Bijections and injections (m < n) at k = 1, 2, 3, with the two factors'
    canonical thresholds in either order; every m = n map of
    ``_differential_maps()`` composed with a valid element on either side, and
    every m < n map followed by a valid injection into n + 1 copies; where the
    oracle raises, compose raises the same message.
    """
    from hforge.houghton import _canonical_table

    def check(g, f):
        try:
            expected = compose_global_grid(g, f)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=re.escape(str(exc))):
                compose(g, f)
            return "raises", False
        assert _canonical_table(compose(g, f)) == _canonical_table(expected), (g, f)
        tf, tg = canonical_threshold(f), canonical_threshold(g)
        negative = any(d < 0 for _, tr in _canonical_table(f)[1] for d in tr.offset)
        return ("tf > tg" if tf > tg else "tf < tg" if tf < tg else "tf = tg"), negative

    rng = random.Random(31)
    seen = set()
    for trial in range(90):
        k = 1 + trial % 3
        n = rng.choice((2, 3))
        m = rng.randrange(1, n)
        seeds = [rng.randrange(10**6) for _ in range(4)]
        bf, bg = rng.randint(0, 2), rng.randint(0, 2)
        pairs = [
            (random_element(k, n, bg, seeds[0]), random_element(k, n, bf, seeds[1])),
            (random_element(k, n, bg, seeds[0]), random_injection(k, m, n, bf, seeds[2])),
            (random_injection(k, n, n + 1, bg, seeds[3]), random_injection(k, m, n, bf, seeds[2])),
        ]
        for label, (g, f) in zip(("bijection", "injection", "injection"), pairs):
            order, negative = check(g, f)
            seen.update({(label, k), order})
            if negative:
                seen.add("negative offset")
    for trial, f in enumerate(_differential_maps()):
        if f.m == f.n:
            h = random_element(f.k, f.n, trial % 3, seed=4000 + trial)
            for g, first in ((h, f), (f, h)):
                seen.add(check(g, first)[0])
        elif f.m < f.n:
            g = random_injection(f.k, f.n, f.n + 1, trial % 3, seed=4000 + trial)
            seen.add(("m < n", check(g, f)[0] == "raises"))
    expected = {(label, k) for label in ("bijection", "injection") for k in (1, 2, 3)}
    expected |= {("m < n", True), ("m < n", False)}
    assert seen >= expected | {"tf > tg", "tf < tg", "negative offset", "raises"}


def _count_calls(monkeypatch, calls, owner, name):
    """Wrap ``owner.name`` so that each call adds one to ``calls[name]``."""
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def _assert_carries_table_for_free(calls, f):
    """``f`` carries its table, so ``equals(f, f)`` looks nothing up and reads no grid."""
    import hforge.houghton as houghton

    assert f._table is not None
    before, misses = calls.copy(), houghton._canonical_table.cache_info().misses
    assert equals(f, f)
    assert calls == before
    assert houghton._canonical_table.cache_info().misses == misses


def test_compose_canonicalises_once(monkeypatch):
    """With both factors' tables cached, compose labels one grid and reads
    the result off it: one ``_full_grid`` call and one map built by
    ``_map_of_cells``, with no ``_canonical_grid``, ``_label_cells``,
    ``canonical_form``, ``cell_of_point`` or ``__post_init__``.  The result
    carries its table."""
    import hforge.houghton as houghton
    import hforge.rays as rays
    from collections import Counter

    g, f = random_element(2, 3, 3, seed=9), random_element(2, 3, 3, seed=11)
    houghton._canonical_table(g), houghton._canonical_table(f)
    calls = Counter()
    for module in (rays, houghton):
        for name in ("_full_grid", "_canonical_grid", "_label_cells", "cell_of_point"):
            if hasattr(module, name):
                _count_calls(monkeypatch, calls, module, name)
    for owner, name in ((houghton, "canonical_form"), (houghton, "_map_of_cells"),
                        (HoughtonMap, "__post_init__")):
        _count_calls(monkeypatch, calls, owner, name)
    h = compose(g, f)
    assert calls == Counter({"_full_grid": 1, "_map_of_cells": 1})
    _assert_carries_table_for_free(calls, h)


def test_inverse_canonicalises_once(monkeypatch):
    """With g's table cached, inverse reads the negated image pieces off one
    grid (``_full_grid``, not the region reader ``_canonical_grid``) and builds
    one map, by ``_map_of_cells`` and without ``__post_init__``; it caches no
    table for a map that no caller holds, and the result carries its own."""
    import hforge.houghton as houghton
    import hforge.rays as rays
    from collections import Counter

    g = random_element(2, 3, 3, seed=9)
    houghton._canonical_table(g)
    calls = Counter()
    for owner, name in ((houghton, "_full_grid"), (rays, "_canonical_grid"),
                        (houghton, "_map_of_cells"), (HoughtonMap, "__post_init__")):
        _count_calls(monkeypatch, calls, owner, name)
    misses = houghton._canonical_table.cache_info().misses
    gi = inverse(g)
    assert calls == Counter({"_full_grid": 1, "_map_of_cells": 1})
    assert houghton._canonical_table.cache_info().misses == misses
    _assert_carries_table_for_free(calls, gi)
    assert equals(compose(gi, g), identity_map(2, 3))


def _tables_against_sort(monkeypatch):
    """Make ``houghton._full_grid`` check each table it reads against the sorting oracle
    on the same labelled grid, in value, order and label objects; returns the list of
    oracle tables, one per call."""
    import hforge.houghton as houghton

    real, wants = houghton._full_grid, []

    def checked(cuts, labels, m):
        got, want = real(cuts, labels, m), canonical_grid_by_sort(cuts, labels, labels)
        assert got == want
        assert all(a[1] is b[1] for a, b in zip(got[1], want[1]))
        wants.append(want)
        return got

    monkeypatch.setattr(houghton, "_full_grid", checked)
    return wants


def test_map_tables_match_canonical_grid_by_sort(monkeypatch):
    """Every table read off the shared grid template equals the one the per-cell sort
    builds, and writes the same JSON bytes: the tables ``_map_cells`` reads for seeded
    elements and injections (k = 1..3, bound <= 3) and for the map fixtures, and those
    of their inverses and of compositions with them.  ``far_gap.json`` has a gap, so
    its table is refused before any grid is read."""
    import hforge.houghton as houghton

    wants, compared = _tables_against_sort(monkeypatch), []

    def same_bytes(h):
        want = houghton._map_of_cells(h.k, h.m, h.n, wants[-1])
        assert json.dumps(map_to_json(h)) == json.dumps(map_to_json(want))
        compared.append((h.k, h.m == h.n))

    def check(f, partner):
        table = houghton._map_cells(f.k, f.m, f.pieces)
        assert table == wants[-1]
        same_bytes(houghton._map_of_cells(f.k, f.m, f.n, table))
        if f.m == f.n:
            same_bytes(inverse(f))
            same_bytes(compose(f, partner))
        same_bytes(compose(partner if f.m == f.n else
                           random_injection(f.k, f.n, f.n + 1, 2, seed=f.n), f))

    rng = random.Random(34)
    for trial in range(45):
        k, n = 1 + trial % 3, rng.randint(1, 3)
        bound = trial % 4
        g = random_element(k, n, rng.randint(0, 3), rng.randrange(10**6))
        check(random_element(k, n, bound, rng.randrange(10**6)), g)
        check(random_injection(k, rng.randint(1, n), n, bound, rng.randrange(10**6)), g)
    for name in ("generator.json", "far_planes.json"):
        f = map_from_json(json.loads((FIXTURES / name).read_text()))
        check(f, f)
    calls = len(wants)
    gap = _parse_map(json.loads((FIXTURES / "far_gap.json").read_text()))
    with pytest.raises(ValidationError, match="do not cover every copy"):
        houghton._map_cells(gap.k, gap.m, gap.pieces)
    assert len(wants) == calls >= len(compared) > 300
    assert set(compared) == {(k, bijective) for k in (1, 2, 3) for bijective in (True, False)}


def test_warm_compose_builds_no_cells_and_one_translation_per_label_pair(monkeypatch):
    """With both factors' tables and the template warm, compose builds no ``Ray`` or
    ``MarkedRay`` (its pieces are the template's) and one ``Translation`` per pair of f
    and g label objects that meet on a cell of its grid, each the two added.  The
    template is a bounded ``lru_cache`` of tuples of ``MarkedRay``s, so pieces of
    different maps on one grid share them."""
    import hforge.houghton as houghton
    import hforge.rays as rays
    from collections import Counter
    from hforge.rays import cell_of_point

    g, f = random_element(2, 3, 3, seed=9), random_element(2, 3, 3, seed=11)
    compose(g, f)
    calls, seen = Counter(), []
    for owner in (rays, houghton):
        for name in ("_ray", "_marked"):
            _count_calls(monkeypatch, calls, owner, name)
    _count_calls(monkeypatch, calls, houghton, "_translation")
    real = houghton._full_grid
    monkeypatch.setattr(houghton, "_full_grid",
                        lambda cuts, labels, m: seen.append(labels) or real(cuts, labels, m))
    h = compose(g, f)
    assert calls["_ray"] == calls["_marked"] == 0
    (tf, f_pieces), (tg, g_pieces) = houghton._table_of(f), houghton._table_of(g)
    f_at = {(dom.copy, dom.ray): tr for dom, tr in f_pieces}
    g_at = {(dom.copy, dom.ray): tr for dom, tr in g_pieces}
    pairs = set()
    for (copy, base), tr in seen[0].items():
        tr1 = f_at[copy, cell_of_point(base, tf)]
        moved = tuple(b + d for b, d in zip(base, tr1.offset))
        tr2 = g_at[tr1.target_copy, cell_of_point(moved, tg)]
        pairs.add((id(tr1), id(tr2)))
        assert tr == Translation(tuple(a + b for a, b in zip(tr1.offset, tr2.offset)),
                                 tr2.target_copy)
    assert calls["_translation"] == len(pairs) == len({id(tr) for tr in seen[0].values()})
    assert len(pairs) < len(seen[0])

    info = rays._grid_template.cache_info()
    assert info.maxsize is not None
    t = canonical_threshold(h)
    shared = [m for c in range(1, 4) for m in rays._grid_template(2, t, c)]
    assert type(rays._grid_template(2, t, 1)) is tuple
    assert all(type(m) is MarkedRay for m in shared)
    assert all(dom is m for (dom, _), m in zip(h.pieces, shared, strict=True))
    hi = inverse(h)
    assert canonical_threshold(hi) == t
    assert all(dom is m for (dom, _), m in zip(hi.pieces, shared, strict=True))


@pytest.mark.parametrize(
    "point, copy, message",
    [
        ((2,), True, "copy True outside [1, 2]"),
        ((2,), 1.0, "copy 1.0 outside [1, 2]"),
        ((2,), "1", "copy 1 outside [1, 2]"),
        (("a",), 1, "('a',) is not a point of N^1"),
        ((True,), 1, "(True,) is not a point of N^1"),
        ((2.0,), 1, "(2.0,) is not a point of N^1"),
    ],
)
def test_apply_rejects_points_and_copies_that_are_not_ints(point, copy, message):
    """``apply_map`` checks the type of each coordinate and of the copy before it compares
    them, so a bool or a float is refused and a string raises no bare ``TypeError``."""
    with pytest.raises(ValidationError, match=re.escape(message)):
        apply_map(spec_generator(), point, copy)


def test_inverse_examples():
    assert equals(inverse(identity_map(2, 2)), identity_map(2, 2))
    g = spec_generator()
    gi = inverse(g)
    assert apply_map(gi, (1,), 2) == ((1,), 1)
    for x in range(1, 15):
        assert apply_map(gi, (x,), 1) == ((x + 1,), 1)
    for x in range(2, 15):
        assert apply_map(gi, (x,), 2) == ((x - 1,), 2)
    with pytest.raises(ValidationError):
        inverse(restrict(identity_map(1, 2), 1))


def test_inverse_involution_property():
    for trial in range(500):
        k = 1 + trial % 2
        n = 1 + trial % 3
        h = random_element(k, n, 2, seed=trial)
        assert equals(inverse(inverse(h)), h)


def test_equals_under_resplitting():
    rng = random.Random(7)
    for trial in range(500):
        k = rng.choice((1, 2))
        n = rng.choice((1, 2))
        f = random_element(k, n, 2, seed=trial)
        pieces = list(canonical_form(f).pieces)
        for _ in range(3):
            i = rng.randrange(len(pieces))
            dom, tr = pieces[i]
            if not dom.ray.dirs:
                continue
            j = rng.choice(dom.ray.dirs)
            child, rest = ray_split(dom.ray, j)
            pieces[i : i + 1] = [
                (MarkedRay(child, dom.copy), tr),
                (MarkedRay(rest, dom.copy), tr),
            ]
        f2 = HoughtonMap(f.k, f.m, f.n, tuple(pieces))
        assert equals(f, f2)
        assert canonical_form(f) == canonical_form(f2)


def test_equals_distinguishes():
    g = spec_generator()
    assert not equals(identity_map(1, 2), g)
    with pytest.raises(ValidationError):
        equals(identity_map(1, 2), identity_map(1, 3))


def test_equals_is_equivalence_relation():
    pool = [random_element(1, 2, 2, seed=s) for s in range(100)]
    for f in pool:
        assert equals(f, f)
    rng = random.Random(0)
    for _ in range(200):
        f, g, h = rng.choice(pool), rng.choice(pool), rng.choice(pool)
        assert equals(f, g) == equals(g, f)
        if equals(f, g) and equals(g, h):
            assert equals(f, h)


def test_sigma_projection_and_kernel():
    assert sigma_projection(identity_map(2, 3)).is_identity
    swap = PermutationN((2, 1))
    assert sigma_projection(embed_symmetric(swap, 1)) == swap
    g = spec_generator()
    assert sigma_projection(g).is_identity
    assert in_kernel(g)
    assert not in_kernel(embed_symmetric(swap, 1))
    assert in_kernel(identity_map(1, 2))


def test_sigma_projection_is_homomorphism():
    rng = random.Random(12)
    for trial in range(500):
        k = rng.choice((1, 2))
        n = rng.choice((2, 3))
        a = random_element(k, n, 2, seed=3000 + trial)
        b = random_element(k, n, 2, seed=4000 + trial)
        assert sigma_projection(compose(a, b)) == sigma_projection(a).compose(
            sigma_projection(b)
        )


def test_embed_symmetric_examples():
    assert equals(embed_symmetric(PermutationN.identity(3), 2), identity_map(2, 3))
    swap = embed_symmetric(PermutationN((2, 1)), 1)
    for x in range(1, 8):
        assert apply_map(swap, (x,), 1) == ((x,), 2)
        assert apply_map(swap, (x,), 2) == ((x,), 1)
    perms = [PermutationN(p) for p in itertools.permutations((1, 2, 3))]
    for s, t in itertools.product(perms, repeat=2):
        lhs = embed_symmetric(s.compose(t), 2)
        rhs = compose(embed_symmetric(s, 2), embed_symmetric(t, 2))
        assert equals(lhs, rhs)


def test_decompose():
    g = spec_generator()
    h, sigma = decompose(g)
    assert sigma.is_identity
    assert equals(h, g)

    e = embed_symmetric(PermutationN((3, 1, 2)), 1)
    h, sigma = decompose(e)
    assert sigma == PermutationN((3, 1, 2))
    assert equals(h, identity_map(1, 3))

    for trial in range(500):
        k = 1 + trial % 2
        n = 2 + trial % 3
        g = random_element(k, n, 2, seed=trial)
        h, sigma = decompose(g)
        assert in_kernel(h)
        assert equals(compose(h, embed_symmetric(sigma, k)), g)


def test_translation_vector():
    assert translation_vector(identity_map(1, 3)) == (0, 0, 0)
    g = spec_generator()
    assert translation_vector(g) == (-1, 1)
    assert translation_vector(compose(g, g)) == (-2, 2)
    with pytest.raises(ValidationError):
        translation_vector(identity_map(2, 2))
    with pytest.raises(ValidationError):
        translation_vector(embed_symmetric(PermutationN((2, 1)), 1))


def test_translation_vector_additive_and_conjugation():
    rng = random.Random(5)
    for trial in range(200):
        n = rng.choice((2, 3, 4))
        a, _ = decompose(random_element(1, n, 2, seed=5000 + trial))
        b, _ = decompose(random_element(1, n, 2, seed=6000 + trial))
        ta, tb = translation_vector(a), translation_vector(b)
        assert sum(ta) == 0 and sum(tb) == 0
        tab = translation_vector(compose(a, b))
        assert tab == tuple(x + y for x, y in zip(ta, tb))
        images = list(range(1, n + 1))
        rng.shuffle(images)
        sigma = PermutationN(tuple(images))
        e = embed_symmetric(sigma, 1)
        conj = compose(compose(e, a), inverse(e))
        expected = [0] * n
        for i in range(1, n + 1):
            expected[sigma(i) - 1] = ta[i - 1]
        assert translation_vector(conj) == tuple(expected)


def test_k_ray_offsets():
    assert k_ray_offsets(identity_map(2, 2)) == [
        (1, (0, 0), 1),
        (2, (0, 0), 2),
    ]
    sw = embed_symmetric(PermutationN((2, 1)), 2)
    assert k_ray_offsets(sw) == [(1, (0, 0), 2), (2, (0, 0), 1)]
    assert k_ray_offsets(spec_generator()) == [(1, (-1,), 1), (2, (1,), 2)]


def test_eventual_translation_check():
    ok, thresholds = eventual_translation_check(spec_generator())
    assert ok and thresholds == {1: 1, 2: 0}
    ok, thresholds = eventual_translation_check(identity_map(1, 2))
    assert ok and thresholds == {1: 0, 2: 0}
    with pytest.raises(ValidationError):
        eventual_translation_check(identity_map(2, 2))
    for trial in range(500):
        g = random_element(1, 1 + trial % 4, 3, seed=trial)
        ok, thresholds = eventual_translation_check(g)
        assert ok
        offsets = {c: d[0] for c, d, _ in k_ray_offsets(g)}
        sigma = sigma_projection(g)
        for c, bound in thresholds.items():
            for x in range(bound + 1, bound + 6):
                assert apply_map(g, (x,), c) == ((x + offsets[c],), sigma(c))


def test_fi_map_examples():
    g = transposition_of_first_two_points()
    assert equals(fi_map((1,), 1, g), g)

    pushed = fi_map((2,), 2, g)
    assert apply_map(pushed, (1,), 2) == ((2,), 2)
    assert apply_map(pushed, (2,), 2) == ((1,), 2)
    for x in range(1, 10):
        assert apply_map(pushed, (x,), 1) == ((x,), 1)

    with pytest.raises(ValidationError):
        fi_map((1, 1), 2, g)
    with pytest.raises(ValidationError):
        fi_map((1,), 2, identity_map(1, 2))  # element acts on two copies
    with pytest.raises(ValidationError):
        fi_map((1, 2), 2, embed_symmetric(PermutationN((2, 1)), 1))  # not kernel


def test_fi_map_functorial():
    injections_12 = [(1,), (2,)]
    injections_23 = [p for p in itertools.permutations((1, 2, 3), 2)]
    rng = random.Random(3)
    for trial in range(20):
        g, _ = decompose(random_element(rng.choice((1, 2)), 1, 2, seed=7000 + trial))
        for f1 in injections_12:
            for f2 in injections_23:
                composite = tuple(f2[i - 1] for i in f1)
                lhs = fi_map(composite, 3, g)
                rhs = fi_map(f2, 3, fi_map(f1, 2, g))
                assert equals(lhs, rhs)


def test_fi_map_group_homomorphism():
    for trial in range(50):
        a, _ = decompose(random_element(1, 2, 2, seed=8000 + trial))
        b, _ = decompose(random_element(1, 2, 2, seed=9000 + trial))
        f = (3, 1)
        lhs = fi_map(f, 3, compose(a, b))
        rhs = compose(fi_map(f, 3, a), fi_map(f, 3, b))
        assert equals(lhs, rhs)


def shift_injection():
    """x -> (x+1, 1) as an injection from N into N x [2]."""
    return HoughtonMap(
        1, 1, 2, ((MarkedRay(Ray((1,), (1,)), 1), Translation((1,), 1)),)
    )


def test_extend_to_automorphism_examples():
    inc = HoughtonMap(1, 1, 2, ((MarkedRay(Ray((1,), (1,)), 1), Translation((0,), 1)),))
    assert equals(extend_to_automorphism(inc), identity_map(1, 2))

    ext = extend_to_automorphism(shift_injection())
    assert validate(ext).bijective
    assert apply_map(ext, (1,), 2) == ((1,), 1)
    for x in range(2, 12):
        assert apply_map(ext, (x,), 2) == ((x - 1,), 2)
    for x in range(1, 12):
        assert apply_map(ext, (x,), 1) == ((x + 1,), 1)

    with pytest.raises(ValidationError):
        extend_to_automorphism(identity_map(1, 2))


def test_extend_to_automorphism_property():
    rng = random.Random(21)
    for trial in range(200):
        k = rng.choice((1, 2))
        n = rng.choice((2, 3))
        m = rng.randint(1, n - 1)
        f = random_injection(k, m, n, rng.randint(0, 2), seed=trial)
        ext = extend_to_automorphism(f)
        diag = validate(ext)
        assert diag.valid and diag.bijective
        assert equals(restrict(ext, m), f)
        rf = raw_pieces(f)
        for p in box_points(k, 6):
            for c in range(1, m + 1):
                assert apply_map(ext, p, c) == apply_raw(rf, p, c)


def test_same_subobject():
    f = shift_injection()
    h = transposition_of_first_two_points()
    assert same_subobject(f, compose(f, h))
    inc1 = HoughtonMap(1, 1, 2, ((MarkedRay(Ray((1,), (1,)), 1), Translation((0,), 1)),))
    inc2 = HoughtonMap(1, 1, 2, ((MarkedRay(Ray((1,), (1,)), 1), Translation((0,), 2)),))
    assert not same_subobject(inc1, inc2)
    # a three-piece bijection onto copy 1 represents the same subobject as x -> (x, 1)
    folded = HoughtonMap(
        1,
        1,
        2,
        (
            (MarkedRay(Ray((1,), ()), 1), Translation((1,), 1)),
            (MarkedRay(Ray((2,), ()), 1), Translation((-1,), 1)),
            (MarkedRay(Ray((3,), (1,)), 1), Translation((0,), 1)),
        ),
    )
    assert same_subobject(inc1, folded)
    with pytest.raises(ValidationError):
        same_subobject(inc1, identity_map(1, 3))


def test_same_subobject_coset_invariance():
    rng = random.Random(31)
    for trial in range(100):
        k = rng.choice((1, 2))
        n = rng.choice((2, 3))
        m = rng.randint(1, n - 1)
        f = random_injection(k, m, n, 2, seed=10_000 + trial)
        h = random_element(k, m, 2, seed=11_000 + trial)
        assert same_subobject(f, compose(f, h))


def test_complement_subobject():
    assert complement_subobject(identity_map(2, 2)).region.is_empty
    part = complement_subobject(shift_injection())
    reg = part.region
    assert reg.contains((1,), 1)
    assert all(reg.contains((x,), 2) for x in range(1, 10))
    assert not reg.contains((2,), 1)
    both = Region(1, 2, image_region(shift_injection()).rays + reg.rays)
    assert region_equal(both, Region.full(1, 2))


def test_random_element_contract():
    a = random_element(2, 3, 2, seed=99)
    b = random_element(2, 3, 2, seed=99)
    assert a == b
    for trial in range(1000):
        g = random_element(1 + trial % 2, 1 + trial % 4, trial % 4, seed=trial)
        diag = validate(g)
        assert diag.valid and diag.bijective
        assert canonical_threshold(g) <= trial % 4 or trial % 4 == 0
    z = random_element(2, 4, 0, seed=5)
    assert all(off == (0, 0) for _, off, _ in k_ray_offsets(z))


def test_json_round_trip():
    g = spec_generator()
    data = map_to_json(g)
    back = map_from_json(data)
    assert equals(g, back)
    pieces = data["pieces"]
    assert pieces == sorted(
        pieces, key=lambda p: (p["copy"], tuple(p["dirs"]), tuple(p["base"]))
    )
    bad = dict(data)
    bad["pieces"] = pieces + [dict(pieces[0])]
    with pytest.raises(ValidationError):
        map_from_json(bad)


def _mutants(f, rng):
    """Broken variants of a valid map: a duplicated piece, a dropped piece,
    a piece sent onto another piece's image, and a tail pushed out along a
    free direction (injective but not onto)."""
    pieces = list(f.pieces)
    i = rng.randrange(len(pieces))
    out = [pieces + [pieces[i]]]
    if len(pieces) > 1:
        out.append(pieces[:i] + pieces[i + 1 :])
    dom = pieces[i][0]
    twins = [p for j, p in enumerate(pieces) if j != i and p[0].ray.dirs == dom.ray.dirs]
    if twins:
        img = f.image_ray(rng.choice(twins))
        offset = tuple(b - a for a, b in zip(dom.ray.base, img.ray.base))
        out.append(pieces[:i] + [(dom, Translation(offset, img.copy))] + pieces[i + 1 :])
    j = rng.choice([j for j, (d, _) in enumerate(pieces) if d.ray.dirs])
    dom, tr = pieces[j]
    pushed = tuple(
        x + 1 if idx == dom.ray.dirs[0] else x for idx, x in enumerate(tr.offset, start=1)
    )
    out.append(pieces[:j] + [(dom, Translation(pushed, tr.target_copy))] + pieces[j + 1 :])
    return [HoughtonMap(f.k, f.m, f.n, tuple(p)) for p in out]


def _resplit(f, rng):
    """``f`` with some pieces split along free directions, each part keeping
    its piece's translation: the same function on more pieces, whose
    threshold grid is finer than the grid fitted to them.  Equal pieces are
    split alike, so a repeated piece stays a repeat."""
    split = {}
    for dom, tr in f.pieces:
        if (dom, tr) not in split:
            parts = [dom.ray]
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(len(parts))
                if parts[i].dirs:
                    parts[i:i + 1] = ray_split(parts[i], rng.choice(parts[i].dirs))
            split[dom, tr] = [(MarkedRay(part, dom.copy), tr) for part in parts]
    pieces = tuple(part for piece in f.pieces for part in split[piece])
    return HoughtonMap(f.k, f.m, f.n, pieces)


def _plane_stacks():
    """Maps whose pieces are the planes pinned in the last coordinate at
    1..T-1 and the orthant from T, as in ``fixtures/far_planes.json``: the
    identity, its injection into two copies, and the element that swaps two
    copies' planes and fixes their orthants."""
    maps = []
    for k, top in ((1, 3), (2, 4), (3, 5)):
        free, zero = tuple(range(1, k)), (0,) * k
        stack = [Ray((1,) * (k - 1) + (z,), free) for z in range(1, top)]
        stack.append(Ray((1,) * (k - 1) + (top,), free + (k,)))
        identity = tuple((MarkedRay(r, 1), Translation(zero, 1)) for r in stack)
        swap = tuple(
            (MarkedRay(r, c), Translation(zero, c if r.is_full else 3 - c))
            for c in (1, 2)
            for r in stack
        )
        maps += [HoughtonMap(k, 1, 1, identity), HoughtonMap(k, 1, 2, identity)]
        maps.append(HoughtonMap(k, 2, 2, swap))
    return maps


def _overlapped(f, rng):
    """``f`` with one more piece, anywhere in piece order: part of a piece's
    domain with that piece's offset moved one step up."""
    dom, tr = rng.choice(f.pieces)
    ray = dom.ray
    if ray.dirs:
        ray = ray_split(ray, rng.choice(ray.dirs))[rng.randrange(2)]
    moved = Translation(tuple(d + 1 for d in tr.offset), tr.target_copy)
    pieces = list(f.pieces)
    extra = (MarkedRay(ray, dom.copy), moved)
    pieces.insert(rng.randrange(len(pieces) + 1), extra)
    return HoughtonMap(f.k, f.m, f.n, tuple(pieces))


def _differential_maps():
    """Seeded elements and injections at k = 1, 2, 3, each with its mutants
    and one overlapped variant, and plane stacks; then each of these again
    with its pieces re-split."""
    rng = random.Random(23)
    maps, seeded = [], []
    for seed, (k, bound, _) in enumerate(itertools.product((1, 2, 3), (0, 1, 2), range(4))):
        n = 1 + seed % 3
        g = random_element(k, n, bound, seed)
        f = random_injection(k, 1 + seed % 2, 2 + seed % 2, bound, seed)
        maps += [g, f] + _mutants(g, rng) + _mutants(f, rng)
        seeded += [g, f]
    maps += [_overlapped(f, rng) for f in seeded] + _plane_stacks()
    return maps + [_resplit(f, rng) for f in maps]


def _fitted_grid_is_coarser(k, rays):
    """Whether the grid fitted to ``rays`` has fewer cells than their threshold grid."""
    t = max((ray.threshold for ray in rays), default=0)
    return math.prod(map(len, _cuts_for(k, rays))) < (t + 1) ** k


def test_validate_matches_partition_oracle():
    outcomes = ("cells overlap", "uncovered cell", "image rays overlap")
    seen = set()
    for f in _differential_maps():
        diag = validate(f)
        assert (diag.valid, diag.bijective, diag.problems) == validate_reference(f), f
        seen.update(label for label in outcomes if any(label in p for p in diag.problems))
        seen.add("bijective" if diag.bijective else "into" if diag.valid else "invalid")
    assert seen == {"bijective", "into", "invalid", *outcomes}


def test_canonical_table_matches_children_scan_oracle():
    from hforge.houghton import _canonical_table

    seen = set()
    for f in _differential_maps():
        if _fitted_grid_is_coarser(f.k, [dom.ray for dom, _ in f.pieces]):
            seen.add("coarser fitted grid")
        try:
            expected = canonical_table_children_scan(f)
        except ValidationError as exc:
            with pytest.raises(ValidationError) as err:
                _canonical_table(f)
            assert str(err.value) == str(exc), f
            seen.add("overlap" if "overlap" in str(exc) else "gap")
            continue
        t, pieces = _canonical_table(f)
        assert (t, tuple(((dom.copy, dom.ray), tr) for dom, tr in pieces)) == expected
    assert seen == {"coarser fitted grid", "overlap", "gap"}


def test_canonical_regions_and_complements_match_oracles():
    """The domains and images of ``_differential_maps()``: canonical cells
    against the group-by-parent coarsening, and ``region_complement`` and
    ``image_complement`` against the coarsened containment scan."""

    def complement(k, n, rays):
        uncovered = tuple(uncovered_cells_by_containment(k, n, rays))
        return canonical_cells_group_by_parent(Region(k, n, uncovered))[1]

    seen = set()
    for f in _differential_maps():
        images = [f.image_ray(p) for p in f.pieces]
        assert image_complement(f).rays == complement(f.k, f.n, images), f
        for n, rays in ((f.m, [dom for dom, _ in f.pieces]), (f.n, images)):
            try:
                region = Region(f.k, n, tuple(rays))
            except ValidationError:
                seen.add("overlap")
                continue
            assert _canonical_cells(region.rays) == canonical_cells_group_by_parent(region), f
            assert region_complement(region).rays == complement(f.k, n, rays), f
            seen.add("empty complement" if region_equal(region, Region.full(f.k, n)) else "gaps")
            if _fitted_grid_is_coarser(f.k, [m.ray for m in rays]):
                seen.add("coarser fitted grid")
    assert seen == {"overlap", "empty complement", "gaps", "coarser fitted grid"}


def test_a_map_with_no_pieces_covers_nothing():
    f = HoughtonMap(1, 1, 1, ())
    assert not validate(f).valid
    calls = (canonical_form, lambda f: equals(f, f), lambda f: compose(f, f), inverse, map_to_json)
    for call in calls:
        with pytest.raises(ValidationError, match="domain pieces do not cover every copy"):
            call(f)


def test_far_planes_complements_are_one_orthant():
    """``fixtures/far_planes.json`` writes the identity of N^3 as the planes
    z = 1..79 and the orthant from z = 80.  Its canonical threshold is 0, and
    in two copies its complement is copy 2's orthant, read off a fitted grid
    of 80 cells a copy rather than a threshold grid of 80^3."""
    f = map_from_json(json.loads((FIXTURES / "far_planes.json").read_text()))
    assert canonical_threshold(f) == 0
    orthant = (MarkedRay(Ray((1, 1, 1), (1, 2, 3)), 2),)
    assert region_complement(Region(3, 2, tuple(dom for dom, _ in f.pieces))).rays == orthant
    assert image_complement(HoughtonMap(3, 1, 2, f.pieces)).rays == orthant


def test_canonical_table_is_read_only_and_bounded():
    from hforge.houghton import _CANONICAL_CACHE_SIZE, _canonical_table

    _, pieces = _canonical_table(spec_generator())
    with pytest.raises(TypeError):
        pieces[0] = (pieces[0][0], Translation((0,), 1))
    with pytest.raises(TypeError):
        del pieces[0]
    assert _canonical_table.cache_info().maxsize == _CANONICAL_CACHE_SIZE == 4096
    assert list(pieces) == sorted(pieces, key=lambda piece: piece[0].sort_key())


def test_inverse_matches_validate_oracle():
    """The canonical-table inverse against the validate-first inverse.

    Where the oracle inverts, the two canonical tables agree.  A map that
    repeats a piece denotes the same function as the map without the repeat,
    and is inverted like it, point by point.  Every other map the oracle
    rejects is no bijection as a function, and both raise.
    """
    from hforge.houghton import _canonical_table

    seen = set()
    for f in _differential_maps():
        if f.m != f.n:
            continue
        try:
            expected = inverse_via_validate(f)
        except ValidationError:
            expected = None
        if expected is not None:
            assert _canonical_table(inverse(f)) == _canonical_table(expected), f
            seen.add("bijective")
            continue
        deduplicated = tuple(dict.fromkeys(f.pieces))
        if deduplicated == f.pieces:
            with pytest.raises(ValidationError, match="^map is not bijective: "):
                inverse(f)
            seen.add("not a bijection")
            continue
        got = inverse(f)
        want = inverse_via_validate(HoughtonMap(f.k, f.m, f.n, deduplicated))
        hi = canonical_threshold(got) + 2
        for p in box_points(f.k, hi):
            for c in range(1, f.n + 1):
                assert apply_map(got, p, c) == apply_map(want, p, c), (f, p, c)
        seen.add("repeated piece")
    assert seen == {"bijective", "not a bijection", "repeated piece"}


def test_carried_tables_match_tables_recomputed_from_pieces():
    """Every map read off canonical cells carries the table that the uncached
    ``_map_cells`` recomputes from its pieces, piece for piece and in order, and
    its pieces are that table's own tuple, shared by its ``canonical_form``:
    results of ``compose``, ``inverse``, ``canonical_form`` and ``decompose``
    on ``_differential_maps()`` and seeded elements, and enumerated vertices."""
    from collections import Counter

    from hforge.complexes import enumerate_bounded_vertices
    from hforge.houghton import _map_cells

    checked = Counter()

    def check(what, f):
        assert f._table is not None, (what, f)
        assert f._table == _map_cells(f.k, f.m, f.pieces), (what, f)
        assert f._table[1] is f.pieces, (what, f)
        canon = canonical_form(f)
        assert canon._table[1] is canon.pieces is f.pieces, (what, f)
        checked[what] += 1

    seeded = [random_element(k, n, 2, seed) for k in (1, 2, 3) for n in (1, 2, 3)
              for seed in range(4)]
    for f in [f for f in _differential_maps() if validate(f).valid] + seeded:
        check("canonical_form", canonical_form(f))
        if validate(f).bijective:
            check("inverse", inverse(f))
            check("compose", compose(f, f))
            check("decompose", decompose(f)[0])
        check("compose", compose(random_element(f.k, f.n, 1, seed=f.n), f))
    for k, n, bound in ((1, 3, 1), (1, 2, 2), (2, 1, 1)):
        for v in enumerate_bounded_vertices(k, n, bound):
            check("vertex", v)
    assert checked.keys() == {"canonical_form", "inverse", "compose", "decompose", "vertex"}


@pytest.mark.parametrize("build, message", [
    (lambda: Ray((1, 0), (1,)), "coordinates must be integers >= 1, got (1, 0)"),
    (lambda: Ray((1, 1), (2, 1)), "dirs must be strictly increasing within 1..2, got (2, 1)"),
    (lambda: MarkedRay(Ray((1,), (1,)), 0), "copy index must be >= 1, got 0"),
    (lambda: Translation((), 1), "offset must be a nonempty integer vector, got ()"),
    (lambda: Translation((0,), 0), "target copy must be >= 1, got 0"),
    (lambda: Ray((2,), (1,)).translate((-2,)), "translation by (-2,) moves base (2,) outside N^1"),
    (
        lambda: HoughtonMap(1, 1, 1, ((MarkedRay(Ray((1,), (1,)), 2), Translation((0,), 1)),)),
        "domain copy 2 exceeds m=1",
    ),
    (
        lambda: HoughtonMap(1, 1, 1, ((MarkedRay(Ray((1,), (1,)), 1), Translation((-1,), 1)),)),
        "piece MarkedRay(ray=Ray(base=(1,), dirs=(1,)), copy=1) translated by (-1,) leaves N^1",
    ),
])
def test_entry_checks_still_fire(build, message):
    """The public constructors keep every check that arithmetic now skips."""
    with pytest.raises(ValidationError) as err:
        build()
    assert str(err.value) == message


def test_map_from_json_still_rejects_overlapping_pieces():
    piece = {"copy": 1, "dirs": [1], "offset": [0], "target_copy": 1}
    data = {"k": 1, "m": 1, "n": 1, "pieces": [{**piece, "base": [1]}, {**piece, "base": [2]}]}
    with pytest.raises(ValidationError) as err:
        map_from_json(data)
    ray = "MarkedRay(ray=Ray(base=({},), dirs=(1,)), copy=1)"
    assert str(err.value) == (
        f"domain is not a ray partition: cells overlap: {ray.format(1)} and {ray.format(2)}; "
        f"image rays overlap: {ray.format(1)} and {ray.format(2)}"
    )


def test_random_injection_draws_match_restricted_element():
    """Injections build only their kept copies but draw as the whole element."""
    for k, n, bound in itertools.product((1, 2, 3), range(1, 5), range(3)):
        for m, seed in itertools.product(range(1, n + 1), range(200)):
            got = random_injection(k, m, n, bound, seed)
            want = random_injection_by_restriction(k, m, n, bound, seed)
            assert (got.k, got.m, got.n, got.pieces) == (want.k, want.m, want.n, want.pieces)
        got = random_element(k, n, bound, seed)
        assert got.pieces == random_injection_by_restriction(k, n, n, bound, seed).pieces


def test_seeded_generators_build_what_the_constructors_check():
    """The generators build their pieces and map unchecked; each result is the map
    the checking constructor builds from its pieces, and ``validate`` passes it."""
    for k, n, bound, seed in itertools.product((1, 2, 3), range(1, 5), range(4), (0, 7, 31)):
        drawn = [random_element(k, n, bound, seed)]
        drawn += [random_injection(k, m, n, bound, seed) for m in range(1, n + 1)]
        for f in drawn:
            assert f == HoughtonMap(k, f.m, n, f.pieces)
            diag = validate(f)
            assert diag.valid and diag.bijective == (f.m == n), diag.problems


@pytest.mark.parametrize("make, message", [
    (lambda: random_element(0, 2, 1, 0), "need k, m, n >= 1"),
    (lambda: random_element(0, 0, 1, 0), "need k, m, n >= 1"),
    (lambda: random_element(1, 0, 1, 0), "need k, m, n >= 1"),
    (lambda: random_element(2, -1, 2, 0), "need k, m, n >= 1"),
    (lambda: random_element(1, 2, -1, 0), "bound must be >= 0"),
    (lambda: random_element(0, 0, -1, 0), "bound must be >= 0"),
    (lambda: random_injection(0, 1, 2, 1, 0), "need k, m, n >= 1"),
    (lambda: random_injection(0, 1, 0, 1, 0), "need 1 <= m <= n"),
    (lambda: random_injection(1, 0, 2, 1, 0), "need 1 <= m <= n"),
    (lambda: random_injection(1, 3, 2, 1, 0), "need 1 <= m <= n"),
    (lambda: random_injection(1, 1, 0, 1, 0), "need 1 <= m <= n"),
    (lambda: random_injection(1, 1, 2, -1, 0), "bound must be >= 0"),
], ids=["k0", "k0-n0", "n0", "n-neg", "bound", "bound-first", "inj-k0", "inj-k0-n0", "inj-m0", "inj-m>n",
        "inj-n0", "inj-bound"])
def test_seeded_generators_keep_their_error_messages(make, message):
    """A bad k or n is named as the map constructor names it, before any draw; only the
    bound is checked first, and ``random_injection`` checks m against n before both."""
    with pytest.raises(ValidationError) as info:
        make()
    assert str(info.value) == message


# -- the one-pass element reader against the constructors ---------------------

_JUNK = (True, False, 1.0, 2.5, None, "1", "x", [], [1], {}, 0, -1, 2, 3, 10**20)


def _fixture_objects():
    return [json.loads(path.read_text()) for path in sorted(FIXTURES.glob("*.json"))]


def _mutate(data, draw):
    """One of the ways a JSON element can go wrong, applied to a copy of ``data``."""
    data = json.loads(json.dumps(data))
    pieces = data.get("pieces") if isinstance(data, dict) else None
    kind = draw(st.sampled_from((
        "top", "drop-top", "piece-field", "drop-field", "entry", "drop-piece",
        "dup-piece", "non-dict", "unsorted-dirs", "repeat-dirs", "nudge",
    )))
    if not isinstance(pieces, list) or not pieces or kind in ("top", "drop-top"):
        if isinstance(data, dict):
            key = draw(st.sampled_from(sorted(data) + ["k", "m", "n", "pieces"]))
            if kind == "drop-top":
                data.pop(key, None)
            elif kind == "nudge" and type(data.get(key)) is int:
                data[key] += draw(st.integers(-3, 3))
            else:
                data[key] = draw(st.sampled_from(_JUNK))
        return data
    i = draw(st.integers(0, len(pieces) - 1))
    piece = pieces[i]
    if kind == "drop-piece":
        del pieces[i]
    elif kind == "dup-piece":
        pieces.insert(i, json.loads(json.dumps(piece)))
    elif kind == "non-dict":
        pieces[i] = draw(st.sampled_from((1, "copy", [piece], None, [])))
    if kind in ("drop-piece", "dup-piece", "non-dict") or not isinstance(piece, dict):
        return data
    field = draw(st.sampled_from(("copy", "base", "dirs", "offset", "target_copy")))
    value = piece.get(field)
    if kind == "drop-field":
        piece.pop(field, None)
    elif kind == "piece-field":
        piece[field] = draw(st.sampled_from(_JUNK))
    elif kind in ("unsorted-dirs", "repeat-dirs") and isinstance(piece.get("dirs"), list):
        dirs = piece["dirs"]
        piece["dirs"] = dirs[::-1] + dirs[:1] if kind == "repeat-dirs" else dirs[::-1]
    elif kind == "nudge" and type(value) is int:
        piece[field] += draw(st.integers(-3, 3))
    elif kind == "nudge" and isinstance(value, list):
        j = draw(st.integers(0, len(value)))
        if j == len(value):
            value.append(draw(st.integers(-2, 4)))
        elif type(value[j]) is int:
            value[j] += draw(st.integers(-3, 3))
    elif isinstance(value, list) and value:  # "entry"
        value[draw(st.integers(0, len(value) - 1))] = draw(st.sampled_from(_JUNK))
    return data


def _validate_and_images(f):
    """``validate`` and the image rays, one per piece, that the oracle also returns."""
    return validate(f), tuple(f.image_ray(p) for p in f.pieces)


def _read_element(parse, check, data):
    """What a parser and a validator make of ``data``: the error text, or the pieces
    with the diagnostics and image rays."""
    try:
        f = parse(data)
    except ValidationError as exc:
        return "error", str(exc)
    if not f.pieces:  # the no-pieces gap is named without walking N^k
        return (f.k, f.m, f.n), f._table, f.pieces
    return (f.k, f.m, f.n), f._table, f.pieces, check(f)


@given(st.sampled_from(_fixture_objects()), st.integers(1, 3), st.data())
@settings(max_examples=600, deadline=None)
def test_one_pass_reader_matches_constructors(fixture, rounds, data):
    """Mutated fixture elements: bools, floats, None and strings in any field or
    entry, deleted and duplicated pieces and fields, unsorted and repeated
    ``dirs``, non-dict pieces and nudged integers.  The one-pass reader and the
    one-cell-set ``validate`` agree with the constructors and the per-ray cell
    sets, in the pieces, the diagnostics and image rays, or the error text."""
    for _ in range(rounds):
        fixture = _mutate(fixture, data.draw)
    got = _read_element(_parse_map, _validate_and_images, fixture)
    assert got == _read_element(parse_map_by_constructors, validate_by_cell_sets, fixture)
    if got[0] != "error" and not got[2]:
        diag, images = _validate_and_images(_parse_map(fixture))
        assert (diag.valid, diag.bijective, images) == (False, False, ())
        assert diag.problems == (
            f"domain is not a ray partition: uncovered cell N^{fixture['k']} on copy 1: "
            "the map has no pieces",
        )


def test_validate_decides_without_naming_on_valid_maps(monkeypatch):
    """A valid map is decided on one cell set per side; the per-ray cell sets that
    name a fault are not built."""
    import hforge.houghton

    def unused(*args):
        raise AssertionError("a fault was named on a valid map")

    for name in ("_cell_sets", "_overlapping_pair", "_partition_fault"):
        monkeypatch.setattr(hforge.houghton, name, unused)
    for f in (random_element(2, 3, 2, 5), random_injection(3, 2, 4, 1, 8), spec_generator()):
        assert validate(f).valid
    for path in ("generator.json", "identity_n2.json", "far_planes.json"):
        assert map_from_json(json.loads((FIXTURES / path).read_text())).pieces
