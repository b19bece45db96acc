import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hforge.fimodules as fimodules_module
import hforge.snf as snf_module
from hforge.errors import ValidationError
from hforge.fimodules import (
    Level,
    TruncatedFIModule,
    action_matrix,
    constant_module,
    coords_to_sum_zero,
    degree_from_table,
    essentially_fg_report,
    evaluate_injection,
    generation_degree,
    houghton_h1_fimodule,
    module_from_json,
    module_to_json,
    permutation_module,
    sigma1,
    sum_zero_coords,
    surjectivity_table,
    truncate,
    validate_fimodule,
)
from hforge.houghton import decompose, fi_map, random_element, translation_vector

from _oracles import (
    mat_from_json_by_entries,
    rank_over_q,
    sigma1_by_words,
    surjective_at_dense,
    validate_fimodule_dense,
)


def perm_matrix(perm):
    n = len(perm)
    return tuple(
        tuple(1 if r + 1 == perm[c] else 0 for c in range(n)) for r in range(n)
    )


def mat_vec(mat, vec):
    return tuple(sum(a * b for a, b in zip(row, vec)) for row in mat)


def test_validate_fixtures():
    assert validate_fimodule(constant_module(5))
    assert validate_fimodule(permutation_module(5))
    assert validate_fimodule(houghton_h1_fimodule(6))
    assert validate_fimodule(constant_module(4, ring="Q"))


def test_validate_names_broken_relation():
    v = permutation_module(3)
    lv = v.levels[2]
    flipped = tuple(
        tuple(-x for x in row) for row in lv.transpositions[0]
    )
    bad = TruncatedFIModule(
        3,
        "Z",
        v.levels[:2] + (Level(lv.rank, lv.iota, (flipped,)), v.levels[3]),
    )
    diag = validate_fimodule(bad)
    assert not diag.valid
    assert any("s_1" in p for p in diag.problems)


def test_validate_reports_misshapen_matrices_without_multiplying():
    v = constant_module(4)
    # s_1 at level 3 is 2x1 on a rank-1 level; level 4's intertwining check
    # would multiply it, so it is skipped
    lv = v.levels[3]
    tall = Level(lv.rank, lv.iota, (((1,), (0,)), lv.transpositions[1]))
    diag = validate_fimodule(TruncatedFIModule(4, "Z", v.levels[:3] + (tall,) + v.levels[4:]))
    assert diag.problems == ("level 3: s_1 has wrong shape",)

    # level 2 lacks its transposition, which level 3's intertwining check reads
    lv = v.levels[2]
    short = Level(lv.rank, lv.iota, ())
    diag = validate_fimodule(TruncatedFIModule(4, "Z", v.levels[:2] + (short,) + v.levels[3:]))
    assert diag.problems == ("level 2: expected 1 transposition matrices",)


@pytest.mark.parametrize(
    "module, level, presentation, problem",
    [
        (constant_module(3), 2, [], "level 2: presentation rows must number 1 and have equal length"),
        (constant_module(3), 2, [[1], [2]],
         "level 2: presentation rows must number 1 and have equal length"),
        (permutation_module(3), 2, [[1, 2], [3]],
         "level 2: presentation rows must number 2 and have equal length"),
    ],
    ids=["no-rows", "two-rows-on-rank-1", "ragged"],
)
def test_validate_reports_misshapen_presentation(module, level, presentation, problem):
    data = module_to_json(module)
    data["levels"][level]["presentation"] = presentation
    with pytest.raises(ValidationError, match=problem):
        module_from_json(data)
    lv = module.levels[level]
    pres = tuple(tuple(row) for row in presentation)
    bad = TruncatedFIModule(
        module.N,
        "Z",
        module.levels[:level]
        + (Level(lv.rank, lv.iota, lv.transpositions, pres),)
        + module.levels[level + 1 :],
    )
    assert validate_fimodule(bad).problems == (problem,)
    # the presentation is never stacked onto the differential
    with pytest.raises(ValidationError, match=problem):
        generation_degree(bad)


def _replace_level(v, n, **change):
    """``v`` with some fields of level ``n`` replaced."""
    lv = v.levels[n]
    fields = dict(rank=lv.rank, iota=lv.iota, transpositions=lv.transpositions,
                  presentation=lv.presentation)
    fields.update(change)
    return TruncatedFIModule(v.N, v.ring, v.levels[:n] + (Level(**fields),) + v.levels[n + 1 :])


def _h1_level_replaced(level, **change):
    """``houghton_h1_fimodule(4)`` with some fields of one level replaced."""
    return _replace_level(houghton_h1_fimodule(4), level, **change)


def test_validate_names_distance_two_commutation():
    v = permutation_module(4)
    s = v.levels[4].transpositions
    bad = _replace_level(v, 4, transpositions=(s[1],) + s[1:])
    problems = validate_fimodule(bad).problems
    assert "level 4: s_1 and s_3 do not commute" in problems
    assert problems == validate_fimodule_dense(bad).problems


@pytest.mark.parametrize(
    "bad",
    [
        _h1_level_replaced(3, iota=((1,),)),
        _h1_level_replaced(4, transpositions=houghton_h1_fimodule(4).levels[4].transpositions[:2]),
        _h1_level_replaced(4, presentation=((1,),)),
    ],
    ids=["iota-1x1-at-3", "missing-transposition-at-4", "presentation-one-row-at-4"],
)
def test_report_checks_its_input_before_any_table(bad):
    problems = validate_fimodule(bad).problems
    assert problems
    with pytest.raises(ValidationError, match="^" + re.escape("; ".join(problems)) + "$"):
        essentially_fg_report(bad)


def test_action_matrix_matches_permutation_matrices():
    v = permutation_module(4)
    for n in (2, 3, 4):
        for perm in itertools.permutations(range(1, n + 1)):
            assert action_matrix(v, n, perm) == perm_matrix(perm)


@pytest.mark.parametrize("n", [-1, -2, 4], ids=["minus-1", "minus-2", "N-plus-1"])
def test_action_matrix_rejects_levels_outside_the_truncation(n):
    """A negative level would otherwise index the levels from the end."""
    v = permutation_module(3)
    perm = tuple(range(1, n + 1))
    with pytest.raises(ValidationError, match=re.escape(f"level {n} is outside the truncation range [0, 3]")):
        action_matrix(v, n, perm)


def test_evaluate_injection_examples():
    v = permutation_module(3)
    assert evaluate_injection(v, (1, 2), 2) == ((1, 0), (0, 1))
    # 1 -> 2 sends the basis vector of level 1 to e_2
    col = evaluate_injection(v, (2,), 2)
    assert col == ((0,), (1,))
    with pytest.raises(ValidationError):
        evaluate_injection(v, (1, 1), 2)
    with pytest.raises(ValidationError):
        evaluate_injection(v, (4,), 4)


def test_evaluate_injection_functorial_and_factor_independent():
    for v in (permutation_module(4), houghton_h1_fimodule(4), constant_module(4)):
        for m, n in ((1, 2), (1, 3), (2, 3), (2, 4), (3, 4)):
            for images in itertools.permutations(range(1, n + 1), m):
                mat = evaluate_injection(v, images, n)
                # factor through every intermediate level
                for mid in range(m, n + 1):
                    for via in itertools.permutations(range(1, mid + 1), m):
                        for completion in itertools.permutations(range(1, n + 1), mid):
                            if tuple(completion[i - 1] for i in via) == images:
                                two_step = _matmul_py(
                                    evaluate_injection(v, completion, n),
                                    evaluate_injection(v, via, mid),
                                )
                                assert two_step == mat


def _matmul_py(a, b):
    if not b:
        return tuple(() for _ in a)
    cols = len(b[0])
    return tuple(
        tuple(sum(row[i] * b[i][j] for i in range(len(b))) for j in range(cols))
        for row in a
    )


def test_sigma1_rank_and_equivariance():
    for v in (permutation_module(4), houghton_h1_fimodule(5)):
        for n in range(1, v.N + 1):
            induced, d1 = sigma1(v, n)
            assert induced.rank == n * v.levels[n - 1].rank
            assert len(d1) == v.levels[n].rank
            if v.levels[n].rank:
                assert len(d1[0]) == induced.rank
            for perm in itertools.permutations(range(1, n + 1)):
                left = _matmul_py(action_matrix(v, n, perm), d1)
                right = _matmul_py(d1, induced.action_matrix(perm))
                assert left == right


def test_sigma1_matches_word_oracle():
    """One product per coset gives the differential the words gave."""
    for ring in ("Z", "Q"):
        for v in (constant_module(8, ring), permutation_module(8, ring), houghton_h1_fimodule(8, ring)):
            for n in range(1, v.N + 1):
                assert sigma1(v, n)[1] == sigma1_by_words(v, n)


@st.composite
def _random_levels(draw):
    """Levels of random shapes and integer entries, free of every module relation."""
    ranks = draw(st.lists(st.integers(0, 3), min_size=2, max_size=5))
    entries = st.integers(-3, 3)

    def matrix(rows, cols):
        return tuple(
            tuple(draw(st.lists(entries, min_size=cols, max_size=cols))) for _ in range(rows)
        )

    levels = [Level(ranks[0], None, ())]
    for n in range(1, len(ranks)):
        r = ranks[n]
        levels.append(
            Level(r, matrix(r, ranks[n - 1]), tuple(matrix(r, r) for _ in range(n - 1)))
        )
    return TruncatedFIModule(len(ranks) - 1, "Z", tuple(levels))


@given(_random_levels())
@settings(max_examples=200, deadline=None)
def test_sigma1_matches_word_oracle_on_random_matrices(v):
    """Exact associativity: the blocks agree whether or not the matrices
    satisfy the Coxeter relations."""
    for n in range(1, v.N + 1):
        assert sigma1(v, n)[1] == sigma1_by_words(v, n)


def _with_entry(mat, row, col, value):
    return tuple(
        tuple(value if (i, j) == (row, col) else x for j, x in enumerate(r))
        for i, r in enumerate(mat)
    )


@st.composite
def _modules_with_one_entry_changed(draw):
    """A fixture or random module, perhaps with a presentation at one level,
    and one entry of one inclusion or transposition changed: integers over
    Z, Fractions over Q."""
    v = draw(
        st.sampled_from(
            [houghton_h1_fimodule(6), houghton_h1_fimodule(6, "Q"), permutation_module(5)]
        )
        | st.builds(
            lambda w, ring: TruncatedFIModule(w.N, ring, w.levels),
            _random_levels(),
            st.sampled_from(["Z", "Q"]),
        )
    )
    small = st.integers(-3, 3)
    if draw(st.booleans()):
        n = draw(st.integers(0, v.N))
        width = draw(st.integers(0, 2))
        pres = tuple(
            tuple(draw(st.lists(small, min_size=width, max_size=width)))
            for _ in range(v.levels[n].rank)
        )
        v = _replace_level(v, n, presentation=pres)
    slots = [
        (n, which)
        for n in range(1, v.N + 1)
        for which in range(len(v.levels[n].transpositions) + 1)
        if v.levels[n].rank and (which or v.levels[n - 1].rank)
    ]
    if not slots:
        return v
    n, which = draw(st.sampled_from(slots))
    lv = v.levels[n]
    mat = lv.transpositions[which - 1] if which else lv.iota
    row = draw(st.integers(0, len(mat) - 1))
    col = draw(st.integers(0, len(mat[0]) - 1))
    if v.ring == "Q":
        value = Fraction(draw(small), draw(st.integers(1, 4)))
    else:
        value = draw(small)
    mat = _with_entry(mat, row, col, value)
    if which:
        s = lv.transpositions
        return _replace_level(v, n, transpositions=s[: which - 1] + (mat,) + s[which:])
    return _replace_level(v, n, iota=mat)


@given(_modules_with_one_entry_changed())
@settings(max_examples=300, deadline=None)
def test_sparse_relations_and_surjectivity_match_dense_oracles(v):
    """The relations checked on the sparse rows of s - 1 report what the
    dense products reported, message for message; the sparse differential
    gives the dense surjectivity table."""
    assert validate_fimodule(v).problems == validate_fimodule_dense(v).problems
    assert surjectivity_table(v) == {n: surjective_at_dense(v, n) for n in range(1, v.N + 1)}


def test_parsing_and_tables_make_no_dense_products(monkeypatch):
    data = module_to_json(houghton_h1_fimodule(12))
    calls = []
    mat_mul = snf_module.mat_mul

    def counting_mul(*args):
        calls.append(args)
        return mat_mul(*args)

    monkeypatch.setattr(fimodules_module, "mat_mul", counting_mul)
    monkeypatch.setattr(snf_module, "mat_mul", counting_mul)
    table = surjectivity_table(module_from_json(data))
    assert degree_from_table(table) == 2
    assert calls == []


def test_z_module_tables_reject_non_integer_entries():
    # the parser rejects them; a module built in code meets the Smith form's check
    v = _replace_level(constant_module(2), 1, iota=((Fraction(1, 2),),))
    with pytest.raises(ValueError, match="must be integers, got Fraction"):
        surjectivity_table(v)
    assert surjectivity_table(TruncatedFIModule(2, "Q", v.levels)) == {1: True, 2: True}


def test_sigma1_surjectivity_examples():
    const = constant_module(5)
    assert all(surjectivity_table(const).values())

    perm = permutation_module(5)
    table = surjectivity_table(perm)
    assert table[1] is False  # level 0 is zero, nothing maps onto R^1
    assert all(table[n] for n in range(2, 6))

    h1 = houghton_h1_fimodule(6)
    table = surjectivity_table(h1)
    assert table[1] is True  # rank zero target
    assert table[2] is False  # rank-one target, zero source
    assert all(table[n] for n in range(3, 7))


def test_generation_degrees():
    assert generation_degree(constant_module(6)) == 0
    assert generation_degree(permutation_module(6)) == 1
    assert generation_degree(houghton_h1_fimodule(6)) == 2
    assert generation_degree(houghton_h1_fimodule(6, ring="Q")) == 2
    assert generation_degree(permutation_module(6, ring="Q")) == 1


def test_generation_degree_orbit_span_oracle():
    # the image of the level-n differential is the symmetric-group span of
    # the padded lower level; recompute the h1 module's rank over Q directly
    v = houghton_h1_fimodule(5)
    for n in (3, 4, 5):
        vectors = []
        base = [0] * n
        base[0], base[1] = 1, -1  # e_1 - e_2 padded into Z^n
        for perm in itertools.permutations(range(1, n + 1)):
            vectors.append([base[perm.index(i + 1)] for i in range(n)])
        coords = [sum_zero_coords(tuple(vec)) for vec in vectors]
        assert rank_over_q(coords, n - 1) == n - 1


def test_generation_degree_monotone_under_truncation():
    for v in (constant_module(5), permutation_module(5), houghton_h1_fimodule(5)):
        g = generation_degree(v)
        for c in range(v.N + 1):
            assert generation_degree(truncate(v, c)) >= min(c, g)


def test_d1_image_is_orbit_span_of_included_level():
    for v in (permutation_module(4), houghton_h1_fimodule(5)):
        for n in range(1, v.N + 1):
            _, d1 = sigma1(v, n)
            prev = v.levels[n - 1].rank
            span = []
            for perm in itertools.permutations(range(1, n + 1)):
                moved = _matmul_py(
                    action_matrix(v, n, perm), v.levels[n].iota
                )
                span.extend(tuple(row[j] for row in moved) for j in range(prev))
            r = v.levels[n].rank
            d1_cols = [tuple(row[j] for row in d1) for j in range(n * prev)]
            assert rank_over_q([list(c) for c in d1_cols], r) == rank_over_q(
                [list(c) for c in span] or [[0] * r], r
            )


def test_truncate():
    v = houghton_h1_fimodule(5)
    assert truncate(v, 0) == v
    t2 = truncate(constant_module(5), 2)
    assert validate_fimodule(t2)
    assert generation_degree(t2) == 2
    assert truncate(truncate(v, 1), 3) == truncate(v, 3)
    with pytest.raises(ValidationError):
        truncate(v, 9)


def test_essentially_fg_report():
    rep = essentially_fg_report(constant_module(5))
    assert rep["cut_level"] == 0
    assert rep["truncation_generation_degree"] == 0
    assert not rep["not_generated_within_bound"]

    rep = essentially_fg_report(houghton_h1_fimodule(6))
    assert rep["cut_level"] == 2
    assert rep["truncation_generation_degree"] == 2
    assert rep["per_level_surjective"][2] is False
    assert rep["per_level_surjective"][6] is True

    # inject a fresh generator at level 5 of the constant module by zeroing
    # the inclusion into it
    v = constant_module(6)
    lv = v.levels[5]
    injected = TruncatedFIModule(
        6,
        "Z",
        v.levels[:5] + (Level(lv.rank, ((0,),), lv.transpositions),) + v.levels[6:],
    )
    assert validate_fimodule(injected)
    rep2 = essentially_fg_report(injected)
    assert rep2["cut_level"] == 5 > rep["cut_level"]


def _rank_one_module(N, ring, factor, relation=None):
    """Rank one at every level, inclusions multiplying by ``factor``, one relation column."""
    pres = None if relation is None else ((relation,),)
    levels = [Level(1, None, (), presentation=pres)]
    for n in range(1, N + 1):
        levels.append(
            Level(1, ((factor,),), tuple(((1,),) for _ in range(n - 1)), presentation=pres)
        )
    return TruncatedFIModule(N, ring, tuple(levels))


def test_report_cut_is_the_generation_degree_of_the_truncation_at_the_cut():
    modules = [
        constant_module(5),
        constant_module(4, ring="Q"),
        permutation_module(5),
        permutation_module(4, zero_level0=False),
        permutation_module(4, ring="Q"),
        *(houghton_h1_fimodule(N, ring=ring) for ring in ("Z", "Q") for N in (2, 3, 5, 6)),
        *(_rank_one_module(4, "Q", factor) for factor in (0, 1, 3)),
        *(
            _rank_one_module(4, "Z", factor, relation)
            for factor in (0, 1, 2, 3)
            for relation in (None, 2, 3, 4)
        ),
    ]
    cuts = set()
    for v in modules:
        rep = essentially_fg_report(v)
        cut = rep["cut_level"]
        assert rep["truncation_generation_degree"] == cut
        assert generation_degree(truncate(v, cut)) == cut
        cuts.add(cut)
    assert cuts == {0, 1, 2, 4}


def test_presentation_cokernel_surjectivity():
    # Z/2 at every level with identity maps: the differential hits the free
    # cover only up to the relation, which the presentation absorbs
    levels = [Level(1, None, (), presentation=((2,),))]
    for n in range(1, 4):
        levels.append(
            Level(1, ((1,),), tuple(((1,),) for _ in range(n - 1)), presentation=((2,),))
        )
    v = TruncatedFIModule(3, "Z", tuple(levels))
    assert validate_fimodule(v)
    assert generation_degree(v) == 0

    # tripling inclusions are onto Z/2 (3 is invertible there) but not onto Z
    tripled = [Level(1, None, ())]
    for n in range(1, 4):
        tripled.append(Level(1, ((3,),), tuple(((1,),) for _ in range(n - 1))))
    w = TruncatedFIModule(3, "Z", tuple(tripled))
    assert generation_degree(w) == 3
    w_mod2 = TruncatedFIModule(
        3,
        "Z",
        tuple(
            Level(lv.rank, lv.iota, lv.transpositions, presentation=((2,),))
            for lv in tripled
        ),
    )
    assert generation_degree(w_mod2) == 0
    assert generation_degree(TruncatedFIModule(3, "Q", tuple(tripled))) == 0


def test_houghton_h1_module_shape():
    v = houghton_h1_fimodule(6)
    assert v.levels[0].rank == 0 and v.levels[1].rank == 0
    assert [v.levels[n].rank for n in range(2, 7)] == [1, 2, 3, 4, 5]
    s1 = v.levels[3].transpositions[0]
    assert mat_vec(s1, (1, 0)) == (-1, 0)  # b_1 = e_1 - e_2 negates
    assert mat_vec(s1, (0, 1)) == (1, 1)  # b_2 gains b_1


def test_sum_zero_coordinate_round_trip():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 6)
        vec = [rng.randint(-5, 5) for _ in range(n - 1)]
        vec.append(-sum(vec))
        coords = sum_zero_coords(tuple(vec))
        assert len(coords) == n - 1
        assert coords_to_sum_zero(coords) == tuple(vec)
    with pytest.raises(ValidationError):
        sum_zero_coords((1, 1))


def test_translation_vector_naturality_square():
    v = houghton_h1_fimodule(6)
    rng = random.Random(13)
    checked = 0
    while checked < 200:
        m = rng.randint(1, 4)
        n = rng.randint(m, 6)
        g, _ = decompose(random_element(1, m, 2, seed=checked))
        images = tuple(rng.sample(range(1, n + 1), m))
        lhs = sum_zero_coords(translation_vector(fi_map(images, n, g)))
        mat = evaluate_injection(v, images, n)
        rhs = mat_vec(mat, sum_zero_coords(translation_vector(g)))
        assert lhs == rhs
        checked += 1


def test_module_json_round_trip():
    for v in (constant_module(3), permutation_module(3), houghton_h1_fimodule(4)):
        assert module_from_json(module_to_json(v)) == v
    q = constant_module(2, ring="Q")
    assert module_from_json(module_to_json(q)) == q
    # integral entries of a Q-module are stored as ints, as the builders make them
    h1 = houghton_h1_fimodule(5, ring="Q")
    parsed = module_from_json(module_to_json(h1))
    assert parsed == h1
    assert all(
        type(x) is int
        for lv in parsed.levels[1:]
        for mat in (lv.iota, *lv.transpositions)
        for row in mat
        for x in row
    )
    data = module_to_json(constant_module(2))
    data["levels"][2]["transpositions"] = [[[2]]]
    with pytest.raises(ValidationError):
        module_from_json(data)


def _rank_one_module_json(ring, iota2):
    """Rank one at every level up to 3, trivial actions, level 2 included by iota2."""
    return {
        "N": 3,
        "ring": ring,
        "levels": [
            {"rank": 1, "iota": None, "transpositions": []},
            {"rank": 1, "iota": [[1]], "transpositions": []},
            {"rank": 1, "iota": [[iota2]], "transpositions": [[[1]]]},
            {"rank": 1, "iota": [[1]], "transpositions": [[[1]], [[1]]]},
        ],
    }


def test_q_module_with_fractional_entry():
    v = module_from_json(_rank_one_module_json("Q", "1/2"))
    assert v.levels[2].iota == ((Fraction(1, 2),),)
    assert type(v.levels[2].iota[0][0]) is Fraction
    assert generation_degree(v) == 0
    assert generation_degree(module_from_json(_rank_one_module_json("Q", "0"))) == 2
    # 2 is a unit over Q but not over Z
    assert generation_degree(module_from_json(_rank_one_module_json("Q", 2))) == 0
    assert generation_degree(module_from_json(_rank_one_module_json("Z", 2))) == 2
    with pytest.raises(ValidationError, match="non-integer entry"):
        module_from_json(_rank_one_module_json("Z", "1/2"))


_ROW_ENTRIES = st.one_of(
    st.integers(-5, 5),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.sampled_from((0.0, 1.5, -2.0, None, "", "x", "1/0", "a/b")),
    st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9), st.integers(1, 9)),
    st.integers(-9, 9).map(str),
)
_ROWS = st.one_of(
    st.lists(st.integers(-3, 3), max_size=5),
    st.lists(_ROW_ENTRIES, max_size=5),
    st.sampled_from((0, None, "12", "1/2", {"1": 2}, (1, 2), 1.0)),
)


def _mat_outcome(read, rows, ring):
    try:
        return "ok", read(rows, ring, "iota", 2)
    except ValidationError as exc:
        return "error", str(exc)
    except (TypeError, ValueError) as exc:  # module_from_json calls these malformed
        return type(exc).__name__, str(exc)


@given(st.lists(_ROWS, max_size=4), st.sampled_from(("Z", "Q")))
@settings(max_examples=400, deadline=None)
def test_whole_row_reader_matches_entry_reader(rows, ring):
    """Rows of exact ints are taken on one type test; rows with bools, floats or
    ``"p/q"`` strings read as each entry read alone.  A row that is no JSON array,
    such as a string or an object, is rejected by name with its field and level,
    before any entry is read."""
    got = _mat_outcome(fimodules_module._mat_from_json, rows, ring)
    bad = [row for row in rows if type(row) is not list]
    if bad:
        message = f"field 'iota' must hold JSON arrays as rows, got {bad[0]!r} at level 2"
        assert got == ("error", message)
        return
    assert got == _mat_outcome(mat_from_json_by_entries, rows, ring)
    if got[0] == "ok":
        assert [type(row) for row in got[1]] == [tuple] * len(rows)
