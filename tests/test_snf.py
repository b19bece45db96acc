import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import hforge.snf as snf_module
from hforge.snf import (
    SnfResult,
    as_matrix,
    determinant,
    from_sparse,
    identity_matrix,
    mat_mul,
    rank,
    smith_normal_form,
    snf_diagonal,
    sparse_add,
    sparse_mul,
    to_sparse,
    zero_matrix,
)

from _oracles import (
    RP2_FACETS,
    boundary_matrices_from_facets,
    det_cofactor,
    mat_mul_dense,
    minor_gcd_diagonal,
    rank_over_q,
    snf_core_separate_transforms,
)


def test_identity():
    res = smith_normal_form(identity_matrix(4))
    assert res.diag == (1, 1, 1, 1)
    assert res.verify()


def test_known_example():
    # d1 = gcd of entries = 2, d1*d2 = gcd of 2x2 minors = |det| = 8
    res = smith_normal_form([[2, 4], [6, 8]])
    assert res.diag == (2, 4)
    assert res.verify()


def test_zero_matrix():
    res = smith_normal_form([[0, 0, 0], [0, 0, 0]])
    assert res.diag == (0, 0)
    assert res.verify()
    assert res.rank == 0


def test_empty_shapes():
    assert snf_diagonal([]) == []
    res = smith_normal_form([])
    assert res.diag == ()
    # a 0-row right factor cannot carry its width; the product takes it as given
    assert mat_mul(((), ()), (), 3) == zero_matrix(2, 3)
    with pytest.raises(ValueError, match="shape mismatch"):
        mat_mul(((1, 2),), ((1,),), 1)


def test_single_negative_entry():
    res = smith_normal_form([[-6]])
    assert res.diag == (6,)
    assert res.verify()


def test_bareiss_determinant_matches_cofactor():
    rng = random.Random(3)
    for _ in range(100):
        n = rng.randint(1, 5)
        m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        assert determinant(as_matrix(m)) == det_cofactor(m)


def test_snf_random_against_minor_gcd_oracle():
    rng = random.Random(9)
    for _ in range(200):
        nr = rng.randint(1, 6)
        nc = rng.randint(1, 6)
        m = [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)]
        res = smith_normal_form(m)
        assert res.verify(), m
        assert list(res.diag) == minor_gcd_diagonal(m, nc), m
        assert snf_diagonal(m) == list(res.diag)


def test_snf_big_integers():
    m = [[10**30, 2], [3, 10**25]]
    res = smith_normal_form(m)
    assert res.verify()
    assert res.diag[0] == 1
    assert res.diag[1] == abs(10**55 - 6)


def test_rank_matches_rational_rank():
    rng = random.Random(17)
    for _ in range(100):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(nc)] for _ in range(nr)]
        assert rank(m) == rank_over_q(m, nc)
    # rational entries: rows are cleared of denominators before the SNF
    for _ in range(200):
        nr = rng.randint(1, 5)
        nc = rng.randint(1, 5)
        m = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(nc)]
            for _ in range(nr)
        ]
        if nr > 1 and rng.random() < 0.5:
            # a row that is a rational multiple of another, so the rank drops
            m[-1] = [x * Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for x in m[0]]
        assert rank(m) == rank_over_q(m, nc), m
    # int and Fraction entries may share a matrix, and a matrix may be empty
    assert rank([[1, Fraction(1, 2)], [2, 1]]) == 1
    assert rank([]) == rank([[]]) == 0


def test_verify_rejects_broken_result():
    good = smith_normal_form([[2, 0], [0, 3]])
    bad = SnfResult(good.matrix, good.u, good.v, (3, 2))
    assert not bad.verify()


@pytest.mark.parametrize(
    "rows", [[[0.5]], [[2.9, 0], [0, 3]], [[1, 0], [0, True]], [[Fraction(2)]]]
)
def test_non_integer_entries_are_rejected(rows):
    # truncating them would read 0.5 as 0 and 2.9 as 2
    with pytest.raises(ValueError, match="must be integers"):
        snf_diagonal(rows)
    with pytest.raises(ValueError, match="must be integers"):
        smith_normal_form(rows)


@pytest.mark.parametrize(
    "rows, kind",
    [
        ([[1.5]], "float"),
        ([["a"]], "str"),
        ([[None]], "NoneType"),
        ([[True]], "bool"),
        ([[1, 0], [Fraction(1, 2), 2.0]], "float"),
    ],
)
def test_rank_rejects_entries_that_are_not_int_or_fraction(rows, kind):
    # the sparse rows would drop None and False as zeros and keep True as 1, and a
    # float or a str has no denominator to clear
    with pytest.raises(ValueError, match=f"must be integers, got {kind}$"):
        rank(rows)


def _unit_pivot_then_planted_block(rng):
    """A 0/+-1 block that yields unit pivots, a 0/+-1 coupling block to its
    right, and below it a planted block with no unit entry, whose pivots
    need the divisibility repair."""
    r1, c1 = rng.randint(1, 4), rng.randint(1, 4)
    r2, c2 = rng.randint(1, 4), rng.randint(1, 4)
    top = [
        [rng.choice((-1, 0, 1)) for _ in range(c1)]
        + [rng.choice((-1, 0, 0, 1)) for _ in range(c2)]
        for _ in range(r1)
    ]
    top[0][0] = rng.choice((-1, 1))
    bottom = [[0] * c1 + [rng.choice((0, 2, -2, 3, 4, 6, -9)) for _ in range(c2)]
              for _ in range(r2)]
    return top + bottom


def test_snf_matches_separate_transform_oracle():
    rng = random.Random(23)
    cases = [[[1, 0, 0], [0, 2, 0], [0, 0, 3]], [[-1, 0], [0, -4]]]
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        cases.append([[rng.choice((-1, 0, 0, 1)) for _ in range(nc)] for _ in range(nr)])
        cases.append(_unit_pivot_then_planted_block(rng))
    for m in cases:
        diag, _, u, v = snf_core_separate_transforms(m, want_transforms=True)
        res = smith_normal_form(m)
        assert list(res.diag) == diag, m
        assert res.u == tuple(map(tuple, u)), m
        assert res.v == tuple(map(tuple, v)), m
        assert snf_diagonal(m) == diag, m
        assert res.verify(), m
    # the planted 2 and 3 need the repair after a unit pivot: 1, 1, 6
    assert smith_normal_form(cases[0]).diag == (1, 1, 6)


def _sparse_cases(rng):
    """Seeded inputs for the unit-pivot phase: sparse 0/+-1 matrices, planted
    blocks with no unit, zero rows and columns, and 1 x n and n x 1 shapes."""
    cases = [
        [[2, 3], [1, 1]],  # fill-in from the unit row gives the other a unit
        [[0, 0, 0], [0, 1, 0], [0, 0, 0]],
        [[0, 2, 0, 4]],
        [[0], [3], [-6]],
        [[1, -1, 0, 0, 1]],
        [[-1], [0], [1]],
        [[0, 0], [0, 0]],
    ]
    for _ in range(150):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        cases.append([[rng.choice((-1, 0, 0, 0, 1)) for _ in range(nc)] for _ in range(nr)])
        cases.append(_unit_pivot_then_planted_block(rng))
        m = [[rng.choice((0, 0, 1, -1, 2, 3)) for _ in range(nc)] for _ in range(nr)]
        m[rng.randrange(nr)] = [0] * nc
        for row in m:
            row[rng.randrange(nc)] = 0
        cases.append(m)
    return cases


def test_sparse_diagonal_matches_dense_and_minor_gcd():
    d1, d2 = boundary_matrices_from_facets(RP2_FACETS)
    for m in _sparse_cases(random.Random(31)) + [d1]:
        want = minor_gcd_diagonal(m, len(m[0]))
        assert snf_diagonal(m) == want, m
        assert list(smith_normal_form(m).diag) == want, m
    # RP^2: its Z/2 survives the unit phase
    assert snf_diagonal(d2) == list(smith_normal_form(d2).diag) == [1] * 9 + [2]


@given(
    st.integers(1, 5).flatmap(
        lambda nc: st.lists(
            st.lists(st.sampled_from((-1, 0, 0, 0, 1, 2, -3, 4)), min_size=nc, max_size=nc),
            min_size=1,
            max_size=5,
        )
    )
)
@settings(max_examples=200, deadline=None)
def test_sparse_diagonal_hypothesis(m):
    want = minor_gcd_diagonal(m, len(m[0]))
    assert snf_diagonal(m) == list(smith_normal_form(m).diag) == want


def test_unit_phase_hands_only_the_residue_to_the_core(monkeypatch):
    seen = []
    core = snf_module._snf_core

    def recording(a, want_transforms):
        seen.append(a)
        return core(a, want_transforms)

    monkeypatch.setattr(snf_module, "_snf_core", recording)
    # row 0 has no unit until the pivot on row 1 turns it into (0, 1)
    assert snf_diagonal([[2, 3], [1, 1]]) == [1, 1]
    assert seen == []
    # the planted 2 and 4 hold no unit, so they reach the core with the torsion
    assert snf_diagonal([[1, 5, 0, 7], [0, 2, 0, 0], [0, 0, 0, 4]]) == [1, 2, 4]
    assert seen == [((2, 0), (0, 4))]
    # the transforms of the full form stay on the dense core
    seen.clear()
    smith_normal_form([[1, 0], [0, 1]])
    assert len(seen) == 1


def test_mat_mul_matches_dense_product():
    rng = random.Random(5)
    for _ in range(200):
        n, m, p = rng.randint(1, 5), rng.randint(0, 5), rng.randint(1, 5)
        entry = rng.choice(
            (
                lambda: rng.choice((0, 0, 0, 1, -1, 7)),
                lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
        )
        a = tuple(tuple(entry() for _ in range(m)) for _ in range(n))
        b = tuple(tuple(entry() for _ in range(p)) for _ in range(m))
        # a 0-row b leaves only the width argument to size the product
        assert mat_mul(a, b, p) == mat_mul_dense(a, b, p), (a, b)


def test_sparse_rows_match_dense_arithmetic():
    rng = random.Random(6)
    for _ in range(200):
        n, m, p = rng.randint(0, 5), rng.randint(0, 5), rng.randint(0, 5)
        entry = rng.choice(
            (
                lambda: rng.choice((0, 0, 0, 1, -1, 7)),
                lambda: Fraction(rng.randint(-3, 3), rng.randint(1, 4)),
            )
        )
        a = tuple(tuple(entry() for _ in range(m)) for _ in range(n))
        b = tuple(tuple(entry() for _ in range(p)) for _ in range(m))
        c = tuple(tuple(entry() for _ in range(m)) for _ in range(n))
        sa, sb, sc = to_sparse(a), to_sparse(b), to_sparse(c)
        # no zero is stored, so equal matrices have equal sparse forms
        assert all(row and all(row.values()) for form in (sa, sb, sc) for row in form.values())
        assert from_sparse(sa, n, m) == a
        assert sparse_mul(sa, sb) == to_sparse(mat_mul_dense(a, b, p))
        factor = rng.choice((1, -1, 2))
        total = tuple(
            tuple(x + factor * y for x, y in zip(ra, rc)) for ra, rc in zip(a, c)
        )
        assert sparse_add(sa, sc, factor) == to_sparse(total)
        assert sparse_add(sa, sa, -1) == {}
