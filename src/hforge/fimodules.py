"""Truncated FI-modules with symmetric-group actions and generation analysis.

A truncated FI-module stores, for each level 0 <= n <= N, a free module of
finite rank over Z or Q, the inclusion map from the previous level, and the
action of the adjacent transpositions of the symmetric group on n letters.
Arbitrary injections act through a factorisation into a standard inclusion
followed by a permutation; the induced module at level n assembles n twisted
copies of level n-1, and the surjectivity of its differential onto level n
detects whether new generators appear there.  Everything is exact, and all
matrix arithmetic (products, ranks over Q, cokernels over Z) goes through
:mod:`hforge.snf`.

Levels are stored dense, but the work on them is sparse.  Validation checks
the Coxeter relations and the equivariance of the inclusions on the sparse
rows of E = s - 1, which has a handful of entries where s has rank-many,
through exact identities in the E's (see :func:`validate_fimodule`).  The
induced differential is assembled as sparse rows, one sparse product per
coset, and handed with the presentation columns to the sparse Smith
elimination; over Q each row is first cleared of denominators.  Only
:func:`sigma1` writes the differential out densely.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ValidationError
from .rays import _json_int
from .snf import (
    SparseRows,
    _clear_denominators,
    _require_ints,
    _sparse_diagonal,
    from_sparse,
    identity_matrix,
    mat_mul,
    sparse_add,
    sparse_mul,
    to_sparse,
    zero_matrix,
)

__all__ = [
    "Level",
    "TruncatedFIModule",
    "InducedModule",
    "ModuleDiagnostics",
    "validate_fimodule",
    "action_matrix",
    "evaluate_injection",
    "sigma1",
    "generation_degree",
    "degree_from_table",
    "surjectivity_table",
    "truncate",
    "essentially_fg_report",
    "houghton_h1_fimodule",
    "constant_module",
    "permutation_module",
    "sum_zero_coords",
    "coords_to_sum_zero",
    "module_to_json",
    "module_from_json",
]

Mat = tuple[tuple, ...]


@dataclass(frozen=True)
class Level:
    """One level of a truncated FI-module.

    ``iota`` includes the previous level (rank_{n-1} columns, rank_n rows;
    None at level 0); ``transpositions`` are the matrices of s_1..s_{n-1};
    ``presentation`` optionally lists relation columns for non-free Z-modules.
    """

    rank: int
    iota: Mat | None
    transpositions: tuple[Mat, ...]
    presentation: Mat | None = None


@dataclass(frozen=True)
class TruncatedFIModule:
    N: int
    ring: str
    levels: tuple[Level, ...]

    def __post_init__(self):
        if self.ring not in ("Z", "Q"):
            raise ValidationError(f"ring must be 'Z' or 'Q', got {self.ring!r}")
        if len(self.levels) != self.N + 1:
            raise ValidationError(
                f"expected {self.N + 1} levels, got {len(self.levels)}"
            )

    def rank(self, n: int) -> int:
        return self.levels[n].rank


@dataclass(frozen=True)
class ModuleDiagnostics:
    valid: bool
    problems: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def _shape_ok(mat: Mat | None, rows: int, cols: int) -> bool:
    if mat is None:
        return False
    return len(mat) == rows and all(len(r) == cols for r in mat)


def validate_fimodule(v: TruncatedFIModule) -> ModuleDiagnostics:
    """Shapes, Coxeter relations, and inclusion equivariance at every level.

    Relations are only checked on matrices of the declared shapes: a level
    with a misshapen matrix reports the shape and nothing that would
    multiply it.  They are checked on the sparse rows of E = s - 1, which
    has a handful of entries where s has rank-many; each check is an exact
    identity in the E's:

    - s_i^2 = 1 iff E_i^2 + 2 E_i = 0;
    - s_i s_j = s_j s_i iff E_i E_j = E_j E_i;
    - s_i s_{i+1} s_i = s_{i+1} s_i s_{i+1} iff A + A^2 + ABA = B + B^2 + BAB,
      with A = E_i and B = E_{i+1};
    - s_i iota = iota s'_i iff E_i iota = iota E'_i, primes on the level below.
    """
    problems = []
    # E_i = s_i - 1 of each level whose transpositions all have their shape
    shifted: dict[int, list[SparseRows]] = {}
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
        minus_one = {i: {i: -1} for i in range(r)}
        es, squares = [], []
        for i, si in enumerate(lv.transpositions, start=1):
            if not _shape_ok(si, r, r):
                problems.append(f"level {n}: s_{i} has wrong shape")
                break
            e = sparse_add(to_sparse(si), minus_one)
            square = sparse_mul(e, e)
            if sparse_add(square, e, 2):
                problems.append(f"level {n}: s_{i}^2 != 1")
            es.append(e)
            squares.append(square)
        else:
            shifted[n] = es
        if n not in shifted:
            continue
        for i in range(1, len(es)):
            a, b = es[i - 1], es[i]
            ba = sparse_mul(b, a)
            lhs = sparse_add(sparse_add(a, squares[i - 1]), sparse_mul(a, ba))
            rhs = sparse_add(sparse_add(b, squares[i]), sparse_mul(ba, b))
            if lhs != rhs:
                problems.append(f"level {n}: braid relation fails at (s_{i}, s_{i + 1})")
        for i in range(1, len(es) + 1):
            for j in range(i + 2, len(es) + 1):
                if sparse_mul(es[i - 1], es[j - 1]) != sparse_mul(es[j - 1], es[i - 1]):
                    problems.append(f"level {n}: s_{i} and s_{j} do not commute")
        if n - 1 in shifted:
            below = shifted[n - 1]
            iota = to_sparse(lv.iota)
            for i in range(1, n - 1):
                if sparse_mul(es[i - 1], iota) != sparse_mul(iota, below[i - 1]):
                    problems.append(
                        f"level {n}: inclusion does not intertwine s_{i}"
                    )
    return ModuleDiagnostics(not problems, tuple(problems))


def _require_valid(v: TruncatedFIModule) -> None:
    diag = validate_fimodule(v)
    if not diag.valid:
        raise ValidationError("; ".join(diag.problems))


def _adjacent_word(perm: tuple[int, ...]) -> list[int]:
    """Indices a_1..a_L with perm = s_{a_1} o ... o s_{a_L} (rightmost first)."""
    arr = list(perm)
    swaps = []
    changed = True
    while changed:
        changed = False
        for i in range(len(arr) - 1):
            if arr[i] > arr[i + 1]:
                arr[i], arr[i + 1] = arr[i + 1], arr[i]
                swaps.append(i + 1)
                changed = True
    return list(reversed(swaps))


def action_matrix(v: TruncatedFIModule, n: int, perm: tuple[int, ...]) -> Mat:
    """Matrix of a permutation of [n] acting on level n."""
    if sorted(perm) != list(range(1, n + 1)):
        raise ValidationError(f"{perm!r} is not a permutation of [{n}]")
    if not 0 <= n <= v.N:
        raise ValidationError(f"level {n} is outside the truncation range [0, {v.N}]")
    r = v.levels[n].rank
    out = identity_matrix(r)
    for a in _adjacent_word(perm):
        out = mat_mul(out, v.levels[n].transpositions[a - 1], r)
    return out


def _iota_chain(v: TruncatedFIModule, m: int, n: int) -> Mat:
    """The composite inclusion from level m into level n."""
    acc = identity_matrix(v.levels[m].rank)
    cols = v.levels[m].rank
    for level in range(m + 1, n + 1):
        acc = mat_mul(v.levels[level].iota, acc, cols)
    return acc


def evaluate_injection(v: TruncatedFIModule, images: tuple[int, ...], n: int) -> Mat:
    """Matrix of an injection [m] -> [n]: standard inclusion, then a permutation.

    The permutation sends i to images[i-1] for i <= m and lists the missing
    targets in increasing order afterwards; the result does not depend on
    this completion.
    """
    m = len(images)
    if len(set(images)) != m or any(not 1 <= x <= n for x in images):
        raise ValidationError(f"{images!r} is not an injection into [{n}]")
    if not 0 <= m <= n <= v.N:
        raise ValidationError(f"injection [{m}] -> [{n}] outside truncation {v.N}")
    rest = [x for x in range(1, n + 1) if x not in images]
    perm = tuple(list(images) + rest)
    return mat_mul(action_matrix(v, n, perm), _iota_chain(v, m, n), v.levels[m].rank)


@dataclass(frozen=True)
class InducedModule:
    """Level-n module induced from level n-p, with coset labels and action.

    Components are indexed by coset representatives; a permutation permutes
    components and twists each by a permutation of the lower level.
    """

    module: TruncatedFIModule
    level: int
    shift: int
    base_rank: int
    coset_reps: tuple[tuple[int, ...], ...]

    @property
    def rank(self) -> int:
        return len(self.coset_reps) * self.base_rank

    def action_matrix(self, perm: tuple[int, ...]) -> Mat:
        n, r = self.level, self.base_rank
        reps = {rep: i for i, rep in enumerate(self.coset_reps)}
        blocks: dict[tuple[int, int], Mat] = {}
        for i, tau in enumerate(self.coset_reps):
            sigma_tau = tuple(perm[t - 1] for t in tau)
            j = reps[_rep_for(sigma_tau, n)]
            target = self.coset_reps[j]
            inv_target = [0] * n
            for a, b in enumerate(target, start=1):
                inv_target[b - 1] = a
            h_full = tuple(inv_target[s - 1] for s in sigma_tau)
            if h_full[n - 1] != n:
                raise AssertionError("twist does not fix the new slot")
            blocks[(j, i)] = action_matrix(self.module, n - 1, h_full[: n - 1])
        rows = []
        for j in range(len(self.coset_reps)):
            for rr in range(r):
                row: list = []
                for i in range(len(self.coset_reps)):
                    block = blocks.get((j, i))
                    row.extend(block[rr] if block is not None else (0,) * r)
                rows.append(tuple(row))
        return tuple(rows)


def _rep_for(perm: tuple[int, ...], n: int) -> tuple[int, ...]:
    """The coset representative with the same image of the last slot."""
    return _tau(perm[n - 1], n)


def _tau(i: int, n: int) -> tuple[int, ...]:
    """The cycle sending n to i and shifting i..n-1 up by one."""
    images = []
    for j in range(1, n):
        images.append(j + 1 if j >= i else j)
    images.append(i)
    return tuple(images)


def sigma1(v: TruncatedFIModule, n: int) -> tuple[InducedModule, Mat]:
    """The induced module at level n and its differential into level n.

    Component i carries level n-1 through the coset representative tau_i
    sending the new slot to i; the differential is that action composed with
    the inclusion, so its image is the symmetric-group span of the included
    lower level.  The blocks are built by ``_d1``.
    """
    if not 1 <= n <= v.N:
        raise ValidationError(f"need 1 <= n <= {v.N}")
    reps = tuple(_tau(i, n) for i in range(1, n + 1))
    cols = v.levels[n - 1].rank
    d1 = from_sparse(_d1(v, n), v.levels[n].rank, n * cols)
    return InducedModule(v, n, 1, cols, reps), d1


def _d1(v: TruncatedFIModule, n: int) -> SparseRows:
    """The differential of ``sigma1`` at level n as sparse rows, one product
    per coset.

    tau_n is the identity and tau_i = s_i tau_{i+1}, so block n is the
    inclusion and block i is s_i times block i+1; block i takes the columns
    from (i - 1) times the lower rank on.
    """
    lv = v.levels[n]
    cols = v.levels[n - 1].rank
    block = to_sparse(lv.iota)
    rows: SparseRows = {}
    _place(rows, block, (n - 1) * cols)
    for i in range(n - 1, 0, -1):
        block = sparse_mul(to_sparse(lv.transpositions[i - 1]), block)
        _place(rows, block, (i - 1) * cols)
    return rows


def _place(rows: SparseRows, block: SparseRows, offset: int) -> None:
    """Write ``block`` into ``rows`` with its columns shifted by ``offset``."""
    for i, entries in block.items():
        out = rows.setdefault(i, {})
        for j, x in entries.items():
            out[offset + j] = x


def _surjective_at(v: TruncatedFIModule, n: int) -> bool:
    """Whether the differential at level n, with the presentation columns
    after it, spans level n: all-unit Smith diagonal over Z, full rank over Q."""
    lv = v.levels[n]
    r = lv.rank
    if r == 0:
        return True
    rows = _d1(v, n)
    ncols = n * v.levels[n - 1].rank
    if lv.presentation is not None:
        _place(rows, to_sparse(lv.presentation), ncols)
        ncols += len(lv.presentation[0])
    if v.ring == "Q":
        return sum(1 for x in _sparse_diagonal(_clear_denominators(rows), r, ncols) if x) == r
    _require_ints({type(x) for entries in rows.values() for x in entries.values()})
    return _sparse_diagonal(rows, r, ncols).count(1) == r


def surjectivity_table(v: TruncatedFIModule) -> dict[int, bool]:
    """Level-by-level surjectivity of the induced differential."""
    return {n: _surjective_at(v, n) for n in range(1, v.N + 1)}


def degree_from_table(table: dict[int, bool]) -> int:
    """Last level of a surjectivity table that is not covered; 0 when none is."""
    return max((n for n, ok in table.items() if not ok), default=0)


def generation_degree(v: TruncatedFIModule) -> int:
    """Last level where new generators appear (0 when every level is covered).

    Certified only up to the truncation: levels beyond N are not inspected.
    """
    _require_valid(v)
    return degree_from_table(surjectivity_table(v))


def truncate(v: TruncatedFIModule, c: int) -> TruncatedFIModule:
    """Zero out all levels below c; inclusions into level c become zero maps."""
    if not 0 <= c <= v.N:
        raise ValidationError(f"truncation level {c} outside [0, {v.N}]")
    levels = []
    for n, lv in enumerate(v.levels):
        if n < c:
            levels.append(Level(0, None if n == 0 else (), tuple(zero_matrix(0, 0) for _ in range(max(n - 1, 0)))))
        elif n == c:
            levels.append(
                Level(
                    lv.rank,
                    None if n == 0 else zero_matrix(lv.rank, 0),
                    lv.transpositions,
                    lv.presentation,
                )
            )
        else:
            levels.append(lv)
    return TruncatedFIModule(v.N, v.ring, tuple(levels))


def essentially_fg_report(v: TruncatedFIModule) -> dict:
    """Truncation cut and generation degree supported by the level evidence.

    The cut is the smallest c with the differential surjective at every
    level in (c, N]; the verdict is evidence at truncation scale only and
    says nothing about levels beyond N.  The input is checked once, before
    any table.  The truncation at the cut has the cut as its generation
    degree: above the cut its levels are the module's, below they are zero,
    and at the cut only presentation columns remain, too few to span.
    """
    _require_valid(v)
    return _fg_report(v)


def _fg_report(v: TruncatedFIModule) -> dict:
    """``essentially_fg_report`` on a module already checked, such as the parser's."""
    table = surjectivity_table(v)
    cut = degree_from_table(table)
    return {
        "cut_level": cut,
        "truncation_generation_degree": cut,
        "per_level_surjective": {n: table[n] for n in sorted(table)},
        "certified_within": v.N,
        "caveat": (
            "surjectivity verified for levels up to the truncation bound only; "
            "no claim is made beyond it"
        ),
        "not_generated_within_bound": bool(table) and not table[v.N],
    }


# -- fixtures and the translation-vector module --------------------------------


def constant_module(N: int, ring: str = "Z") -> TruncatedFIModule:
    """Rank one everywhere, all maps the identity."""
    levels = [Level(1, None, ())]
    for n in range(1, N + 1):
        levels.append(Level(1, ((1,),), tuple(((1,),) for _ in range(n - 1))))
    return TruncatedFIModule(N, ring, tuple(levels))


def permutation_module(N: int, ring: str = "Z", zero_level0: bool = True) -> TruncatedFIModule:
    """Level n is R^n with coordinates permuted; level 0 optionally zero."""
    levels = [Level(0 if zero_level0 else 1, None, ())]
    for n in range(1, N + 1):
        prev = levels[-1].rank
        iota = tuple(
            tuple(1 if i == j else 0 for j in range(prev)) for i in range(n)
        )
        transpositions = []
        for i in range(1, n):
            perm = list(range(n))
            perm[i - 1], perm[i] = perm[i], perm[i - 1]
            transpositions.append(
                tuple(tuple(1 if r == perm[c] else 0 for c in range(n)) for r in range(n))
            )
        levels.append(Level(n, iota, tuple(transpositions)))
    return TruncatedFIModule(N, ring, tuple(levels))


def sum_zero_coords(vector: tuple[int, ...]) -> tuple[int, ...]:
    """Coordinates of a sum-zero vector in the basis e_i - e_{i+1}."""
    if sum(vector) != 0:
        raise ValidationError(f"vector {vector!r} does not sum to zero")
    coords = []
    acc = 0
    for x in vector[:-1]:
        acc += x
        coords.append(acc)
    return tuple(coords)


def coords_to_sum_zero(coords: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse of :func:`sum_zero_coords`."""
    out = []
    prev = 0
    for c in coords:
        out.append(c - prev)
        prev = c
    out.append(-prev)
    return tuple(out)


def houghton_h1_fimodule(N: int, ring: str = "Z") -> TruncatedFIModule:
    """Sum-zero sublattices of Z^n with permuted coordinates.

    Level n has rank n-1 (0 for n <= 1) in the basis b_i = e_i - e_{i+1};
    inclusions pad by zero, and the adjacent transposition s_j sends
    b_{j-1} to b_{j-1} + b_j, negates b_j, and sends b_{j+1} to b_j + b_{j+1}.
    These are exactly the eventual translation amounts of the Houghton
    kernel elements, transported along injections of the copy set.
    """
    if N < 0:
        raise ValidationError("truncation bound must be >= 0")
    levels = [Level(0, None, ())]
    for n in range(1, N + 1):
        r = n - 1
        identity = identity_matrix(r)
        # s_j is the identity with row j replaced by 1, -1, 1 at columns j-1, j, j+1
        transpositions = []
        for j in range(1, n):
            rows = list(identity)
            rows[j - 1] = tuple({j - 2: 1, j - 1: -1, j: 1}.get(c, 0) for c in range(r))
            transpositions.append(tuple(rows))
        iota = tuple(row[:-1] for row in identity)
        levels.append(Level(r, iota, tuple(transpositions)))
    return TruncatedFIModule(N, ring, tuple(levels))


# -- JSON ----------------------------------------------------------------------


def _entry_to_json(x):
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


_FRACTION = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
_INT = frozenset({int})


def _entry_from_json(x, ring: str, field: str, n: int):
    """A matrix entry of ``field`` at level ``n``: a JSON integer or a ``"p/q"`` string."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    match = _FRACTION.fullmatch(x) if isinstance(x, str) else None
    if match is None or int(match[2] or 1) == 0:
        raise ValidationError(
            f"field {field!r} must hold integers or 'p/q' strings, got {x!r} at level {n}"
        )
    value = Fraction(int(match[1]), int(match[2] or 1))
    if value.denominator == 1:
        return value.numerator
    if ring == "Z":
        raise ValidationError(f"non-integer entry {x!r} in a Z-module")
    return value


def _json_list(value, field: str, n: int) -> list:
    """``value`` when it is a JSON array; a string or an object is not read element by element."""
    if type(value) is not list:
        raise ValidationError(f"field {field!r} must be a JSON array, got {value!r} at level {n}")
    return value


def _mat_from_json(rows, ring: str, field: str, n: int) -> Mat:
    """The matrix of JSON ``rows``, an array of arrays.  A row of exact ints is taken
    whole, on one type test; any other row is read entry by entry by ``_entry_from_json``."""
    for row in _json_list(rows, field, n):
        if type(row) is not list:
            raise ValidationError(
                f"field {field!r} must hold JSON arrays as rows, got {row!r} at level {n}"
            )
    return tuple(
        tuple(row) if set(map(type, row)) <= _INT
        else tuple(_entry_from_json(x, ring, field, n) for x in row)
        for row in rows
    )


def _mat_to_json(mat: Mat | None):
    if mat is None:
        return None
    return [[_entry_to_json(x) for x in row] for row in mat]


def module_to_json(v: TruncatedFIModule) -> dict:
    return {
        "N": v.N,
        "ring": v.ring,
        "levels": [
            {
                "rank": lv.rank,
                "iota": _mat_to_json(lv.iota),
                "transpositions": [_mat_to_json(s) for s in lv.transpositions],
                **(
                    {"presentation": _mat_to_json(lv.presentation)}
                    if lv.presentation is not None
                    else {}
                ),
            }
            for lv in v.levels
        ],
    }


def module_from_json(data: dict) -> TruncatedFIModule:
    """Parse and validate a module; ``N`` and ``rank`` must be JSON integers."""
    try:
        ring = data["ring"]
        n_top = _json_int(data, "N")
        levels = []
        for n, raw in enumerate(data["levels"]):
            rank = _json_int(raw, "rank")
            iota = raw.get("iota")
            iota = None if n == 0 else _mat_from_json([] if iota is None else iota, ring, "iota", n)
            transpositions = tuple(
                _mat_from_json(s, ring, "transpositions", n)
                for s in _json_list(raw["transpositions"], "transpositions", n)
            )
            pres = raw.get("presentation")
            if pres is not None:
                pres = _mat_from_json(pres, ring, "presentation", n)
            levels.append(Level(rank, iota, transpositions, pres))
    except ValidationError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed module object: {exc}") from exc
    v = TruncatedFIModule(n_top, ring, tuple(levels))
    _require_valid(v)
    return v
