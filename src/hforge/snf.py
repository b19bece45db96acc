"""The one exact linear-algebra layer: products, ranks and Smith normal forms.

Every matrix computation in hforge goes through this module.  Matrices are
tuples of row tuples of Python ints (or, for modules over Q, of ints and
Fractions), so every computation is exact; the Smith normal form takes
ints only.  A product skips the zero entries of its left factor, so the
permutation-like matrices of FI-modules cost one row copy per entry.
Matrices that are mostly zero can also be held as sparse rows
``{row: {col: x}}``, which list the non-zero rows and entries only; the
product and sum on them drop every zero they make, so two sparse forms are
equal exactly when their matrices are.

A Smith diagonal starts sparse.  The matrix is held as rows of non-zero
entries, and +-1 pivots are eliminated in place while some row holds one:
the shortest such row is taken, and in it the unit whose column has the
fewest entries.  A row left without units waits until fill-in touches it
again.
The diagonal is unchanged by this phase: it is unique, and clearing a
unit pivot's column by row operations and then its row by column
operations turns A into diag(1, S), whose diagonal is 1 followed by that
of S.  So the pivot order changes no value, and only the residue S that
holds no unit reaches the dense elimination.

The dense elimination pivots on a minimal-absolute-value entry and repairs
divisibility violations by folding offending rows into the pivot row, which
yields the divisor chain d_1 | d_2 | ... directly; a unit pivot divides
everything and needs no repair.  U and V ride in the working matrix, so one
code path serves the residue and the full form.  Rank over Q reuses the
integer path: scaling each row by the common denominator of its entries
leaves the row space over Q unchanged, and the rank is then the count of
nonzero Smith diagonal entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Sequence

__all__ = [
    "Matrix",
    "SnfResult",
    "as_matrix",
    "identity_matrix",
    "zero_matrix",
    "mat_mul",
    "to_sparse",
    "from_sparse",
    "sparse_mul",
    "sparse_add",
    "determinant",
    "rank",
    "smith_normal_form",
    "snf_diagonal",
]

Matrix = tuple[tuple[int, ...], ...]
SparseRows = dict[int, dict[int, int]]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    out = tuple(map(tuple, rows))
    if len({len(row) for row in out}) > 1:
        raise ValueError("ragged matrix")
    _require_ints(set().union(*(map(type, row) for row in out)))
    return out


def _require_ints(kinds: set[type]) -> None:
    """Reject entry types other than int, such as Fraction, float or bool,
    which the elimination would run on without complaint."""
    bad = kinds - {int}
    if bad:
        names = ", ".join(sorted(kind.__name__ for kind in bad))
        raise ValueError(f"matrix entries must be integers, got {names}")


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix, cols: int) -> Matrix:
    """a @ b, where b has ``cols`` columns: a 0-row b cannot carry its width."""
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{cols}")
    zero = (0,) * (len(b[0]) if b else cols)
    out = []
    for row in a:
        acc = zero
        for x, brow in zip(row, b):
            if x:
                acc = [s + x * y for s, y in zip(acc, brow)]
        out.append(tuple(acc))
    return tuple(out)


def to_sparse(a: Sequence[Sequence[int]]) -> SparseRows:
    """The non-zero rows of ``a`` as ``{row: {col: x}}``, zeros left out."""
    out = {}
    for i, row in enumerate(a):
        entries = {j: row[j] for j in compress(range(len(row)), row)}
        if entries:
            out[i] = entries
    return out


def from_sparse(rows: SparseRows, nrows: int, ncols: int) -> Matrix:
    """The ``nrows`` x ``ncols`` matrix with non-zero entries ``rows[i][j]``."""
    out = []
    for i in range(nrows):
        row = [0] * ncols
        for j, x in rows.get(i, {}).items():
            row[j] = x
        out.append(tuple(row))
    return tuple(out)


def sparse_mul(a: SparseRows, b: SparseRows) -> SparseRows:
    """a @ b on sparse rows; entries that sum to zero are dropped."""
    out = {}
    brows = b.get
    for i, arow in a.items():
        acc: dict[int, int] = {}
        for k, x in arow.items():
            brow = brows(k)
            if brow:
                for j, y in brow.items():
                    acc[j] = acc.get(j, 0) + x * y
        acc = {j: s for j, s in acc.items() if s}
        if acc:
            out[i] = acc
    return out


def sparse_add(a: SparseRows, b: SparseRows, factor: int = 1) -> SparseRows:
    """a + factor * b on sparse rows; entries that sum to zero are dropped."""
    out = {i: dict(row) for i, row in a.items()}
    for i, brow in b.items():
        row = out.setdefault(i, {})
        for j, y in brow.items():
            s = row.get(j, 0) + factor * y
            if s:
                row[j] = s
            else:
                row.pop(j, None)
        if not row:
            del out[i]
    return out


def determinant(a: Matrix) -> int:
    """Fraction-free (Bareiss) determinant; exact for any size."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    if n == 0:
        return 1
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            pivot = next((r for r in range(i + 1, n) if m[r][i] != 0), None)
            if pivot is None:
                return 0
            m[i], m[pivot] = m[pivot], m[i]
            sign = -sign
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                m[r][c] = (m[r][c] * m[i][i] - m[r][i] * m[i][c]) // prev
            m[r][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def _snf_core(a: Matrix, want_transforms: bool):
    """Smith diagonal of a nonempty ``a``, with U and V when ``want_transforms``
    (empty blocks otherwise).

    The transforms ride in the working matrix: row i of A carries row i of
    U to its right, and the rows of V hang below A, so every row operation
    updates U and every column operation updates V.
    """
    nrows, ncols = len(a), len(a[0])
    w = [list(row) for row in a]
    if want_transforms:
        for i, row in enumerate(w):
            row.extend(int(i == j) for j in range(nrows))
        w.extend([int(i == j) for j in range(ncols)] for i in range(ncols))

    def move_to(p, at):
        i, j = at
        w[p], w[i] = w[i], w[p]
        for row in w:
            row[p], row[j] = row[j], row[p]

    def add_row(src, dst, factor):
        w[dst] = [x + factor * y for x, y in zip(w[dst], w[src])]

    def add_col(src, dst, factor):
        for row in w:
            row[dst] += factor * row[src]

    def find_pivot(p):
        best, size = None, 0
        for i in range(p, nrows):
            row = w[i]
            for j in range(p, ncols):
                x = row[j]
                if x and (best is None or abs(x) < size):
                    best, size = (i, j), abs(x)
                    if size == 1:
                        return best
        return best

    for p in range(min(nrows, ncols)):
        best = find_pivot(p)
        if best is None:
            break
        move_to(p, best)
        while True:
            pivot = w[p][p]
            for i in range(p + 1, nrows):
                if w[i][p]:
                    add_row(p, i, -(w[i][p] // pivot))
            for j in range(p + 1, ncols):
                if w[p][j]:
                    add_col(p, j, -(w[p][j] // pivot))
            if any(w[i][p] for i in range(p + 1, nrows)) or any(w[p][p + 1:ncols]):
                # remainders survived the division steps; re-pivot on a
                # smaller entry and repeat
                move_to(p, find_pivot(p))
                continue
            if abs(pivot) == 1:
                # a unit divides every entry: nothing left to repair
                break
            offender = next(
                (i for i in range(p + 1, nrows) if any(x % pivot for x in w[i][p + 1:ncols])),
                None,
            )
            if offender is None:
                break
            add_row(offender, p, 1)
        if w[p][p] < 0:
            w[p] = [-x for x in w[p]]

    diag = [w[i][i] for i in range(min(nrows, ncols))]
    return diag, [row[ncols:] for row in w[:nrows]], w[nrows:]


def _has_unit(row: dict[int, int]) -> bool:
    values = row.values()
    return 1 in values or -1 in values


def _sparse_diagonal(rows: dict[int, dict[int, int]], nrows: int, ncols: int) -> list[int]:
    """Smith diagonal of the ``nrows`` x ``ncols`` matrix with non-zero entries
    ``rows[i][j]``; ``rows`` is consumed.

    Unit pivots are eliminated here, and the rows left, restricted to the
    columns that still hold entries, go to ``_snf_core``.
    """
    cols: dict[int, set[int]] = {}
    for i, row in rows.items():
        for j in row:
            cols.setdefault(j, set()).add(i)
    # rows that held a unit when filed, by length; a row is checked again when taken
    waiting: dict[int, list[int]] = {}
    for i, row in rows.items():
        if _has_unit(row):
            waiting.setdefault(len(row), []).append(i)
    units = 0
    while waiting:
        size = min(waiting)
        p = waiting[size].pop()
        if not waiting[size]:
            del waiting[size]
        prow = rows.get(p)
        if prow is None or len(prow) != size or not _has_unit(prow):
            continue
        c = min((j for j, x in prow.items() if x in (1, -1)), key=lambda j: (len(cols[j]), j))
        pivot = prow[c]
        for r in cols[c] - {p}:
            row = rows[r]
            factor = row[c] * pivot  # pivot is its own inverse
            for j, x in prow.items():
                y = row.get(j, 0) - factor * x
                if y:
                    if j not in row:
                        cols[j].add(r)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(r)
            if not row:
                del rows[r]
            elif _has_unit(row):
                waiting.setdefault(len(row), []).append(r)
        for j in prow:
            cols[j].discard(p)
        del rows[p]
        units += 1
    diag = [1] * units
    left = sorted(i for i, row in rows.items() if row)
    if left:
        live = sorted(j for j, members in cols.items() if members)
        residue = tuple(tuple(rows[i].get(j, 0) for j in live) for i in left)
        diag += _snf_core(residue, want_transforms=False)[0]
    return diag + [0] * (min(nrows, ncols) - len(diag))


def snf_diagonal(a: Sequence[Sequence[int]]) -> list[int]:
    """Just the Smith diagonal (with divisor chain), no transform tracking."""
    mat = as_matrix(a)
    return _sparse_diagonal(to_sparse(mat), len(mat), len(mat[0]) if mat else 0)


@dataclass(frozen=True)
class SnfResult:
    """U @ A @ V = diag(d_1, ..., d_r) with U, V unimodular and d_i | d_{i+1}."""

    matrix: Matrix
    u: Matrix
    v: Matrix
    diag: tuple[int, ...]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diag if x)

    @property
    def torsion(self) -> tuple[int, ...]:
        return tuple(x for x in self.diag if x > 1)

    def diagonal_matrix(self) -> Matrix:
        rows, cols = len(self.matrix), len(self.matrix[0]) if self.matrix else 0
        return tuple(
            tuple(
                self.diag[i] if i == j and i < len(self.diag) else 0
                for j in range(cols)
            )
            for i in range(rows)
        )

    def verify(self) -> bool:
        cols = len(self.v)
        if mat_mul(mat_mul(self.u, self.matrix, cols), self.v, cols) != self.diagonal_matrix():
            return False
        if abs(determinant(self.u)) != 1 or abs(determinant(self.v)) != 1:
            return False
        for a, b in zip(self.diag, self.diag[1:]):
            if a == 0 and b != 0:
                return False
            if a != 0 and b % a != 0:
                return False
        return all(x >= 0 for x in self.diag)


def smith_normal_form(a: Sequence[Sequence[int]]) -> SnfResult:
    mat = as_matrix(a)
    if not mat or not mat[0]:
        rows = len(mat)
        cols = len(mat[0]) if mat else 0
        return SnfResult(mat, identity_matrix(rows), identity_matrix(cols), ())
    diag, u, v = _snf_core(mat, want_transforms=True)
    return SnfResult(mat, tuple(map(tuple, u)), tuple(map(tuple, v)), tuple(diag))


def _clear_denominators(rows: SparseRows) -> SparseRows:
    """Each sparse row times the lcm of its denominators: integral, same row
    space over Q."""
    out = {}
    for i, row in rows.items():
        scale = math.lcm(*(x.denominator for x in row.values()))
        out[i] = {j: x.numerator * (scale // x.denominator) for j, x in row.items()}
    return out


def rank(a: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over Q of a matrix whose entries are ``int`` or ``Fraction``, bool rejected."""
    mat = tuple(map(tuple, a))
    if len({len(row) for row in mat}) > 1:
        raise ValueError("ragged matrix")
    _require_ints(set().union(*(map(type, row) for row in mat)) - {Fraction})
    rows = _clear_denominators(to_sparse(mat))
    return sum(1 for x in _sparse_diagonal(rows, len(mat), len(mat[0]) if mat else 0) if x)
