"""The one exact linear-algebra layer: products, ranks and Smith normal forms.

Every matrix computation in hforge goes through this module.  Matrices are
tuples of row tuples of Python ints (or, for modules over Q, of ints and
Fractions), so every computation is exact.  The elimination pivots on a
minimal-absolute-value entry and repairs divisibility violations by folding
offending rows into the pivot row, which yields the divisor chain
d_1 | d_2 | ... directly.  Rank over Q reuses the integer path: scaling each
row by the common denominator of its entries leaves the row space over Q
unchanged, and the rank is then the count of nonzero Smith diagonal entries.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

__all__ = [
    "Matrix",
    "SnfResult",
    "as_matrix",
    "identity_matrix",
    "zero_matrix",
    "mat_mul",
    "determinant",
    "rank",
    "smith_normal_form",
    "snf_diagonal",
]

Matrix = tuple[tuple[int, ...], ...]


def as_matrix(rows: Sequence[Sequence[int]]) -> Matrix:
    out = tuple(tuple(int(x) for x in row) for row in rows)
    widths = {len(row) for row in out}
    if len(widths) > 1:
        raise ValueError("ragged matrix")
    return out


def identity_matrix(n: int) -> Matrix:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def zero_matrix(rows: int, cols: int) -> Matrix:
    return tuple((0,) * cols for _ in range(rows))


def mat_mul(a: Matrix, b: Matrix, cols: int) -> Matrix:
    """a @ b, where b has ``cols`` columns: a 0-row b cannot carry its width."""
    if a and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a)}x{len(a[0])} @ {len(b)}x{cols}")
    if not b:
        return zero_matrix(len(a), cols)
    bt = list(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


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
    d = [list(row) for row in a]
    nrows = len(d)
    ncols = len(d[0]) if d else 0
    u = [list(row) for row in identity_matrix(nrows)] if want_transforms else None
    v = [list(row) for row in identity_matrix(ncols)] if want_transforms else None

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
                # remainders survived the division steps; re-pivot on a
                # smaller entry and repeat
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


def snf_diagonal(a: Sequence[Sequence[int]]) -> list[int]:
    """Just the Smith diagonal (with divisor chain), no transform tracking."""
    mat = as_matrix(a)
    if not mat or not mat[0]:
        return []
    diag, _, _, _ = _snf_core(mat, want_transforms=False)
    return diag


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
    diag, _, u, v = _snf_core(mat, want_transforms=True)
    return SnfResult(mat, as_matrix(u), as_matrix(v), tuple(diag))


def _clear_denominators(a: Sequence[Sequence[int | Fraction]]) -> Matrix:
    """Each row times the lcm of its denominators: integral, same row space over Q."""
    out = []
    for row in a:
        scale = math.lcm(1, *(x.denominator for x in row))
        out.append(tuple(x.numerator * (scale // x.denominator) for x in row))
    return tuple(out)


def rank(a: Sequence[Sequence[int | Fraction]]) -> int:
    """Rank over Q of a matrix with integer or rational entries."""
    return sum(1 for x in snf_diagonal(_clear_denominators(a)) if x)
