"""Exact rational linear algebra for small dense matrices.

Everything runs on fractions.Fraction and Python integers, so results are
bit-for-bit reproducible across platforms; floating point input is
rejected outright.  Determinants use fraction-free (Bareiss) elimination,
solve uses rational Gaussian elimination with deterministic pivoting
(first nonzero entry, smallest row index), and hnf returns a row-style
Hermite normal form together with its unimodular transform.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

UNIQUE = "unique"
INCONSISTENT = "inconsistent"
UNDERDETERMINED = "underdetermined"


def exact(x) -> Fraction:
    """x as a Fraction; floats are refused, since they are not exact."""
    if isinstance(x, float):
        raise TypeError("floating point values are not allowed; pass int or Fraction")
    return Fraction(x)


class QMatrix:
    """Immutable dense matrix with exact rational entries."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(exact(x) for x in row) for row in rows)
        if not data or not data[0]:
            raise ValueError("matrix dimensions must be positive")
        width = len(data[0])
        if any(len(row) != width for row in data):
            raise ValueError("matrix rows have unequal lengths")
        self.rows: tuple[tuple[Fraction, ...], ...] = data

    @classmethod
    def identity(cls, n: int) -> "QMatrix":
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def is_integer(self) -> bool:
        return all(x.denominator == 1 for row in self.rows for x in row)

    def apply(self, v: Sequence) -> tuple[Fraction, ...]:
        """Matrix times column vector."""
        vec = [exact(x) for x in v]
        if len(vec) != self.ncols:
            raise ValueError("vector length does not match column count")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self.rows)

    def __matmul__(self, other: "QMatrix") -> "QMatrix":
        if self.ncols != other.nrows:
            raise ValueError("inner dimensions do not match")
        cols = list(zip(*other.rows))
        return QMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self.rows]
        )

    def transpose(self) -> "QMatrix":
        return QMatrix(list(zip(*self.rows)))

    def __eq__(self, other) -> bool:
        return isinstance(other, QMatrix) and self.rows == other.rows

    def __hash__(self) -> int:
        return hash(self.rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"QMatrix[{body}]"


def det(m: QMatrix) -> Fraction:
    """Exact determinant: rows scaled to integers, then integer_det."""
    if not m.is_square:
        raise ValueError("determinant requires a square matrix")
    scale = 1
    a: list[list[int]] = []
    for row in m.rows:
        mult = lcm(*(x.denominator for x in row))
        scale *= mult
        a.append([int(x * mult) for x in row])
    return Fraction(integer_det(a), scale)


def integer_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix by Bareiss fraction-free
    elimination, in which every division is exact in Z.  Overwrites a."""
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        pivot = next((i for i in range(k, n) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


@dataclass(frozen=True)
class SolveResult:
    """Classification of a linear system: unique, inconsistent, or
    underdetermined; ``solution`` is set only in the unique case."""

    status: str
    solution: tuple[Fraction, ...] | None = None


def solve(m: QMatrix, b: Sequence) -> SolveResult:
    """Classify m*x = b exactly and return the solution when unique."""
    rhs = [exact(x) for x in b]
    if len(rhs) != m.nrows:
        raise ValueError("right-hand side length does not match row count")
    aug = [list(row) + [val] for row, val in zip(m.rows, rhs)]
    nr, nc = m.nrows, m.ncols
    pivots: list[int] = []
    r = 0
    for c in range(nc):
        pivot = next((i for i in range(r, nr) if aug[i][c]), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        pval = aug[r][c]
        aug[r] = [x / pval for x in aug[r]]
        for i in range(nr):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    for i in range(r, nr):
        if aug[i][nc]:
            return SolveResult(INCONSISTENT)
    if len(pivots) < nc:
        return SolveResult(UNDERDETERMINED)
    x = [Fraction(0)] * nc
    for i, c in enumerate(pivots):
        x[c] = aug[i][nc]
    return SolveResult(UNIQUE, tuple(x))


def inverse(m: QMatrix) -> QMatrix:
    """Exact inverse by Gauss-Jordan elimination."""
    if not m.is_square:
        raise ValueError("inverse requires a square matrix")
    n = m.nrows
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(m.rows)]
    for c in range(n):
        pivot = next((i for i in range(c, n) if aug[i][c]), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[c], aug[pivot] = aug[pivot], aug[c]
        pval = aug[c][c]
        aug[c] = [x / pval for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return QMatrix([row[n:] for row in aug])


def hnf(m: QMatrix) -> tuple[QMatrix, QMatrix]:
    """Row-style Hermite normal form H of an integer matrix, with U*m = H.

    H has the shape of m with its zero rows at the bottom; every pivot is
    positive, entries above a pivot are reduced into [0, pivot), and U is
    unimodular (det +-1).  Pivoting is deterministic: smallest absolute
    value first, ties broken by row index.
    """
    if not m.is_integer():
        raise ValueError("hnf requires integer entries")
    a = [[int(x) for x in row] for row in m.rows]
    nr, nc = m.nrows, m.ncols
    u = [[int(i == j) for j in range(nr)] for i in range(nr)]
    r = 0
    for c in range(nc):
        while True:
            nz = [i for i in range(r, nr) if a[i][c]]
            if not nz:
                pivot_row = None
                break
            if len(nz) == 1:
                pivot_row = nz[0]
                break
            best = min(nz, key=lambda i: (abs(a[i][c]), i))
            for i in nz:
                if i == best:
                    continue
                q = a[i][c] // a[best][c]
                if q:
                    a[i] = [x - q * y for x, y in zip(a[i], a[best])]
                    u[i] = [x - q * y for x, y in zip(u[i], u[best])]
        if pivot_row is None:
            continue
        if pivot_row != r:
            a[r], a[pivot_row] = a[pivot_row], a[r]
            u[r], u[pivot_row] = u[pivot_row], u[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
            u[r] = [-x for x in u[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == nr:
            break
    return QMatrix(a), QMatrix(u)


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in v)


def primitive_direction(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector spanning the same ray as a rational v."""
    fr = [exact(x) for x in v]
    mult = lcm(*(f.denominator for f in fr))
    return primitive([f.numerator * (mult // f.denominator) for f in fr])


class EchelonBasis:
    """Incremental rational row echelon basis; tracks rank as rows arrive."""

    def __init__(self):
        self._rows: list[tuple[int, list[Fraction]]] = []  # (pivot column, row)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, v: Sequence) -> bool:
        """Reduce v against the basis; absorb and return True if independent."""
        vec = [exact(x) for x in v]
        for piv, row in self._rows:
            if vec[piv]:
                f = vec[piv] / row[piv]
                vec = [x - f * y for x, y in zip(vec, row)]
        piv = next((i for i, x in enumerate(vec) if x), None)
        if piv is None:
            return False
        self._rows.append((piv, vec))
        self._rows.sort(key=lambda t: t[0])
        return True
