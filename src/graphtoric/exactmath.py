"""Exact rational linear algebra for small dense matrices.

A matrix is a sequence of rows, each a sequence of ints or Fractions.
Everything runs on fractions.Fraction and Python integers, so results are
bit-for-bit reproducible across platforms; floating point input is
rejected outright.  A rational vector becomes integers in one place,
scaled, which multiplies it by the lcm of its denominators.  det, rank
and inverse (of rows so scaled) share one fraction-free Gauss-Jordan
elimination over Z, fraction_free_reduce, with deterministic pivoting
(first nonzero entry, smallest row index); inverse returns Fraction rows.
hnf returns a row-style Hermite normal form together with its unimodular
transform as integer rows, both read off the reduced rows of m | I.  Over
GF(2), vectors are bitmasks, and gf2_echelon gives a span's reduced
echelon basis."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from typing import Iterable, Sequence


def exact(x) -> Fraction:
    """x as a Fraction, x itself if it is one; floats are refused as inexact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise TypeError("floating point values are not allowed; pass int or Fraction")
    return Fraction(x)


def _matrix(m: Sequence[Sequence], square: bool = False) -> tuple[list[int], list[list[int]]]:
    """A rational matrix, given by its rows, as (scales, rows scaled to
    integers) by scaled.  TypeError on a float; ValueError on an empty,
    ragged or (if square is asked) non-square matrix."""
    pairs = [scaled(row) for row in m]
    width = len(pairs[0][1]) if pairs else 0
    if not width or any(len(row) != width for _, row in pairs):
        raise ValueError("matrix must be nonempty, with rows of equal length")
    if square and len(pairs) != width:
        raise ValueError("matrix must be square")
    return [k for k, _ in pairs], [row for _, row in pairs]


def det(m: Sequence[Sequence]) -> Fraction:
    """Exact determinant of a square rational matrix given by its rows:
    rows scaled to integers, then integer_det."""
    scales, rows = _matrix(m, square=True)
    return Fraction(integer_det(rows), prod(scales))


def fraction_free_reduce(a: list[list[int]]) -> tuple[list[int], int, int]:
    """Fraction-free Gauss-Jordan elimination of an integer matrix, in
    place; returns (pivot columns, sign of the row swaps, last pivot p).

    Column by column, the first row at or below the next pivot row with a
    nonzero entry there becomes the pivot row (a column with none is
    skipped), and every other row becomes (p*row - f*pivot row) / p', f
    its entry in the column and p' the previous pivot (1 at first).  Every
    division is exact in Z (Bareiss; Nakos, Turner and Williams): each
    entry stays a minor of the input.  A nonsingular A | B ends as
    p*I | p*inv(A)*B, with sign*p = det A."""
    pivots, sign, prev = [], 1, 1
    for c in range(len(a[0]) if a else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(a)) if a[i][c]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        top, p = a[r], a[r][c]
        for i, row in enumerate(a):
            if i != r:
                f = row[c]
                a[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
        pivots.append(c)
        prev = p
    return pivots, sign, prev


def integer_det(a: list[list[int]]) -> int:
    """Determinant of a square integer matrix (1 if 0 by 0).  Overwrites a."""
    pivots, sign, p = fraction_free_reduce(a)
    return sign * p if len(pivots) == len(a) else 0


def integer_rank(vectors: Iterable[Sequence[int]]) -> int:
    """Rank over Q of some integer vectors, by fraction_free_reduce."""
    return len(fraction_free_reduce([list(v) for v in vectors])[0])


def inverse(m: Sequence[Sequence]) -> tuple[tuple[Fraction, ...], ...]:
    """Exact inverse of a square rational matrix given by its rows, as
    Fraction rows; ValueError if it is singular.  With rows scaled, k*m | I
    reduces to p*I | p*inv(k*m), and inv(m) is inv(k*m) times diag(k)."""
    scales, rows = _matrix(m, square=True)
    n = len(rows)
    a = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    pivots, _, p = fraction_free_reduce(a)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x * k, p) for x, k in zip(row[n:], scales)) for row in a)


def hnf(m: Sequence[Sequence]) -> tuple[tuple[tuple[int, ...], ...], tuple[tuple[int, ...], ...]]:
    """Row-style Hermite normal form H of an integer matrix given by its
    rows, with U*m = H; both are returned as integer rows.

    H has the shape of m with its zero rows at the bottom; every pivot is
    positive, entries above a pivot are reduced into [0, pivot), and U is
    unimodular (det +-1).  Pivoting is deterministic: smallest absolute
    value first, ties broken by row index.  The row operations run on the
    rows of m | I, whose left block ends as H and right block as U.
    """
    scales, rows = _matrix(m)
    if any(k != 1 for k in scales):
        raise ValueError("hnf requires integer entries")
    nr, nc = len(rows), len(rows[0])
    a = [row + [int(i == j) for j in range(nr)] for i, row in enumerate(rows)]
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
        if pivot_row is None:
            continue
        a[r], a[pivot_row] = a[pivot_row], a[r]
        if a[r][c] < 0:
            a[r] = [-x for x in a[r]]
        p = a[r][c]
        for i in range(r):
            q = a[i][c] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[r])]
        r += 1
        if r == nr:
            break
    return tuple(tuple(row[:nc]) for row in a), tuple(tuple(row[nc:]) for row in a)


def scaled(v: Sequence) -> tuple[int, list[int]]:
    """(k, k*v) for a rational vector v, k the lcm of its denominators: the
    least positive k that makes k*v integer."""
    fr = [exact(x) for x in v]
    k = lcm(*(f.denominator for f in fr))
    return k, [f.numerator * (k // f.denominator) for f in fr]


def primitive(v: Sequence[int]) -> tuple[int, ...]:
    """Divide a nonzero integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise ValueError("the zero vector has no primitive form")
    return tuple(x // g for x in v)


def primitive_direction(v: Sequence) -> tuple[int, ...]:
    """Primitive integer vector spanning the same ray as a rational v."""
    return primitive(scaled(v)[1])


def gf2_echelon(masks: Iterable[int]) -> dict[int, int]:
    """The reduced GF(2) echelon basis of the span of some bitmasks, as
    pivot -> mask: the pivot is the mask's lowest set bit, and every other
    mask of the basis is clear there.  The form is unique to the span."""
    echelon: dict[int, int] = {}
    for mask in masks:
        for pivot, other in echelon.items():
            if mask >> pivot & 1:
                mask ^= other
        if mask:
            pivot = (mask & -mask).bit_length() - 1
            echelon = {q: m ^ mask if m >> pivot & 1 else m for q, m in echelon.items()}
            echelon[pivot] = mask
    return echelon


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
