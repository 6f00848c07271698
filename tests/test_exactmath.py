import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from graphtoric.exactmath import (
    EchelonBasis,
    det,
    gf2_echelon,
    hnf,
    integer_det,
    integer_rank,
    inverse,
    primitive,
    primitive_direction,
)
from graphtoric.cli import AnalysisReport, analyze_graph
from graphtoric.graph_core import multi_theta
from graphtoric.lattice_fan import Fan, Lattice, is_lattice_point, map_fan
from graphtoric.polytope import HPolytope, contains
from helpers import (cofactor_det, fraction_calls, gauss_rank, gauss_rref, gf2_rank, identity,
                     matmul)

F = Fraction


@pytest.mark.parametrize(
    "call",
    [
        lambda: is_lattice_point((0.5, 0), Lattice(2, 1, ((1, 0), (0, 1)))),
        lambda: HPolytope.from_inequalities(3, [((0.5, 0, 0), 1)]),
        lambda: contains(HPolytope.from_inequalities(3, [((1, 0, 0), 1)]), (0.1, 0, 0)),
        lambda: AnalysisReport.from_json(
            analyze_graph(multi_theta(2))[0].to_json().replace('"1/2"', "0.5")
        ),
        lambda: primitive_direction((0.5, 1)),
        lambda: det([[0.5]]),
        lambda: inverse([[1, 0], [0, 0.5]]),
        lambda: hnf([[1, 2], [3, 0.5]]),
        lambda: map_fan(Fan(2, ((1, 0), (0, 1)), ((0, 1),)), [[0.5, 0], [0, 1]]),
    ],
    ids=[
        "is_lattice_point", "from_inequalities", "contains", "from_json", "primitive_direction",
        "det", "inverse", "hnf", "map_fan",
    ],
)
def test_entry_points_reject_floats(call):
    with pytest.raises(TypeError, match="floating point"):
        call()


@pytest.mark.parametrize(
    "fn, rows",
    [
        (det, []),
        (det, [[1, 2], [3]]),
        (det, [[1, 2, 3], [4, 5, 6]]),
        (inverse, []),
        (inverse, [[1, 2], [3]]),
        (inverse, [[1, 2, 3], [4, 5, 6]]),
        (hnf, [[1, 2], [3]]),
    ],
    ids=[
        "det-empty", "det-ragged", "det-non_square",
        "inverse-empty", "inverse-ragged", "inverse-non_square", "hnf-ragged",
    ],
)
def test_matrix_entry_points_reject_bad_shapes(fn, rows):
    with pytest.raises(ValueError):
        fn(rows)


class TestDeterminant:
    def test_known(self):
        assert det([[2, 0], [0, 3]]) == 6
        assert det([[1, 2], [2, 4]]) == 0

    def test_rational_entries(self):
        assert det([[F(1, 2), 0], [0, F(1, 3)]]) == F(1, 6)

    def test_row_swap_changes_sign(self):
        m = [[3, 1, 4], [1, 5, 9], [2, 6, 5]]
        swapped = [m[1], m[0], m[2]]
        assert det(m) == -det(swapped)

    def test_empty_matrix(self):
        # the empty product: a 0 by 0 matrix has determinant 1
        assert integer_det([]) == 1


class TestInverse:
    def test_round_trip(self):
        m = [[2, 1], [1, 1]]
        assert matmul(m, inverse(m)) == identity(2)

    def test_singular_raises(self):
        with pytest.raises(ValueError):
            inverse([[1, 1], [1, 1]])

    def test_rational_entries(self):
        # rows scaled by 6 and 4 before the elimination, columns scaled back
        rows = [[F(1, 2), F(1, 3)], [F(1, 4), 1]]
        rref, _ = gauss_rref([rows[0] + [1, 0], rows[1] + [0, 1]])
        assert inverse(rows) == tuple(tuple(row[2:]) for row in rref)

    def test_integer_inverse_builds_few_fractions(self):
        # the elimination runs in integers; only scaling the rows and
        # building the n^2 entries of the result make Fractions
        m = [[2, 1, 0, 0, 3, 1], [1, 3, 1, 0, 0, 2], [0, 1, 4, 1, 0, 0],
             [5, 0, 1, 2, 1, 0], [0, 2, 0, 1, 3, 1], [1, 0, 2, 0, 1, 4]]
        assert det(m) != 0
        assert fraction_calls(inverse, m) <= 2 * 6 ** 2


class TestIntegerRank:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_gauss_rank(self, seed):
        # 0 to 7 rows of 1 to 6 entries: empty, tall, wide and square, often
        # rank-deficient, as some rows are combinations of others or a
        # column is zero
        rng = random.Random(seed)
        nrows, ncols = seed % 8, rng.randint(1, 6)
        rows = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
        if nrows >= 3 and seed % 2:
            rows[-1] = [2 * x - 3 * y for x, y in zip(rows[0], rows[1])]
        if seed % 3 == 0:
            for row in rows:
                row[rng.randrange(ncols)] = 0
        assert integer_rank(rows) == gauss_rank(rows)


class TestHnf:
    def test_gcd_of_two_rows(self):
        h, u = hnf([[2, 0], [0, 2], [1, 1]])
        nonzero = [r for r in h if any(r)]
        assert nonzero == [(1, 1), (0, 2)]
        assert matmul(u, [[2, 0], [0, 2], [1, 1]]) == h

    def test_pivots_positive_and_reduced(self):
        h, _ = hnf([[4, 7], [2, 3]])
        rows = [r for r in h if any(r)]
        # pivot of each row positive; entries above it reduced into [0, pivot)
        pivots = []
        for r in rows:
            c = next(i for i, x in enumerate(r) if x)
            assert r[c] > 0
            pivots.append((c, r[c]))
        for ri, r in enumerate(rows):
            for c, p in pivots[ri + 1 :]:
                assert 0 <= r[c] < p

    def test_rejects_non_integer(self):
        with pytest.raises(ValueError):
            hnf([[F(1, 2)]])

    def test_half_lattice_basis(self):
        # doubled generators of the genus-2 lattice
        h, _ = hnf([[2, 0, 0], [0, 2, 0], [0, 0, 2], [1, 1, 1]])
        assert [r for r in h if any(r)] == [(1, 1, 1), (0, 2, 0), (0, 0, 2)]


class TestPrimitive:
    def test_primitive(self):
        assert primitive((4, -6, 2)) == (2, -3, 1)

    def test_primitive_direction_clears_denominators(self):
        assert primitive_direction((F(1, 2), F(-3, 4))) == (2, -3)

    def test_sign_preserved(self):
        assert primitive_direction((F(-1, 2), 0)) == (-1, 0)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            primitive((0, 0))


class TestEchelonBasis:
    def test_incremental_rank(self):
        b = EchelonBasis()
        assert b.add((1, 0, 0))
        assert b.add((1, 1, 0))
        assert not b.add((3, 2, 0))
        assert b.rank == 2


class TestGf2Echelon:
    @pytest.mark.parametrize("seed", range(20))
    def test_reduced_echelon_of_random_masks(self, seed):
        rng = random.Random(seed)
        width = rng.randint(1, 40)
        masks = [rng.getrandbits(width) & rng.getrandbits(width) for _ in range(rng.randint(0, 30))]
        self._check(masks, width)

    @pytest.mark.parametrize("masks", [[], [0], [0, 0, 0]])
    def test_empty_and_zero_input(self, masks):
        assert gf2_echelon(masks) == {}
        self._check(masks, 1)

    def _check(self, masks, width):
        echelon = gf2_echelon(masks)
        pivots = list(echelon)
        assert len(set(pivots)) == len(pivots)
        for pivot, mask in echelon.items():
            assert mask & -mask == 1 << pivot
            assert not any(other >> pivot & 1 for q, other in echelon.items() if q != pivot)
        assert len(echelon) == gf2_rank([_bit_vector(m, width) for m in masks])
        # the basis lies in the span of the masks, so the spans are equal
        union = masks + list(echelon.values())
        assert gf2_rank([_bit_vector(m, width) for m in union]) == len(echelon)


def _bit_vector(mask, width):
    return [mask >> i & 1 for i in range(width)]


# ---------------------------------------------------------------------------
# Oracle agreement (differently-pivoted Gaussian elimination, cofactor det)
# ---------------------------------------------------------------------------

int_entries = st.integers(min_value=-5, max_value=5)


@st.composite
def square_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    return [
        [draw(int_entries) for _ in range(n)] for _ in range(n)
    ]


@st.composite
def rect_matrices(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_n))
    return [[draw(int_entries) for _ in range(m)] for _ in range(n)]


@settings(deadline=None)
@given(square_matrices())
def test_det_matches_cofactor_oracle(rows):
    assert det(rows) == cofactor_det(rows)


@settings(deadline=None)
@given(square_matrices())
def test_integer_det_matches_cofactor_oracle(rows):
    assert integer_det([row[:] for row in rows]) == cofactor_det(rows)


@settings(deadline=None)
@given(square_matrices(max_n=5))
def test_inverse_exactly_when_nonsingular(rows):
    n = len(rows)
    # the right block of the reduced m | I, by largest-absolute-value pivots
    rref, pivots = gauss_rref([row + [int(i == j) for j in range(n)] for i, row in enumerate(rows)])
    if det(rows) == 0:
        assert pivots[:n] != list(range(n))
        with pytest.raises(ValueError):
            inverse(rows)
    else:
        assert all(type(x) is Fraction for row in inverse(rows) for x in row)
        assert matmul(rows, inverse(rows)) == identity(n)
        assert inverse(rows) == tuple(tuple(row[n:]) for row in rref)


@settings(deadline=None)
@given(rect_matrices(max_n=5))
def test_hnf_identities(rows):
    h, u = hnf(rows)
    assert all(type(x) is int for row in h + u for x in row)
    assert matmul(u, rows) == h
    assert abs(det(u)) == 1
    # same row space over the rationals
    assert gauss_rank(rows) == gauss_rank([list(r) for r in h])
    assert gauss_rank(rows) == gauss_rank([list(r) for r in rows] + [list(r) for r in h])


@settings(deadline=None)
@given(square_matrices(max_n=5))
def test_hnf_det_relation(rows):
    h, u = hnf(rows)
    assert det(u) * det(rows) == det(h)
