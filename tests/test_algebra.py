import copy
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from functools import reduce
from itertools import count
from pathlib import Path
from random import Random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from matshare import algebra
from matshare.algebra import (
    BinaryVector,
    Matrix,
    Vector,
    _eliminate_mod,
    _fold_plan,
    _folder,
    _garner,
    _inverse_parts,
    _lift,
    _prime,
    _to_words,
    _uniform,
    chain_product,
    determinant,
    freivalds_screen,
    freivalds_verify,
    is_invertible,
    mat_mul,
    mat_vec_mul,
    matrix_rank,
    sample_check_vector,
    sample_invertible_matrix,
    sample_matrix,
    solve_integer,
)
from matshare.errors import SingularMatrix

from oracles import (
    balanced_crt,
    eliminate_mod,
    fraction_inverse,
    freivalds_chain_trials,
    freivalds_trials,
    mat_rows,
    minor_rank,
    naive_det,
    naive_matvec,
    naive_mul,
    weight_ge2_vectors,
)

A = Matrix([[1, 1], [0, 1]])
B = Matrix([[1, 0], [1, 1]])


def rand_matrix(r, rng, lo=-9, hi=9):
    return Matrix([[rng.randint(lo, hi) for _ in range(r)] for _ in range(r)])


# ---------------------------------------------------------------------------
# mat_mul
# ---------------------------------------------------------------------------

def test_mat_mul_identity():
    m = Matrix([[5, 7], [11, 13]])
    assert mat_mul(Matrix.identity(2), m) == m


def test_mat_mul_matches_naive_oracle():
    got = mat_mul(A, B)
    assert mat_rows(got) == naive_mul(mat_rows(A), mat_rows(B))
    assert got == Matrix([[2, 1], [1, 1]])


def test_mat_mul_associative_over_seeded_triples():
    rng = Random(7)
    for _ in range(100):
        a, b, c = (rand_matrix(5, rng) for _ in range(3))
        assert mat_mul(mat_mul(a, b), c) == mat_mul(a, mat_mul(b, c))


def test_mat_mul_identity_both_sides():
    rng = Random(11)
    for _ in range(20):
        a = rand_matrix(4, rng)
        eye = Matrix.identity(4)
        assert mat_mul(eye, a) == a
        assert mat_mul(a, eye) == a


def test_mat_mul_integer_closure():
    rng = Random(13)
    for _ in range(50):
        product = mat_mul(rand_matrix(3, rng), rand_matrix(3, rng))
        assert all(type(x) is int for row in product.rows for x in row)


def test_mat_mul_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_mul(A, Matrix.identity(3))


def _extreme_matrix(r, w, sign, rng):
    """An r x r matrix whose widest entry has exactly w bits.

    sign 1 or -1 fills every entry with sign * (2^w - 1); sign 0 mixes
    -(2^w - 1), 2^w - 1, -2^(w-1), 0 and 1.
    """
    if w == 0:
        return Matrix([[0] * r for _ in range(r)])
    top = (1 << w) - 1
    if sign:
        return Matrix([[sign * top] * r for _ in range(r)])
    pool = (-top, top, -(1 << w - 1), 0, 1)
    rows = [[rng.choice(pool) for _ in range(r)] for _ in range(r)]
    rows[0][0] = -top
    return Matrix(rows)


@pytest.mark.parametrize(
    "signs", [(0, 0), (1, 1), (1, -1), (-1, -1)], ids=["mixed", "plus-plus", "plus-minus", "minus-minus"]
)
@pytest.mark.parametrize("r", [1, 2, 33, 40])
@pytest.mark.parametrize("size", [1, 8, 9, 17])
def test_mat_mul_at_slot_size_boundaries(size, r, signs):
    # widths at the top of a slot size's range, and at its bottom where
    # r allows: all entries +-(2^w - 1) of one sign bring the products
    # nearest the slot's half, where a slot one byte short would overflow
    rng = Random(size * 100 + r)
    for total in {8 * size - 1, max(8 * size - 8, r.bit_length())}:
        widths = total - r.bit_length()
        wa, wb = widths // 2, widths - widths // 2
        a = _extreme_matrix(r, wa, signs[0], rng)
        b = _extreme_matrix(r, wb, signs[1], rng)
        assert (wa + wb + r.bit_length()) // 8 + 1 == size
        assert mat_rows(mat_mul(a, b)) == naive_mul(mat_rows(a), mat_rows(b))
        assert mat_rows(mat_mul(b, a)) == naive_mul(mat_rows(b), mat_rows(a))


@pytest.mark.parametrize("r", [1, 2, 33, 40])
def test_mat_mul_with_all_zero_factors(r):
    zero = Matrix([[0] * r for _ in range(r)])
    m = rand_matrix(r, Random(r), lo=-(1 << 70), hi=1 << 70)
    assert mat_mul(zero, zero) == mat_mul(zero, m) == mat_mul(m, zero) == zero


# ---------------------------------------------------------------------------
# mat_vec_mul
# ---------------------------------------------------------------------------

def test_mat_vec_identity():
    v = Vector([1, 0, 1])
    assert mat_vec_mul(Matrix.identity(3), v) == v


def test_mat_vec_matches_naive_oracle():
    got = mat_vec_mul(A, Vector([1, 1]))
    assert list(got.entries) == naive_matvec(mat_rows(A), [1, 1])
    assert got == Vector([2, 1])


def test_mat_vec_zero_vector():
    assert mat_vec_mul(Matrix([[2, 0], [0, 2]]), Vector([0, 0])) == Vector([0, 0])


def test_mat_vec_accepts_binary_vectors():
    # a check vector is a Vector, yet never equal to a plain one
    assert isinstance(BinaryVector([0, 1]), Vector)
    assert Vector([1, 1]) != BinaryVector([1, 1])
    assert mat_vec_mul(A, BinaryVector([1, 1])) == Vector([2, 1])
    with pytest.raises(TypeError):
        mat_vec_mul(A, [1, 1])


def test_mat_vec_dimension_mismatch():
    with pytest.raises(ValueError):
        mat_vec_mul(A, Vector([1, 2, 3]))


# ---------------------------------------------------------------------------
# _inverse_parts / is_invertible / determinant
# ---------------------------------------------------------------------------

def checked_inverse_parts(m):
    """_inverse_parts(m), after checking num*m == m*num == den*I and num/den
    against the Fraction Gauss-Jordan oracle."""
    num, den = _inverse_parts(m)
    scaled = Matrix([[den * int(i == j) for j in range(m.dim)] for i in range(m.dim)])
    assert mat_mul(Matrix(num), m) == mat_mul(m, Matrix(num)) == scaled
    assert [[Fraction(x, den) for x in row] for row in num] == fraction_inverse(mat_rows(m))
    return num, den


def test_inverse_identity():
    eye = Matrix.identity(4)
    assert checked_inverse_parts(eye) == (mat_rows(eye), 1)


def test_inverse_unipotent():
    num, den = checked_inverse_parts(A)
    assert [[Fraction(x, den) for x in row] for row in num] == [[1, -1], [0, 1]]


def test_inverse_singular_raises():
    singular = Matrix([[1, 1], [1, 1]])
    assert _inverse_parts(singular) == (None, 0)
    assert fraction_inverse(mat_rows(singular)) is None
    with pytest.raises(SingularMatrix):
        solve_integer(singular, Matrix.identity(2), 1)


def test_inverse_two_sided_over_seeded_matrices():
    rng = Random(23)
    checked = 0
    while checked < 60:
        m = rand_matrix(rng.randrange(1, 6), rng)
        if not is_invertible(m):
            continue
        checked_inverse_parts(m)
        checked += 1


def test_inverse_of_rational_matrix():
    # a rational matrix is refused; its inverse comes from its integer scaling
    rational = [[Fraction(1, 2), 0], [0, 3]]
    with pytest.raises(TypeError, match="Fraction"):
        Matrix(rational)
    num, den = checked_inverse_parts(Matrix([[1, 0], [0, 6]]))
    assert [[Fraction(2 * x, den) for x in row] for row in num] == [[2, 0], [0, Fraction(1, 3)]]
    assert fraction_inverse(rational) == [[2, 0], [0, Fraction(1, 3)]]


def test_is_invertible_trivials():
    assert is_invertible(Matrix.identity(2))
    assert not is_invertible(Matrix([[1, 1], [1, 1]]))
    # determinant 1 by cofactor expansion
    assert naive_det(mat_rows(A)) == 1
    assert is_invertible(A)
    # determinant residue zero modulo the first solver prime: settled by Bareiss
    assert is_invertible(Matrix([[_prime(0), 0], [0, 1]]))


def test_determinant_matches_leibniz_oracle():
    rng = Random(31)
    for _ in range(80):
        m = rand_matrix(rng.randrange(1, 6), rng)
        assert determinant(m) == naive_det(mat_rows(m))


def test_determinant_of_rational_matrix():
    # a rational matrix is refused; det(2R) == 2^2 det(R) for its integer scaling
    rational = [[Fraction(1, 2), 1], [1, 4]]
    with pytest.raises(TypeError, match="Fraction"):
        Matrix(rational)
    assert naive_det(rational) == Fraction(1, 2) * 4 - 1
    assert determinant(Matrix([[1, 2], [2, 8]])) == 2 ** 2 * naive_det(rational)


def test_swap_matrix_has_determinant_minus_one():
    swap = Matrix([[0, 1], [1, 0]])
    assert determinant(swap) == -1
    assert checked_inverse_parts(swap) == (mat_rows(swap), 1)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [2, 4, 7], [3, 6, 1]],  # second pivot column is all zero
        [[1, 2, 3], [4, 5, 6], [7, 8, 9]],  # last pivot vanishes
    ],
)
def test_pivot_vanishing_partway_means_singular(rows):
    m = Matrix(rows)
    assert naive_det(rows) == 0
    assert determinant(m) == 0
    assert not is_invertible(m)
    assert _inverse_parts(m) == (None, 0)
    assert matrix_rank(rows) == 2


def _rank_cases():
    cases = [
        [[0, 1], [1, 0], [1, 1]],  # zero leading pivot forces a swap
        [[0, 0, 1], [0, 2, 3]],  # all-zero leading column
        [[0, 0], [0, 0]],
    ]
    rng = Random(41)
    for _ in range(60):
        n_rows, n_cols = rng.randint(1, 4), rng.randint(1, 5)
        rows = [[rng.randint(-3, 3) for _ in range(n_cols)] for _ in range(n_rows)]
        if n_rows >= 3 and rng.random() < 0.5:
            # rank deficiency: one row is a combination of two others
            rows[-1] = [2 * x - y for x, y in zip(rows[0], rows[1])]
        if rng.random() < 0.3:
            zero = rng.randrange(n_cols)
            for row in rows:
                row[zero] = 0
        cases.append(rows)
    return cases


def test_matrix_rank_matches_minor_oracle():
    for rows in _rank_cases():
        assert matrix_rank(rows) == minor_rank(rows), rows


@pytest.mark.parametrize("rows", [[[1, 2], [3]], [[1], [2, 3]], [[1, 2], [3, 4], []]])
def test_matrix_rank_refuses_ragged_rows(rows):
    with pytest.raises(ValueError, match="same length"):
        matrix_rank(rows)


# ---------------------------------------------------------------------------
# solve_integer
# ---------------------------------------------------------------------------

SEEDED = settings(max_examples=60, deadline=None, derandomize=True)


def square(r, entries):
    return st.lists(st.lists(entries, min_size=r, max_size=r), min_size=r, max_size=r).map(Matrix)


@st.composite
def nonsingular_and_solution(draw, entries=st.integers(-9, 9), solution=st.integers(-1000, 1000)):
    r = draw(st.integers(1, 8))
    a = draw(square(r, entries))
    assume(determinant(a) != 0)
    return a, draw(square(r, solution))


@SEEDED
@given(nonsingular_and_solution())
def test_solve_integer_recovers_integer_solution(case):
    a, z = case
    assert solve_integer(a, mat_mul(z, a), 1000) == z


def rational_solution(a, rhs):
    """rhs * a^-1 from the Bareiss inverse parts, or None when it is not integral."""
    num, den = _inverse_parts(a)
    scaled = mat_mul(rhs, Matrix(num))
    integral = all(x % den == 0 for row in scaled.rows for x in row)
    return Matrix([[x // den for x in row] for row in scaled.rows]) if integral else None


@SEEDED
@given(st.data())
def test_solve_integer_matches_rational_inverse(data):
    a, rhs = data.draw(nonsingular_and_solution(solution=st.integers(-50, 50)))
    expected = rational_solution(a, rhs)
    # Z = rhs * num / den with den a nonzero integer, so no entry of Z exceeds max |rhs * num|
    limit = max(abs(x) for row in mat_mul(rhs, Matrix(_inverse_parts(a)[0])).rows for x in row)
    assert solve_integer(a, rhs, limit) == expected


@SEEDED
@given(st.data())
def test_solve_integer_singular_raises(data):
    r = data.draw(st.integers(2, 8))
    rows = [list(row) for row in data.draw(square(r, st.integers(-9, 9))).rows]
    i, j = data.draw(st.permutations(range(r)))[:2]
    c = data.draw(st.integers(-3, 3))
    rows[i] = [c * x for x in rows[j]]
    with pytest.raises(SingularMatrix):
        solve_integer(Matrix(rows), data.draw(square(r, st.integers(-9, 9))), 1)


@SEEDED
@given(nonsingular_and_solution())
def test_solve_integer_skips_primes_dividing_the_determinant(case):
    # det(a) is a multiple of the first two solver primes, so both residues vanish
    m, z = case
    a = Matrix([[_prime(0) * _prime(1) * x for x in m.rows[0]], *m.rows[1:]])
    assert solve_integer(a, mat_mul(z, a), 1000) == z


@SEEDED
@given(
    nonsingular_and_solution(
        solution=st.builds(lambda m, s: s * m, st.integers(2**120, 2**130), st.sampled_from((-1, 1)))
    )
)
def test_solve_integer_combines_many_primes_with_signs(case):
    a, z = case
    assert solve_integer(a, mat_mul(z, a), 2**130) == z


def test_solve_integer_refuses_a_wrong_lift_within_the_limit():
    # Z = [[1, -1/2], [0, 0]] is not integral: its -1/2 lifts to (p - 1) / 2,
    # within a limit of 2^64, so only the exact check Z*a == rhs refuses it
    a = Matrix([[1, 0], [2, -2]])
    assert solve_integer(a, Matrix([[0, 1], [0, 0]]), 2**64) is None


def test_certificate_refuses_every_one_entry_change():
    # a change of +-1 or +-2^64 in any entry of rhs leaves no integral Z;
    # every lift before the solve passes twice the limit of 2^100 is within
    # it, so each is refused by the exact check Z*a == rhs, and the true
    # rhs passes
    rng = Random(19)
    r = 5
    a = Matrix([[rng.randrange(-(2**40), 2**40) for _ in range(r)] for _ in range(r)])
    z = Matrix([[rng.randrange(-(2**20), 2**20) for _ in range(r)] for _ in range(r)])
    rhs = mat_mul(z, a)
    assert solve_integer(a, rhs, 2**100) == z
    for i in range(r):
        for j in range(r):
            for change in (1, -1, 1 << 64, -(1 << 64)):
                rows = [list(row) for row in rhs.rows]
                rows[i][j] += change
                assert solve_integer(a, Matrix(rows), 2**100) is None


BOUNDED_A = Matrix([[2, 1, 0], [1, 3, 1], [0, 1, 4]])


def z_at(limit):
    """A 3x3 integer matrix whose largest absolute entry is exactly `limit`, met with both signs."""
    return Matrix([[limit, -limit, 0], [limit // 2, 1 % (limit + 1), -(limit // 3)], [0, limit, -limit]])


@pytest.mark.parametrize(
    "limit",
    [0, 1, 7, 2**29, (_prime(0) - 1) // 2, (_prime(0) + 1) // 2, _prime(0) * _prime(1) // 2, 2**100],
)
def test_bounded_solve_finds_z_at_the_limit_and_refuses_limit_plus_one(limit):
    # (p - 1) / 2 is the widest Z one prime can certify; (p + 1) / 2 and
    # p*q / 2 need the next prime to pass twice the limit
    z = z_at(limit)
    assert solve_integer(BOUNDED_A, mat_mul(z, BOUNDED_A), limit) == z
    beyond = z_at(limit + 1)
    assert solve_integer(BOUNDED_A, mat_mul(beyond, BOUNDED_A), limit) is None
    assert solve_integer(BOUNDED_A, mat_mul(beyond, BOUNDED_A), limit + 1) == beyond


def test_bounded_solve_refuses_a_negative_limit():
    with pytest.raises(ValueError, match="limit"):
        solve_integer(Matrix.identity(2), Matrix.identity(2), -1)


@SEEDED
@given(st.data())
def test_bounded_solve_matches_the_rational_inverse(data):
    # the bounded solve returns rhs * a^-1 when it is integral and every
    # entry is within the limit, and None otherwise; rhs is sometimes off
    # by one entry, so that Z is not integral or lies elsewhere
    a, z = data.draw(nonsingular_and_solution(solution=st.integers(-(2**70), 2**70)))
    rows = [list(row) for row in mat_mul(z, a).rows]
    if data.draw(st.booleans()):
        rows[data.draw(st.integers(0, a.dim - 1))][data.draw(st.integers(0, a.dim - 1))] += data.draw(
            st.sampled_from((1, -1))
        )
    rhs = Matrix(rows)
    top = max(abs(x) for row in z.rows for x in row)
    limit = data.draw(st.sampled_from((top, top + 1, max(top - 1, 0), 2 * top, top // 2, 2**200)))
    exact = rational_solution(a, rhs)
    within = exact is not None and max(abs(x) for row in exact.rows for x in row) <= limit
    assert solve_integer(a, rhs, limit) == (exact if within else None)


def test_bounded_solve_stops_once_the_modulus_passes_twice_the_limit(monkeypatch):
    # a tampered rhs at r=16 with 60-bit entries: the solve runs primes
    # until the modulus passes 2 * limit, for a tight limit and for 2^200,
    # and an honest Z costs the same primes under either limit
    rng = Random(9)
    a = Matrix([[rng.randrange(-(2**60), 2**60) for _ in range(16)] for _ in range(16)])
    z = Matrix([[rng.randrange(-(2**40), 2**40) for _ in range(16)] for _ in range(16)])
    limit = 2**40
    honest = mat_mul(z, a)
    tampered = Matrix([[x + (i == j == 3) for j, x in enumerate(row)] for i, row in enumerate(honest.rows)])
    primes = []
    original = algebra._eliminate_mod

    def counting(rows, ncols, p):
        primes.append(p)
        return original(rows, ncols, p)

    monkeypatch.setattr(algebra, "_eliminate_mod", counting)

    def used(rhs, bound):
        primes.clear()
        result = solve_integer(a, rhs, bound)
        return result, list(primes)

    assert used(honest, limit) == used(honest, 2**200)
    assert used(honest, limit)[0] == z
    for bound, primes_needed in ((limit, 2), (2**200, 7)):
        refused, bounded = used(tampered, bound)
        assert refused is None
        assert math.prod(bounded[:-1]) <= 2 * bound < math.prod(bounded)
        assert len(bounded) == primes_needed


def _equal_magnitude_system(r, c, z, signs):
    """(a, Z) with every |a_ij| == c and every |Z_ij| == z, and |rhs[0][0]| == r * z * c.

    a is c times the matrix of 1 on and below the diagonal and -1 above
    it (determinant 2^(r-1)), with rows and columns negated by the signs;
    row 0 of Z takes the signs of column 0 of a, so the r terms of
    rhs[0][0] = sum_l Z[0][l] * a[l][0] all add up.
    """
    flips = [1 - 2 * next(signs) for _ in range(2 * r)]
    a = [[c * (1 if i >= j else -1) * flips[i] * flips[r + j] for j in range(r)] for i in range(r)]
    z_rows = [[z * (1 if a[l][0] > 0 else -1) for l in range(r)]]
    z_rows += [[z * (1 - 2 * next(signs)) for _ in range(r)] for _ in range(r - 1)]
    return Matrix(a), Matrix(z_rows)


def _widest(k):
    """The widest |Z| the first k solver primes lift: (product - 1) / 2."""
    return (math.prod(map(_prime, range(k))) - 1) // 2


@st.composite
def quotient_widths(draw):
    r = draw(st.integers(1, 8))
    if draw(st.booleans()):
        # near the widest Z of k primes, where one prime more or less decides
        k = draw(st.integers(1, 4))
        top = max(0, _widest(k) + draw(st.integers(-3, 3)))
    else:
        top = draw(st.integers(0, 2**130)) >> draw(st.integers(0, 130))
    if draw(st.booleans()):
        c = draw(st.integers(1, 2**40))
        signs = draw(st.lists(st.booleans(), min_size=r * r + 2 * r, max_size=r * r + 2 * r))
        return _equal_magnitude_system(r, c, top, iter(signs))
    bound = 2 ** draw(st.integers(1, 40))
    a = draw(square(r, st.integers(-bound, bound)))
    assume(determinant(a) != 0)
    rows = [list(row) for row in draw(square(r, st.integers(-top, top))).rows]
    rows[draw(st.integers(0, r - 1))][draw(st.integers(0, r - 1))] = draw(st.sampled_from((top, -top)))
    return a, Matrix(rows)


def _primes_to_lift(a, top):
    """The solver primes a solve runs: up to the first at which those not dividing det(a) pass 2 * top."""
    det, modulus = determinant(a), 1
    for i in count():
        if det % _prime(i):
            modulus *= _prime(i)
            if modulus > 2 * top:
                return [_prime(j) for j in range(i + 1)]


# |rhs| = r * |Z| * |a| with each factor's leading bits all ones, so Z has
# exactly the lift floor's bits, 30k - 1, and the k-th prime is the first
# whose modulus has more
TIGHT_FLOOR_SYSTEMS = [
    _equal_magnitude_system(7, 2**m - 1, _widest(k), iter([0, 1] * 40)) for k, m in ((1, 8), (2, 40), (3, 2))
]


@SEEDED
@given(quotient_widths())
@example(TIGHT_FLOOR_SYSTEMS[0])
@example(TIGHT_FLOOR_SYSTEMS[1])
@example(TIGHT_FLOOR_SYSTEMS[2])
def test_solve_runs_the_fewest_primes(case):
    # a prime whose modulus has at most |rhs|'s bits less |a|'s and r's
    # skips the lift: that must never move the prime that certifies Z,
    # the first at which the primes not dividing det(a) pass 2 * max|Z|
    a, z = case
    rhs = mat_mul(z, a)
    top = max(abs(x) for row in z.rows for x in row)
    primes = []
    original = algebra._eliminate_mod

    def counting(rows, ncols, p):
        primes.append(p)
        return original(rows, ncols, p)

    algebra._eliminate_mod = counting
    try:
        for limit in (top, 2**200):
            primes.clear()
            quotient = solve_integer(a, rhs, limit)
            assert quotient == z
            assert primes == _primes_to_lift(a, top)
            assert quotient._bits == algebra._max_bits(quotient.rows)
    finally:
        algebra._eliminate_mod = original


def test_solver_primes_are_the_largest_below_2_to_30():
    def by_trial(m):
        return all(m % d for d in range(2, math.isqrt(m) + 1))

    found = [m for m in range(2**30 - 1, _prime(3) - 1, -1) if by_trial(m)]
    assert found == [_prime(i) for i in range(4)]


def test_import_searches_no_primes():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import matshare.algebra as a; assert a._primes == ()"
    env = dict(os.environ, PYTHONPATH=str(src))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60)


def test_solve_integer_validates_args():
    with pytest.raises(ValueError):
        solve_integer(Matrix.identity(2), Matrix.identity(3), 1)


# ---------------------------------------------------------------------------
# packed kernels against the per-entry loops
# ---------------------------------------------------------------------------

PACKED = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def wide_matrix(draw, r):
    """An r x r matrix of zeros, small, 100-bit or 130-bit entries, signed or not."""
    bits = draw(st.sampled_from((0, 1, 8, 100, 130)))
    lo = -(1 << bits) + 1 if draw(st.booleans()) else 0
    rng = Random(draw(st.integers(0, 2**32)))
    return Matrix([[rng.randint(lo, (1 << bits) - 1) for _ in range(r)] for _ in range(r)])


@PACKED
@given(st.data())
def test_packed_mat_mul_matches_schoolbook(data):
    r = data.draw(st.integers(1, 40))
    a, b = data.draw(wide_matrix(r)), data.draw(wide_matrix(r))
    assert mat_rows(mat_mul(a, b)) == naive_mul(mat_rows(a), mat_rows(b))


#: entry widths next to byte boundaries, where a slot one byte short or a
#: re-pad with the wrong offset would show
NEAR_BYTE_WIDTHS = (0, 1, 7, 8, 9, 15, 16, 17, 31, 32, 33, 63, 64, 65)


@st.composite
def near_byte_matrix(draw, r):
    """An r x r matrix of signed entries up to +-(2^k - 1), k next to a byte boundary.

    The entries are all 2^k - 1 of one sign (the widest products), or mixed
    from -(2^k - 1), 2^k - 1, 0 and random values of at most k bits.
    """
    k = draw(st.sampled_from(NEAR_BYTE_WIDTHS))
    top = (1 << k) - 1
    sign = draw(st.sampled_from((1, -1, 0)))
    if sign:
        return Matrix([[sign * top] * r for _ in range(r)])
    rng = Random(draw(st.integers(0, 2**32)))
    pool = (-top, top, 0, rng.randint(-top, top))
    return Matrix([[rng.choice(pool) for _ in range(r)] for _ in range(r)])


@PACKED
@given(st.data())
def test_chained_products_reuse_their_slots_exactly(data):
    # each product becomes the next right factor, so its cached slots are
    # re-padded to the wider slot the next product needs; a zero factor
    # leaves a product whose slots are wider than the next product needs,
    # which repacks it.  Every product equals the per-entry product.
    r = data.draw(st.integers(1, 6))
    factors = data.draw(st.lists(near_byte_matrix(r), min_size=3, max_size=5))
    acc, expected = factors[0], mat_rows(factors[0])
    for m in factors[1:]:
        acc, expected = mat_mul(m, acc), naive_mul(mat_rows(m), expected)
        assert mat_rows(acc) == expected
    # the last product again as a right factor, behind a wide and a narrow left factor
    for left in (data.draw(near_byte_matrix(r)), Matrix.identity(r)):
        assert mat_rows(mat_mul(left, acc)) == naive_mul(mat_rows(left), expected)


def test_product_slots_are_re_padded_wider_and_repacked_narrower(monkeypatch):
    # a zero product of a 65-bit factor keeps 9-byte slots: a 4-bit left
    # factor needs 1 byte (repacked, and the 1-byte slots are kept), then a
    # 90-bit one needs 12 (re-padded from 1).  A 67-bit product of 9-byte
    # slots is re-padded to 10 and then to 21 bytes.
    r = 4
    wide = Matrix([[(1 << 65) - 1 - i * j for j in range(r)] for i in range(r)])
    zero = mat_mul(wide, Matrix([[0] * r for _ in range(r)]))
    product = mat_mul(Matrix([[1, -1, 0, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 0, 0]]), wide)
    assert zero._slots[0] == 9 and product._slots[0] == 9
    seen = []
    original = algebra._packed_rows

    def spy(m, size):
        seen.append((m._slots[0] if hasattr(m, "_slots") else None, size))
        return original(m, size)

    monkeypatch.setattr(algebra, "_packed_rows", spy)
    small = Matrix([[(-1) ** (i + j) * (i + 2 * j) for j in range(r)] for i in range(r)])
    big = Matrix([[(1 << 90) - 1 if i == j else -(1 << 89) for j in range(r)] for i in range(r)])
    for right in (zero, product):
        for left in (small, big):
            got = mat_mul(left, right)
            assert mat_rows(got) == naive_mul(mat_rows(left), mat_rows(right))
            assert got._slots[0] == seen[-1][1]
    assert seen == [(9, 1), (1, 12), (9, 10), (9, 21)]


def naive_chain(factors):
    """The per-entry product of the factors, left to right."""
    return reduce(naive_mul, map(mat_rows, factors))


@st.composite
def chain_factor(draw, r):
    """An r x r matrix of entries of 1 to 130 bits, signed or not."""
    bits = draw(st.integers(1, 130))
    lo = -(1 << bits) + 1 if draw(st.booleans()) else 0
    rng = Random(draw(st.integers(0, 2**32)))
    return Matrix([[rng.randint(lo, (1 << bits) - 1) for _ in range(r)] for _ in range(r)])


@PACKED
@given(st.data())
def test_mat_mul_of_a_chain_matches_schoolbook(data):
    r = data.draw(st.integers(1, 12))
    factors = data.draw(st.lists(chain_factor(r), min_size=1, max_size=6))
    assert mat_rows(mat_mul(*factors)) == naive_chain(factors)
    assert mat_rows(chain_product(factors)) == naive_chain(factors[::-1])


@pytest.mark.parametrize("signs", [(1,), (-1,), (1, -1)], ids=["plus", "minus", "alternating"])
@pytest.mark.parametrize("r", [1, 2, 3, 7, 8])
@pytest.mark.parametrize("m", range(1, 7))
def test_chain_of_all_top_factors_reaches_its_slot_bound(m, r, signs):
    # factors whose entries all equal +-(2^w - 1) make the widest product
    # entries, r^(m-1) * (2^w - 1)^m; at some widths that entry needs the
    # whole slot, so that a slot one byte short could not hold it
    reached = []
    for w in range(1, 25):
        factors = [Matrix([[signs[i % len(signs)] * ((1 << w) - 1)] * r] * r) for i in range(m)]
        size = (m * w + (m - 1) * r.bit_length()) // 8 + 1
        product = mat_mul(*factors)
        assert mat_rows(product) == naive_chain(factors)
        assert product._slots[0] == size
        reached += [w] * (size > 1 and abs(product.rows[0][0]) >= 1 << 8 * (size - 1) - 1)
    assert reached


def test_mat_mul_needs_a_factor_and_names_every_dimension():
    with pytest.raises(ValueError, match="at least one factor"):
        mat_mul()
    with pytest.raises(ValueError, match="at least one factor"):
        chain_product([])
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 2 vs 3$"):
        mat_mul(A, B, Matrix.identity(3))


def test_a_chain_is_packed_once_and_read_back_once(monkeypatch):
    # only the last factor is packed and only the whole product is read
    # back: no product in between is unpacked or packed again, whether
    # the product's slots are read as 64-bit words (at most 8 bytes) or not
    pack, read_rows = algebra._packed_rows, algebra._read_rows
    monkeypatch.setattr(algebra, "_packed_rows", lambda m, size: packed.append(m) or pack(m, size))
    monkeypatch.setattr(algebra, "_read_rows", lambda data, size, r: read.append(size) or read_rows(data, size, r))
    rng = Random(11)
    for top, words in ((9, True), (1 << 20, False)):
        factors = [rand_matrix(5, rng, -top, top) for _ in range(6)]
        packed, read = [], []
        product = chain_product(factors)
        assert mat_rows(product) == naive_chain(factors[::-1])
        assert len(packed) == 1 and packed[0] is factors[0]
        assert read == [product._slots[0]] and (read[0] <= 8) == words


@pytest.mark.parametrize("r", [1, 5])
@pytest.mark.parametrize("size", range(1, 11))
def test_mat_mul_reads_back_every_slot_size_exactly(size, r):
    # entry widths that make mat_mul choose each slot size from 1 to 10
    # bytes, at the bottom and the top of its range: slots of up to 8
    # bytes are read through 64-bit words, wider ones are not.  All-top
    # factors of alternating sign make all-negative products near the
    # slot's half; mixed factors give both signs and zeros.
    rng = Random(10 * size + r)
    rb = r.bit_length()
    for total in sorted({max(8 * size - 8, rb), 8 * size - 1}):
        wa = (total - rb) // 2
        for signs in ((1, -1), (-1, 1), (0, 0)):
            a = _extreme_matrix(r, wa, signs[0], rng)
            b = _extreme_matrix(r, total - rb - wa, signs[1], rng)
            product = mat_mul(a, b)
            assert product._slots[0] == size
            assert mat_rows(product) == naive_mul(mat_rows(a), mat_rows(b))
    # three all-top factors of alternating sign: a negative product, or 0 at w = 0
    w = max(8 * size - 1 - 2 * rb, 0) // 3
    factors = [_extreme_matrix(r, w, (-1) ** i, rng) for i in range(3)]
    product = mat_mul(*factors)
    assert product._slots[0] == size
    assert mat_rows(product) == naive_chain(factors)


@pytest.mark.parametrize("size", range(1, 11))
def test_read_rows_inverts_the_slot_codec(size):
    # the extremes of a slot, -1, 0 and 1, then random values, r to a row
    half = 1 << 8 * size - 1
    rng = Random(size)
    for r in (1, 5):
        values = [-half, half - 1, -1, 0, 1] + [rng.randrange(-half, half) for _ in range(5 * r - 5)]
        rows = list(algebra._read_rows(algebra._to_slots(values, size), size, r))
        assert rows == [tuple(values[i:i + r]) for i in range(0, 5 * r, r)]


@PACKED
@given(st.data())
def test_widened_slots_read_back_the_values_they_held(data):
    # offset `have`-byte slots moved into the low bytes of wider zeroed
    # slots hold the same values, less the narrow offset: read as one int,
    # as ``_packed_rows`` reads a re-pad, or slot by slot by _read_rows
    have = data.draw(st.integers(1, 10))
    size = data.draw(st.integers(have + 1, 12))
    half = 1 << 8 * have - 1
    value = st.sampled_from((-half, half - 1, -1, 0)) | st.integers(-half, half - 1)
    values = data.draw(st.lists(value, min_size=1, max_size=40))
    n = len(values)
    wide = algebra._widen(algebra._to_slots(values, have), have, size)
    assert len(wide) == n * size
    packed = sum(v << 8 * size * (n - 1 - i) for i, v in enumerate(values))
    assert int.from_bytes(wide, "big") - algebra._offset(have, size, n) == packed
    (row,) = algebra._read_rows(wide, size, n)
    assert [x + (1 << 8 * size - 1) - half for x in row] == values


def test_a_word_read_product_is_re_padded_into_slots_wider_than_a_word(monkeypatch):
    # a product of 3-byte slots with entries of both signs becomes the
    # right factor of products of 13-byte slots: its cached slots are
    # re-padded, not packed again, and read back exactly
    r, rng = 5, Random(5)
    a, b = _extreme_matrix(r, 8, 0, rng), _extreme_matrix(r, 8, 0, rng)
    narrow = mat_mul(a, b)
    expected = naive_mul(mat_rows(a), mat_rows(b))
    assert narrow._slots[0] == 3 and min(map(min, expected)) < 0 < max(map(max, expected))
    seen = []
    original = algebra._packed_rows
    monkeypatch.setattr(algebra, "_packed_rows", lambda m, size: seen.append((m._slots[0], size)) or original(m, size))
    for sign in (1, -1, 0):
        wide = _extreme_matrix(r, 80, sign, rng)
        got = mat_mul(wide, narrow)
        assert mat_rows(got) == naive_mul(mat_rows(wide), expected)
        assert got._slots[0] == 13
    assert seen == [(3, 13)] * 3 and narrow._slots[0] == 3


MOD_P_PRIMES = (2, 3, 257, _prime(0), _prime(4), 2**32 - 5)


@st.composite
def mod_p_system(draw):
    """Rows for _eliminate_mod: r equations of ints, ncols = r coefficients
    first, then 0 or r right-hand columns, often singular mod p.  At
    2^32 - 5 a 64-bit slot takes a single update, so every column renormalises."""
    r = draw(st.integers(1, 40))
    p = draw(st.sampled_from(MOD_P_PRIMES))
    rhs = draw(st.sampled_from((0, r)))
    rng = Random(draw(st.integers(0, 2**32)))
    top = draw(st.sampled_from((p, 2**70)))
    rows = [[rng.randrange(-top, top) for _ in range(r + rhs)] for _ in range(r)]
    shape = draw(st.sampled_from(("random", "repeated row", "zero column")))
    if shape == "repeated row" and r > 1:
        i, j = rng.sample(range(r), 2)
        scale = rng.randrange(p)
        rows[j] = [scale * x for x in rows[i]]
    if shape == "zero column":
        col = rng.randrange(r)
        for row in rows:
            row[col] = p * rng.randrange(-2, 3)
    return rows, r, p


def _slots(row, n):
    """The n 64-bit slots of a packed row, top first."""
    return [row >> 64 * (n - 1 - j) & (1 << 64) - 1 for j in range(n)]


def _residues(solved, rows, ncols, p):
    """An elimination's solved word rows as lists of residues in [0, p); None stays as it is.

    Each solved row must fit the right-hand side's slots, one 64-bit slot
    per column past ncols: no slot may carry past its word, and a row of
    a square system must be 0.
    """
    if solved is None:
        return None
    n = len(rows[0]) - ncols
    assert all(0 <= row < 1 << 64 * n for row in solved)
    return [[x % p for x in _slots(row, n)] for row in solved]


def _same_solution(rows, ncols, p):
    """Whether _eliminate_mod and the per-entry oracle solve the rows to the same residues."""
    return _residues(_eliminate_mod(rows, ncols, p), rows, ncols, p) == _residues(
        eliminate_mod(rows, ncols, p), rows, ncols, p
    )


@PACKED
@given(mod_p_system())
def test_packed_elimination_matches_schoolbook(system):
    rows, ncols, p = system
    held = [list(row) for row in rows]
    assert _same_solution(rows, ncols, p)
    assert rows == held


@pytest.mark.parametrize("m, n", [(1, 1), (1, 5), (3, 1), (4, 6), (32, 64)])
def test_word_codec_keeps_rows_and_slots_in_order(m, n):
    # an elimination's result does not depend on the order of its
    # equations, so only the codec itself shows rows packed out of order
    rng = Random(m * 100 + n)
    values = [rng.choice((0, 1, (1 << 64) - 1, rng.getrandbits(64))) for _ in range(m * n)]
    rows = _to_words(values, n)
    assert rows == [
        sum(x << 64 * (n - 1 - j) for j, x in enumerate(values[i * n:(i + 1) * n])) for i in range(m)
    ]
    assert [x for row in rows for x in _slots(row, n)] == values


def _is_small_prime(m):
    return m > 1 and all(m % d for d in range(2, math.isqrt(m) + 1))


def _edge_primes(k):
    """The smallest prime above 2^(k-1) and the largest below 2^k."""
    up = next(m for m in count((1 << k - 1) + 1) if _is_small_prime(m))
    down = next(m for m in count((1 << k) - 1, -1) if _is_small_prime(m))
    return up, down


# the primes at both ends of every bit length are where the folds lower
# the slot bound least (just above 2^(k-1)) and where p * B(p) comes
# closest to the word (just below 2^32): each must keep a budget of 1 or more
FOLD_PRIMES = tuple(dict.fromkeys(
    MOD_P_PRIMES + (_prime(300),) + sum(map(_edge_primes, range(2, 33)), ())
))


@pytest.mark.parametrize("p", FOLD_PRIMES)
def test_fold_keeps_each_slot_congruent_and_within_the_budget_bound(p):
    rng = Random(p)
    slots = [0, 1, p - 1, p, 1 << 63, (1 << 64) - 1, *(rng.getrandbits(64) for _ in range(26))]
    n = len(slots)
    fold = _folder(p, n)
    _, bound, budget = _fold_plan(p)
    (row,) = _to_words(slots, n)
    folded = _slots(fold(row), n)
    assert all((y - x) % p == 0 for x, y in zip(slots, folded))
    assert max(folded) <= bound
    # the pivot row is scaled by an inverse below p and folded again
    scaled = _slots(fold((p - 1) * _to_words(folded, n)[0]), n)
    assert all((y - x * (p - 1)) % p == 0 for x, y in zip(folded, scaled))
    assert max(scaled) <= bound
    # budget updates of at most p * bound fit in a 64-bit slot; one more may not
    assert bound + budget * p * bound < 2**64 <= bound + (budget + 1) * p * bound


def test_folder_is_made_once_per_prime_and_width():
    p = _prime(0)
    assert _folder(p, 8) is _folder(p, 8)
    assert _folder(p, 8) is not _folder(p, 9)
    assert _folder(p, 8) is not _folder(_prime(1), 8)


def test_solver_primes_fold_three_times_for_a_budget_of_16():
    for p in map(_prime, range(4)):
        folds, bound, budget = _fold_plan(p)
        assert [k for k, _ in folds] == [32, 30, 30]
        assert bound == (1 << 30) - 1 + (1 << 30) % p
        assert budget == 16


# every case at the solver's prime keeps its plain id; True marks the
# systems with right-hand columns, False the square ones
WORD_BUDGET_CASES = [
    pytest.param(p, rhs, id=str(rhs) if p == _prime(0) else f"{p}-{rhs}")
    for p in (_prime(0), _prime(300), 2**31 - 1, 2**32 - 5)
    for rhs in (True, False)
]


@pytest.mark.parametrize("p, rhs", WORD_BUDGET_CASES)
def test_elimination_renormalises_at_the_word_budget(p, rhs):
    # 40 columns pass the solver's prime's budget of 16 updates per slot
    # twice (2^31 - 1 has 4, 2^32 - 5 has 1).  With right-hand columns of
    # p - 1 the coefficients form a permuted diagonal; a square system is
    # a row-permuted upper triangle of p - 1.  Every row below a pivot
    # takes its update with residue 0, so it adds p times the pivot row,
    # the largest factor an update uses, and with right-hand columns so
    # does every row above it.  With right-hand columns a missed fold
    # overflows a slot, and since a diagonal of p - 1 scales each pivot
    # row by p - 1 as well, so does a pivot row left unfolded after
    # scaling, at the next update.  The square cases catch neither: their
    # scaled pivot slots are congruent to 1 or p - 1 and stay below 2^30,
    # too small for 17 updates to pass 2^64, and a square system's result
    # is only its verdict and a zero word per row.  Only the [True] cases,
    # here and in test_elimination_keeps_dead_slots_within_the_word,
    # catch those two.
    r = 40
    perm = Random(11).sample(range(r), r)
    for scale in (1, p - 1):
        if rhs:
            rows = [[scale * (c == perm[i]) for c in range(r)] + [p - 1] * r for i in range(r)]
        else:
            rows = [[scale if c == perm[i] else (p - 1) * (c > perm[i]) for c in range(r)] for i in range(r)]
        assert eliminate_mod(rows, r, p) is not None
        assert _same_solution(rows, r, p)


@pytest.mark.parametrize("rhs", [True, False])
@pytest.mark.parametrize("p", FOLD_PRIMES)
def test_elimination_keeps_dead_slots_within_the_word(p, rhs):
    # every nonzero entry is p - 1, the largest residue, so every slot
    # takes the largest updates; 2 * budget + 1 columns (at most 33, the
    # solver primes' count) cross the fold twice.  With two right-hand
    # columns the coefficients are lower triangular, so each column's
    # pivot updates every row below it; a square system is triangular
    # the other way round (row i from column r - 1 - i on), so each pivot
    # row carries p - 1 in its live slots into the other rows.  A slot
    # that passed 64 bits would carry into the slot above it, a live one
    # into the next pivot's residue and the top live one into the
    # consumed slots, and the result would differ from the oracle's.
    r = min(2 * _fold_plan(p)[2] + 1, 33)
    if rhs:
        rows = [[p - 1 if c <= i else 0 for c in range(r)] + [p - 1] * 2 for i in range(r)]
    else:
        rows = [[p - 1 if c >= r - 1 - i else 0 for c in range(r)] for i in range(r)]
    assert eliminate_mod(rows, r, p) is not None
    assert _same_solution(rows, r, p)


def test_elimination_stays_within_the_word_at_the_fold_bound():
    # at _prime(0) = 2^30 - 35 the plan's three folds bring a slot to at
    # most B = 2^30 + 34, and 16 updates of p times a pivot slot pass 2^64
    # once those pivot slots average more than 2^30 + 35: the budget of 16
    # holds only at B.  The first two folds alone let a scaled pivot slot
    # reach 2^30 + 1364.  The first 16 equations are a diagonal d with
    # right-hand side v, found by search so that each scaled pivot row's
    # right-hand slot ends above 2^30 + 100 after those two folds; the
    # 17th equation takes all 16 updates with residue 0, so each adds p
    # times that slot, and a plan one fold short carries out of the slot
    # and returns a wrong solution.
    p = _prime(0)
    d = [
        497122774, 258749126, 431587737, 624773472, 459266669, 241785909, 297647287, 768889723,
        656099621, 662324790, 316471938, 295085187, 374853800, 760678692, 718476207, 698191479, 1,
    ]
    v = [
        144272509, 909925047, 820096753, 273878287, 817077201, 407608741, 846885253, 225437259,
        100780963, 959191865, 418554019, 464680097, 652231581, 818492001, 2261353, 478230859, 1,
    ]
    r = len(d)
    rows = [[d[i] * (c == i) for c in range(r)] + [v[i]] for i in range(r)]
    assert _same_solution(rows, r, p)


@pytest.mark.parametrize("rhs", [True, False])
def test_pivot_rows_are_masked_below_their_pivot_slot(monkeypatch, rhs):
    # the mask only saves work, so this measures what it saves: with fewer
    # columns than the budget the folds alternate, the masked pivot row in
    # and the scaled pivot row out, and at column c both span at most the
    # n - c - 1 slots below the pivot slot; an unmasked pivot row keeps its
    # nonzero pivot slot and the consumed slots above it
    p, r = _prime(0), 8
    n = 2 * r if rhs else r
    rng = Random(20)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(r)]
    spans = []
    folder = algebra._folder

    def recording(p, slots):
        fold = folder(p, slots)

        def measured(x):
            y = fold(x)
            spans.append((x.bit_length(), y.bit_length()))
            return y

        return measured

    monkeypatch.setattr(algebra, "_folder", recording)
    assert _eliminate_mod(rows, r, p) is not None
    assert len(spans) == 2 * r
    for c in range(r):
        assert spans[2 * c][0] <= 64 * (n - c - 1)
        assert spans[2 * c + 1][1] <= 64 * (n - c - 1)


@pytest.mark.parametrize("p", [2**32 + 15, 2**61 - 1])
def test_elimination_refuses_primes_beyond_the_word(p):
    # from 2^32 on, p^2 exceeds a 64-bit slot: not even one update fits
    with pytest.raises(ValueError):
        _eliminate_mod([[1, 1]], 1, p)


# ---------------------------------------------------------------------------
# balanced mixed-radix digits and the packed lift
# ---------------------------------------------------------------------------

_TOP_SLOT = (1 << 64) - 1


def _packed_lift(slots, primes):
    """Each prime's raw slots as one word int, turned into digits by _garner and lifted by _lift."""
    n = len(slots[0])
    digits = []
    for row, p in zip(slots, primes):
        t = sum(x << 64 * (n - 1 - i) for i, x in enumerate(row))
        digits.append((p, _garner(p, n)(t, digits)))
    return list(_lift(digits, n))


def _raw_slot(z, p, m):
    """A 64-bit slot congruent to z mod p: z's residue plus m times p, m capped to fit the word."""
    x = z % p
    return x + p * min(m, (_TOP_SLOT - x) // p)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_lift_reads_the_balanced_residue_at_its_extremes(k):
    # Z's entries at 0, +-1 and +-(M - 1)/2, the widest Z k primes lift,
    # where every digit is at the balancing threshold p // 2 or one past
    # it; each entry's slots alternate between its residue and the
    # largest slot congruent to it, and the last entry's slots are all
    # 2^64 - 1, whose residues the reference combines entry by entry
    primes = [_prime(i) for i in range(k)]
    half = (math.prod(primes) - 1) // 2
    z = [0, 1, -1, half, -half, half - 1, 1 - half, half // 3, -(half // 7)]
    slots = [
        [_raw_slot(x, p, (i + j) % 2 * _TOP_SLOT) for i, x in enumerate(z)] + [_TOP_SLOT]
        for j, p in enumerate(primes)
    ]
    expected = z + balanced_crt([[_TOP_SLOT % p] for p in primes], primes)
    assert _packed_lift(slots, primes) == expected


@st.composite
def raw_residue_words(draw):
    """(slots, primes): k of the first 8 solver primes, in order, and r^2 raw slots for each.

    Entries are either raw 64-bit slots (often 2^64 - 1) or made from a
    Z entry at 0, +-(M - 1)/2 or anywhere between, as its residue plus a
    multiple of p up to the largest that fits the word.
    """
    r = draw(st.integers(1, 8))
    picked = draw(st.sets(st.integers(0, 7), min_size=1, max_size=5))
    primes = [_prime(i) for i in sorted(picked)]
    half = (math.prod(primes) - 1) // 2
    raw = st.one_of(st.just(_TOP_SLOT), st.integers(0, _TOP_SLOT))
    columns = []
    for _ in range(r * r):
        kind = draw(st.sampled_from(("raw", "zero", "top", "bottom", "any")))
        if kind == "raw":
            columns.append([draw(raw) for _ in primes])
            continue
        z = {"zero": 0, "top": half, "bottom": -half}.get(kind)
        if z is None:
            z = draw(st.integers(-half, half))
        columns.append([_raw_slot(z, p, draw(st.sampled_from((0, 1, _TOP_SLOT)))) for p in primes])
    return [list(row) for row in zip(*columns)], primes


@PACKED
@given(raw_residue_words())
def test_packed_lift_matches_the_per_entry_crt(case):
    slots, primes = case
    expected = balanced_crt([[x % p for x in row] for row, p in zip(slots, primes)], primes)
    assert _packed_lift(slots, primes) == expected


def test_digits_are_made_once_per_prime_and_width_and_refuse_loose_folds():
    p = _prime(0)
    assert _garner(p, 8) is _garner(p, 8)
    assert _garner(p, 8) is not _garner(p, 9)
    # at 257 a fold leaves a slot at up to 766, past 257 + 128: one
    # subtraction of p could not balance it
    with pytest.raises(ValueError):
        _garner(257, 1)


#: a one-entry change to a product: +-1 four times in five, else one far wider than 2^t
PERTURBATION = st.sampled_from((1, -1, 1, -1, 2**130))


@PACKED
@given(st.data())
def test_freivalds_matches_one_vector_oracle(data):
    # the same seed draws the same t-bit vector, so the decisions agree
    # exactly, on signed and wide entries and on wrong products alike.
    # Most products are off by one in one entry and t is 1 to 3, so a
    # wrong product passes often (when u is 0 at that column), and those
    # false accepts must fall on the same seeds as the oracle's
    r = data.draw(st.integers(1, 40))
    a, b = data.draw(wide_matrix(r)), data.draw(wide_matrix(r))
    rows = naive_mul(mat_rows(a), mat_rows(b))
    if data.draw(st.integers(0, 3)):
        rows[data.draw(st.integers(0, r - 1))][data.draw(st.integers(0, r - 1))] += data.draw(PERTURBATION)
    t, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32))
    expected = freivalds_trials(mat_rows(a), mat_rows(b), rows, t, Random(seed))
    assert freivalds_verify(a, b, Matrix(rows), t, seed) is expected


@PACKED
@given(st.data())
def test_chain_screen_matches_shared_trial_oracle(data):
    # chains of 1-5 matrices, each link a candidate's true product or a
    # perturbed one: the screen decides as the shared t-bit vector decides,
    # false accepts included (t is 1 to 3 and most perturbations are +-1)
    r = data.draw(st.integers(1, 16))
    candidates = data.draw(st.lists(wide_matrix(r), min_size=1, max_size=3))
    chain = [data.draw(wide_matrix(r))]
    for _ in range(data.draw(st.integers(0, 4))):
        rows = naive_mul(mat_rows(data.draw(st.sampled_from(candidates))), mat_rows(chain[-1]))
        if data.draw(st.booleans()):
            rows[data.draw(st.integers(0, r - 1))][data.draw(st.integers(0, r - 1))] += data.draw(PERTURBATION)
        chain.append(Matrix(rows))
    t, seed = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 2**32))
    expected = freivalds_chain_trials(
        [mat_rows(m) for m in chain], [mat_rows(c) for c in candidates], t, Random(seed)
    )
    assert freivalds_screen(chain, candidates, t, seed) is expected


@pytest.mark.parametrize("t", [1, 2, 3])
def test_freivalds_false_accepts_match_the_oracle_draw(t):
    # a +1 at (1, 2) is missed exactly when u[2] == 0, which one t-bit draw
    # gives with probability 2^-t: the false accepts themselves must fall
    # on the oracle's seeds (t binary trial vectors put them on others),
    # for one candidate and for a chain screened against two
    rng = Random(44)
    a, b, other = rand_matrix(4, rng), rand_matrix(4, rng), rand_matrix(4, rng)
    rows = mat_rows(mat_mul(a, b))
    rows[1][2] += 1
    seeds = range(64)
    verdicts = [freivalds_verify(a, b, Matrix(rows), t, seed) for seed in seeds]
    assert verdicts == [freivalds_trials(mat_rows(a), mat_rows(b), rows, t, Random(seed)) for seed in seeds]
    assert 0 < sum(verdicts) < 64
    chain = [b, Matrix(rows), mat_mul(other, Matrix(rows))]
    plain = [mat_rows(m) for m in chain], [mat_rows(other), mat_rows(a)]
    screened = [freivalds_screen(chain, (other, a), t, seed) for seed in seeds]
    assert screened == [freivalds_chain_trials(*plain, t, Random(seed)) for seed in seeds]
    assert 0 < sum(screened) < 64


# ---------------------------------------------------------------------------
# freivalds_verify
# ---------------------------------------------------------------------------

def test_freivalds_true_product_identity():
    eye = Matrix.identity(5)
    assert freivalds_verify(eye, eye, eye, 1, seed=0)


def test_freivalds_true_product_2x2():
    assert freivalds_verify(A, B, Matrix([[2, 1], [1, 1]]), 10, seed=0)


def test_freivalds_never_rejects_true_products():
    rng = Random(41)
    for trial in range(500):
        a, b = rand_matrix(3, rng), rand_matrix(3, rng)
        assert freivalds_verify(a, b, mat_mul(a, b), 2, seed=trial)


def test_freivalds_soundness_single_entry_corruption():
    # acceptance rate for a wrong product at t=1 is 1/2; allow 3-sigma slack
    rng = Random(43)
    a, b = rand_matrix(3, rng), rand_matrix(3, rng)
    c = mat_mul(a, b)
    rows = mat_rows(c)
    rows[0][0] += 1
    corrupted = Matrix(rows)
    trials = 10_000
    accepts = sum(freivalds_verify(a, b, corrupted, 1, seed=s) for s in range(trials))
    assert accepts / trials <= 0.5 + 3 * (0.25 / trials) ** 0.5


def test_freivalds_validates_args():
    with pytest.raises(ValueError):
        freivalds_verify(A, B, Matrix.identity(3), 1, seed=0)
    with pytest.raises(ValueError):
        freivalds_verify(A, B, Matrix.identity(2), 0, seed=0)


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

def test_sample_matrix_range_containment():
    m = sample_matrix(2, 2, Random(5))
    assert all(x in (0, 1) for row in m.rows for x in row)


def test_sample_matrix_deterministic():
    assert sample_matrix(6, 256, Random(9)) == sample_matrix(6, 256, Random(9))


def test_sample_matrix_uniform_cell_means():
    # 1000 draws at bound 256: each cell mean within 3 sigma of 127.5
    rng = Random(1)
    sums = [[0] * 20 for _ in range(20)]
    for _ in range(1000):
        m = sample_matrix(20, 256, rng)
        for i in range(20):
            for j in range(20):
                sums[i][j] += m.rows[i][j]
    tol = 3 * ((256**2 - 1) / 12) ** 0.5 / 1000**0.5
    for i in range(20):
        for j in range(20):
            assert abs(sums[i][j] / 1000 - 127.5) <= tol


def test_sample_invertible_1x1():
    # entries in {0, 1} and 0 is singular, so the only possible output is [1]
    assert sample_invertible_matrix(1, 2, Random(3)) == Matrix([[1]])


def test_sample_invertible_postcondition():
    for seed in range(10):
        m = sample_invertible_matrix(4, 256, Random(seed))
        assert determinant(m) != 0


def test_sample_invertible_rejections_are_rare(monkeypatch):
    # 100 seeded 5x5 draws at bound 256: expect at most 5 rejections total
    attempts = []
    sample = algebra.sample_matrix
    monkeypatch.setattr(algebra, "sample_matrix", lambda *args: attempts.append(args) or sample(*args))
    for seed in range(100):
        m = sample_invertible_matrix(5, 256, Random(seed))
        assert is_invertible(m)
    assert 100 <= len(attempts) <= 105


@pytest.mark.parametrize("bound", [2, 3, 256, 257])
def test_uniform_draws_are_the_randrange_stream(bound):
    # the samplers' inline rejection loop must draw exactly what randrange
    # draws; a CPython change to randrange's algorithm fails here
    for seed in range(8):
        ours, theirs = Random(seed), Random(seed)
        assert _uniform(ours, bound, 300) == [theirs.randrange(bound) for _ in range(300)]
        assert ours.getrandbits(64) == theirs.getrandbits(64)
        m = sample_matrix(7, bound, Random(seed))
        ref = Random(seed)
        assert m.rows == tuple(tuple(ref.randrange(bound) for _ in range(7)) for _ in range(7))
    for seed in range(20):
        ref = Random(seed)
        while True:
            bits = [ref.randrange(2) for _ in range(6)]
            if sum(bits) >= 2:
                break
        assert sample_check_vector(6, Random(seed)).bits == tuple(bits)


def test_sample_check_vector_small_space():
    # r=3: exactly the four vectors of weight >= 2
    expected = set(weight_ge2_vectors(3))
    assert len(expected) == 2**3 - 3 - 1
    seen = set()
    rng = Random(17)
    for _ in range(200):
        v = sample_check_vector(3, rng)
        assert v.bits in expected
        seen.add(v.bits)
    assert seen == expected


def test_sample_check_vector_weight_postcondition():
    rng = Random(19)
    for _ in range(50):
        assert sample_check_vector(8, rng).weight >= 2


def test_sample_check_vector_space_size_r20():
    # excluding weight 0 and weight 1 leaves 2^20 - 21 vectors
    assert 2**20 - 20 - 1 == 1_048_555
    assert len(weight_ge2_vectors(10)) == 2**10 - 10 - 1


def test_sample_check_vector_rejects_r1():
    with pytest.raises(ValueError):
        sample_check_vector(1, Random(0))


def test_sample_invertible_retry_cap(monkeypatch):
    from matshare import algebra
    from matshare.errors import GenerationFailure

    monkeypatch.setattr(algebra, "is_invertible", lambda m: False)
    with pytest.raises(GenerationFailure):
        sample_invertible_matrix(3, 256, Random(0))


def test_sampler_determinism_all():
    assert sample_invertible_matrix(3, 16, Random(77)) == sample_invertible_matrix(3, 16, Random(77))
    assert sample_check_vector(5, Random(77)) == sample_check_vector(5, Random(77))


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------

def test_matrix_canonicalizes_whole_fractions():
    # a whole Fraction is refused, not canonicalised; int entries stay ints
    with pytest.raises(TypeError, match="Fraction"):
        Matrix([[Fraction(4, 2), 0], [0, 1]])
    m = Matrix([[2, 0], [0, 1]])
    assert m.rows[0][0] == 2
    assert all(type(x) is int for row in m.rows for x in row)


def test_values_refuse_non_int_entries():
    # a Fraction is refused like a float, even a whole one such as 4/2
    for bad in (Fraction(1, 2), Fraction(4, 2), 2.0, "2"):
        with pytest.raises(TypeError, match=type(bad).__name__):
            Matrix([[1, 0], [0, bad]])
        with pytest.raises(TypeError, match=type(bad).__name__):
            Vector([1, bad])
        with pytest.raises(TypeError):
            matrix_rank([[1, 0, bad]])
    assert Matrix([[1, 0], [0, 2]]).rows == ((1, 0), (0, 2))
    assert Vector([1, 2]).entries == (1, 2)


def test_values_refuse_bool_entries():
    # isinstance(True, int) holds, but a bool entry would serialize as
    # "True" (or as JSON true for a bit), which the workspace loader refuses
    for bad in (True, False):
        with pytest.raises(TypeError, match="bool"):
            Matrix([[1, 0], [0, bad]])
        with pytest.raises(TypeError, match="bool"):
            Vector([bad, 1])
        with pytest.raises(TypeError, match="bool"):
            BinaryVector([1, bad])
        with pytest.raises(TypeError, match="bool"):
            matrix_rank([[1, bad]])


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        Matrix([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "value", [Matrix([[1, -2], [3, 4]]), Vector([5, -6]), BinaryVector([0, 1])], ids=repr
)
def test_values_survive_copy_and_pickle(value):
    for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(clone) is type(value) and clone == value


@pytest.mark.parametrize(
    "rows",
    [[[1, -2], [3, 4]], [[0, 0], [0, 0]], [[2**300 - 1, -5], [-(2**299), 7]]],
    ids=["signed", "zero", "300-bit"],
)
def test_width_cache_is_not_part_of_the_value(rows):
    # neither the width cache nor the slot cache changes the value: a
    # matrix packed as a right factor, and a product that holds its slots,
    # compare, hash, print, copy and pickle as a fresh matrix of its rows
    m, fresh = Matrix(rows), Matrix(rows)
    before = (repr(m), hash(m), pickle.dumps(m))
    assert not hasattr(m, "_bits") and not hasattr(m, "_slots")
    product = mat_mul(m, m)
    assert freivalds_verify(m, m, product, 3, seed=1)
    assert m._bits == algebra._max_bits(m.rows)
    assert m._slots[0] == product._slots[0]
    assert (repr(m), hash(m), pickle.dumps(m)) == before
    assert m == fresh and fresh == m
    plain = Matrix(product.rows)
    assert product == plain and plain == product
    assert (repr(product), hash(product), pickle.dumps(product)) == (repr(plain), hash(plain), pickle.dumps(plain))
    for value in (m, product):
        for clone in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
            assert type(clone) is Matrix and clone == value and clone.rows == value.rows
            assert not hasattr(clone, "_bits") and not hasattr(clone, "_slots")
        for name in ("rows", "_bits", "_slots", "other"):
            with pytest.raises(AttributeError):
                setattr(value, name, 0)
    assert m._bits == algebra._max_bits(m.rows)


def test_binary_vector_rejects_non_bits():
    with pytest.raises(ValueError):
        BinaryVector([0, 2])


def test_values_are_immutable():
    with pytest.raises(AttributeError):
        A.rows = ()
    with pytest.raises(AttributeError):
        Vector([1]).entries = ()
    with pytest.raises(AttributeError, match="BinaryVector is immutable"):
        BinaryVector([1]).entries = ()
    for value, slot in ((Matrix([[1, 2], [3, 4]]), "rows"), (Vector([1, 2]), "entries"),
                        (BinaryVector([1, 0]), "entries")):
        before = copy.copy(value)
        with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
            delattr(value, slot)
        assert value == before and value.dim == 2
