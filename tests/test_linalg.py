import random
import time
from fractions import Fraction

import pytest
from sympy import isprime

from quiverkit.linalg import (
    LinalgError,
    Matrix,
    PrimeField,
    RationalField,
    _is_prime,
    field_from_name,
    kernel_basis,
    matmul,
    rref,
    solve,
)

Q = RationalField()
GF7 = PrimeField(7)


def test_primality_matches_sympy():
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185]
    for n in [*range(10 ** 4), 3215031751, 3825123056546413051, *carmichael,
              10 ** 14 + 31, 2 ** 61 - 1, 2 ** 61 + 1]:
        assert _is_prime(n) == isprime(n), n
    start = time.process_time()
    assert PrimeField(2 ** 61 - 1).p == 2 ** 61 - 1
    assert time.process_time() - start < 1
    with pytest.raises(LinalgError, match="3317044064679887385961981"):
        PrimeField(2 ** 89 - 1)


def test_field_parsing():
    assert field_from_name("rational") == Q
    assert field_from_name("gf(32003)") == PrimeField(32003)
    with pytest.raises(LinalgError):
        field_from_name("gf(32004)")  # not prime
    with pytest.raises(LinalgError):
        field_from_name("real")


def test_rref_identity():
    m = Matrix.identity(Q, 3)
    res = rref(m)
    assert res.reduced == m and res.rank == 3
    assert res.pivot_columns == [0, 1, 2]


def test_rref_zero():
    m = Matrix.zeros(Q, 2, 4)
    res = rref(m)
    assert res.reduced == m and res.rank == 0 and res.pivot_columns == []


def test_rref_gf7_rank_one():
    m = Matrix.from_int_rows(GF7, [[1, 2], [2, 4]])
    res = rref(m)
    assert res.rank == 1
    assert res.pivot_columns == [0]
    assert res.reduced.data == [[1, 2], [0, 0]]


def test_kernel_identity_empty():
    assert kernel_basis(Matrix.identity(Q, 4)) == []


def test_kernel_dimension_one_forced():
    m = Matrix.from_int_rows(Q, [[1, -1]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] == v[1] != 0


def test_kernel_gf7():
    m = Matrix.from_int_rows(GF7, [[1, 2], [2, 4]])
    ker = kernel_basis(m)
    assert len(ker) == 1
    assert all(x == 0 for x in m.apply(ker[0]))
    # (5, 1) spans the same line
    v = ker[0]
    scale = GF7.mul(5, GF7.inv(v[0])) if v[0] else None
    assert v[1] != 0 or v[0] != 0


def test_solve_identity():
    b = [Fraction(3), Fraction(-1)]
    assert solve(Matrix.identity(Q, 2), b) == b


def test_solve_inconsistent_absent():
    assert solve(Matrix.zeros(Q, 2, 2), [Fraction(1), Fraction(0)]) is None


def test_solve_back_substitution():
    m = Matrix.from_int_rows(Q, [[1, 1], [0, 1]])
    x = solve(m, [Fraction(3), Fraction(1)])
    assert x == [Fraction(2), Fraction(1)]


def _random_matrix(rng, field):
    rows = rng.randrange(1, 6)
    cols = rng.randrange(1, 7)
    return Matrix.from_int_rows(
        field, [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])


@pytest.mark.parametrize("field", [Q, PrimeField(7), PrimeField(32003)])
def test_rref_random_properties(field):
    rng = random.Random(20260808)
    for _ in range(120):
        m = _random_matrix(rng, field)
        res = rref(m)
        again = rref(res.reduced)
        assert again.reduced == res.reduced  # idempotent
        ker = kernel_basis(m)
        assert res.rank + len(ker) == m.cols  # rank-nullity
        for v in ker:
            assert all(x == field.zero() for x in m.apply(v))


def test_solve_is_exact_random():
    rng = random.Random(7)
    for _ in range(100):
        m = _random_matrix(rng, Q)
        x0 = [Q.from_int(rng.randrange(-3, 4)) for _ in range(m.cols)]
        b = m.apply(x0)
        x = solve(m, b)
        assert x is not None
        assert m.apply(x) == b


def test_matmul_shapes_and_values():
    a = Matrix.from_int_rows(Q, [[1, 2], [3, 4]])
    b = Matrix.from_int_rows(Q, [[0, 1], [1, 0]])
    assert matmul(a, b).data == [[Fraction(2), Fraction(1)], [Fraction(4), Fraction(3)]]
    with pytest.raises(LinalgError):
        matmul(a, Matrix.zeros(Q, 3, 3))
