"""The elimination layer against sympy's DomainMatrix as an independent oracle.

Random dense, sparse, tall and low-rank matrices over Q, GF(7) and
GF(32003).  The reduced row-echelon form is unique, so `rref` must agree
with sympy entry by entry; the kernel, `solve`, `solve_many` and
`SpanTracker` are checked against sympy's rank.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from quiverkit.linalg import (
    Matrix,
    PrimeField,
    RationalField,
    SpanTracker,
    kernel_basis,
    rref,
    solve,
    solve_many,
)

FIELDS = [RationalField(), PrimeField(7), PrimeField(32003)]
FIELD_IDS = [f.name() for f in FIELDS]

SETTINGS = settings(max_examples=60, deadline=None)


def _scalars(field):
    if isinstance(field, RationalField):
        return st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    return st.integers(0, field.p - 1)


def _product(field, left, right):
    """left @ right, computed without quiverkit."""
    out = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
    if isinstance(field, PrimeField):
        out = [[x % field.p for x in row] for row in out]
    return out


@st.composite
def matrices(draw, field):
    """Row lists of a dense, sparse, tall or low-rank matrix."""
    shape = draw(st.sampled_from(["dense", "sparse", "tall", "low_rank"]))
    entries = _scalars(field)
    if shape == "tall":
        cols = draw(st.integers(1, 4))
        rows = draw(st.integers(cols + 1, 2 * cols + 3))
    else:
        rows, cols = draw(st.integers(1, 7)), draw(st.integers(1, 7))
    if shape == "sparse":
        zero = field.zero()
        entries = st.tuples(st.integers(0, 4), entries).map(
            lambda t: t[1] if t[0] == 0 else zero)
    if shape == "low_rank":
        k = draw(st.integers(0, min(rows, cols) - 1))
        left = draw(st.lists(st.lists(entries, min_size=k, max_size=k),
                             min_size=rows, max_size=rows))
        right = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                              min_size=k, max_size=k))
        if k == 0:
            return [[field.zero()] * cols for _ in range(rows)]
        return _product(field, left, right)
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows))


def _domain(field):
    return QQ if isinstance(field, RationalField) else GF(field.p)


def _to_sympy(field, data, cols):
    k = _domain(field)
    if isinstance(field, RationalField):
        conv = [[k(x.numerator, x.denominator) for x in row] for row in data]
    else:
        conv = [[k(x) for x in row] for row in data]
    return DomainMatrix(conv, (len(data), cols), k)


def _from_sympy(field, x):
    if isinstance(field, RationalField):
        return Fraction(int(x.numerator), int(x.denominator))
    return int(x) % field.p


def _sympy_rank(field, data, cols):
    return _to_sympy(field, data, cols).rank() if data else 0


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_rref_equals_sympy(field, data):
    rows = data.draw(matrices(field))
    m = Matrix(field, rows)
    ours = rref(m)
    reduced, pivots = _to_sympy(field, rows, m.cols).rref()
    expected = [[_from_sympy(field, x) for x in row] for row in reduced.to_list()]
    assert ours.reduced.data == expected
    assert ours.pivot_columns == list(pivots)
    assert ours.rank == len(pivots)
    assert m.data == rows  # the input is left as it was


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_kernel_has_sympy_nullity(field, data):
    rows = data.draw(matrices(field))
    m = Matrix(field, rows)
    ker = kernel_basis(m)
    assert len(ker) == m.cols - _sympy_rank(field, rows, m.cols)
    for v in ker:
        assert m.apply(v) == [field.zero()] * m.rows
    assert _sympy_rank(field, ker, m.cols) == len(ker)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_solve_consistent_with_sympy(field, data):
    rows = data.draw(matrices(field))
    m = Matrix(field, rows)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_scalars(field), min_size=m.cols, max_size=m.cols))
        b = [row[0] for row in _product(field, rows, [[e] for e in x])]
    else:
        b = data.draw(st.lists(_scalars(field), min_size=m.rows, max_size=m.rows))
    augmented = [row + [e] for row, e in zip(rows, b)]
    consistent = (_sympy_rank(field, augmented, m.cols + 1)
                  == _sympy_rank(field, rows, m.cols))
    sol = solve(m, b)
    if not consistent:
        assert sol is None
    else:
        assert sol is not None and m.apply(sol) == b


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_solve_many_is_solve_per_column(field, data):
    rows = data.draw(matrices(field))
    m = Matrix(field, rows)
    bs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(_scalars(field), min_size=m.cols, max_size=m.cols))
            bs.append([row[0] for row in _product(field, rows, [[e] for e in x])])
        else:
            bs.append(data.draw(st.lists(_scalars(field), min_size=m.rows, max_size=m.rows)))
    rank = _sympy_rank(field, rows, m.cols)
    inconsistent = any(
        _sympy_rank(field, [row + [e] for row, e in zip(rows, b)], m.cols + 1) > rank
        for b in bs)
    sols = solve_many(m, bs)
    if inconsistent:
        assert sols is None
    else:
        assert sols == [solve(m, b) for b in bs]
        assert all(m.apply(x) == b for x, b in zip(sols, bs))


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_span_tracker_dim_is_rank_in_any_order(field, data):
    rows = data.draw(matrices(field))
    order = data.draw(st.permutations(range(len(rows))))
    tracker = SpanTracker(field)
    for i in order:
        tracker.add(rows[i])
    assert tracker.dim == _sympy_rank(field, rows, len(rows[0]))
    assert all(tracker.contains(row) for row in rows)
