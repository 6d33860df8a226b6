"""The elimination layer against sympy's DomainMatrix as an independent oracle.

Random dense, sparse, tall, low-rank and empty (0-row or 0-column) matrices
over Q, GF(7) and GF(32003).  The reduced row-echelon form is unique, so
`rref` must agree with sympy entry by entry; the kernel, `solve`,
`solve_many`, `unit_complement` and `SpanTracker` are checked against
sympy's rank, and `matmul` against the product computed without quiverkit.
`transpose` and `Matrix.from_columns` are checked against the entries they
move, on the same shapes.

Over Q a scalar is an int when integral and a Fraction otherwise; the inputs
mix ints with Fractions, integral ones included, and every value the field
computes must come out in that normal form.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st
from sympy import GF, QQ
from sympy.polys.matrices import DomainMatrix

from quiverkit.arquiver import knit
from quiverkit.algebra import build_algebra
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.extensions import ExtensionError, relation_extension
from quiverkit.linalg import (
    LinalgError,
    Matrix,
    PrimeField,
    RationalField,
    SpanTracker,
    kernel_basis,
    matmul,
    rref,
    solve,
    solve_many,
    unit_complement,
)

FIELDS = [RationalField(), PrimeField(7), PrimeField(32003)]
FIELD_IDS = [f.name() for f in FIELDS]
Q = RationalField()

SETTINGS = settings(max_examples=60, deadline=None)


def _scalars(field):
    if isinstance(field, RationalField):
        return st.one_of(st.integers(-6, 6),
                         st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))
    return st.integers(0, field.p - 1)


def _normal(x):
    """x is a rational scalar in normal form: an int, or a non-integral
    Fraction."""
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _all_normal(rows):
    return all(_normal(x) for row in rows for x in row)


def _product(field, left, right, cols):
    """left @ right, with `cols` columns, computed without quiverkit."""
    out = [[sum(x * right[t][j] for t, x in enumerate(row)) for j in range(cols)]
           for row in left]
    if isinstance(field, PrimeField):
        out = [[x % field.p for x in row] for row in out]
    return out


def _image(field, rows, x):
    """rows @ x for a vector x."""
    return [row[0] for row in _product(field, rows, [[e] for e in x], 1)]


@st.composite
def matrices(draw, field):
    """(row lists, column count) of a dense, sparse, tall, low-rank or empty
    matrix; an empty one has no rows or no columns."""
    shape = draw(st.sampled_from(["dense", "sparse", "tall", "low_rank", "empty"]))
    entries = _scalars(field)
    if shape == "tall":
        cols = draw(st.integers(1, 4))
        rows = draw(st.integers(cols + 1, 2 * cols + 3))
    elif shape == "empty":
        rows, cols = draw(st.sampled_from(
            [(0, c) for c in range(4)] + [(r, 0) for r in range(1, 4)]))
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
        return _product(field, left, right, cols), cols
    return draw(st.lists(st.lists(entries, min_size=cols, max_size=cols),
                         min_size=rows, max_size=rows)), cols


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
    rows, cols = data.draw(matrices(field))
    m = Matrix(field, rows, len(rows), cols)
    ours = rref(m)
    reduced, pivots = _to_sympy(field, rows, cols).rref()
    expected = [[_from_sympy(field, x) for x in row] for row in reduced.to_list()]
    assert (ours.reduced.rows, ours.reduced.cols) == (len(rows), cols)
    assert ours.reduced.data == expected
    assert ours.pivot_columns == list(pivots)
    assert ours.rank == len(pivots)
    assert m.data == rows  # the input is left as it was
    if field == Q and _all_normal(rows):
        assert _all_normal(ours.reduced.data)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_kernel_has_sympy_nullity(field, data):
    rows, cols = data.draw(matrices(field))
    m = Matrix(field, rows, len(rows), cols)
    ker = kernel_basis(m)
    assert len(ker) == cols - _sympy_rank(field, rows, cols)
    for v in ker:
        assert len(v) == cols
        assert m.apply(v) == [field.zero()] * m.rows
    assert _sympy_rank(field, ker, cols) == len(ker)
    if field == Q and _all_normal(rows):
        assert _all_normal(ker)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_solve_consistent_with_sympy(field, data):
    rows, cols = data.draw(matrices(field))
    m = Matrix(field, rows, len(rows), cols)
    if data.draw(st.booleans()):
        x = data.draw(st.lists(_scalars(field), min_size=cols, max_size=cols))
        b = _image(field, rows, x)
    else:
        b = data.draw(st.lists(_scalars(field), min_size=m.rows, max_size=m.rows))
    augmented = [row + [e] for row, e in zip(rows, b)]
    consistent = (_sympy_rank(field, augmented, cols + 1)
                  == _sympy_rank(field, rows, cols))
    sol = solve(m, b)
    if not consistent:
        assert sol is None
    else:
        assert sol is not None and m.apply(sol) == b


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_solve_many_is_solve_per_column(field, data):
    rows, cols = data.draw(matrices(field))
    m = Matrix(field, rows, len(rows), cols)
    bs = []
    for _ in range(data.draw(st.integers(0, 4))):
        if data.draw(st.booleans()):
            x = data.draw(st.lists(_scalars(field), min_size=cols, max_size=cols))
            bs.append(_image(field, rows, x))
        else:
            bs.append(data.draw(st.lists(_scalars(field), min_size=m.rows, max_size=m.rows)))
    rank = _sympy_rank(field, rows, cols)
    inconsistent = any(
        _sympy_rank(field, [row + [e] for row, e in zip(rows, b)], cols + 1) > rank
        for b in bs)
    sols = solve_many(m, bs)
    if inconsistent:
        assert sols is None
    else:
        assert sols == [solve(m, b) for b in bs]
        assert all(len(x) == cols and m.apply(x) == b for x, b in zip(sols, bs))
        if field == Q and _all_normal(rows) and _all_normal(bs):
            assert _all_normal(sols)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_span_tracker_dim_is_rank_in_any_order(field, data):
    rows, cols = data.draw(matrices(field))
    order = data.draw(st.permutations(range(len(rows))))
    tracker = SpanTracker(field)
    for i in order:
        tracker.add(rows[i])
    assert tracker.dim == _sympy_rank(field, rows, cols)
    assert all(tracker.contains(row) for row in rows)
    if field == Q and _all_normal(rows):
        assert _all_normal(tracker.rows)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_matmul_equals_the_plain_product(field, data):
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))
    entry = st.one_of(st.just(field.zero()), _scalars(field))
    left = data.draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                              min_size=r, max_size=r))
    right = data.draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                               min_size=k, max_size=k))
    out = matmul(Matrix(field, left, r, k), Matrix(field, right, k, c))
    assert (out.rows, out.cols, len(out.data)) == (r, c, r)
    assert out.data == _product(field, left, right, c)
    if field == Q and _all_normal(left) and _all_normal(right):
        assert _all_normal(out.data)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_unit_complement_is_the_greedy_rank_choice(field, data):
    rows, cols = data.draw(matrices(field))
    chosen = []
    for k in range(cols):
        unit = [field.one() if i == k else field.zero() for i in range(cols)]
        if (_sympy_rank(field, rows + chosen + [unit], cols)
                > _sympy_rank(field, rows + chosen, cols)):
            chosen.append(unit)
    assert unit_complement(field, rows, cols) == [u.index(field.one()) for u in chosen]


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_transpose_and_from_columns_round_trip(field, data):
    rows, cols = data.draw(matrices(field))
    m = Matrix(field, rows, len(rows), cols)
    t = m.transpose()
    assert (t.rows, t.cols, len(t.data)) == (cols, len(rows), cols)
    assert t.data == [[row[j] for row in rows] for j in range(cols)]
    assert t.data == [m.column(j) for j in range(cols)]
    assert t.transpose() == m and Matrix.from_columns(field, t.data, m.rows) == m
    assert m.data == rows  # the input is left as it was


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
@SETTINGS
@given(data=st.data())
def test_from_columns_refuses_a_column_of_another_length(field, data):
    rows, cols = data.draw(matrices(field))
    columns = [[row[j] for row in rows] for j in range(cols)]
    j = data.draw(st.integers(0, cols))  # cols: a further column
    if j == cols:
        columns.append([field.zero()] * len(rows))
    longer = not columns[j] or data.draw(st.booleans())
    columns[j] = columns[j] + [field.one()] if longer else columns[j][:-1]
    with pytest.raises(LinalgError):
        Matrix.from_columns(field, columns, len(rows))


_RATIONALS = st.one_of(st.integers(-9, 9),
                       st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)))


@SETTINGS
@given(x=_RATIONALS, y=_RATIONALS)
@example(x=Fraction(3, 2), y=Fraction(1, 2))  # integral sum, difference, inverse
@example(x=Fraction(2, 3), y=Fraction(-3, 2))  # integral product
def test_rational_field_is_fraction_arithmetic_in_normal_form(x, y):
    fx, fy = Fraction(x), Fraction(y)
    results = [(Q.add(x, y), fx + fy), (Q.sub(x, y), fx - fy), (Q.mul(x, y), fx * fy),
               (Q.neg(Q.scalar_from_str(str(x))), -fx),
               (Q.scalar_from_str(str(fx)), fx)]
    if fy:
        results.append((Q.inv(y), 1 / fy))
    for ours, expected in results:
        assert ours == expected and _normal(ours)
        assert hash(ours) == hash(expected)
        assert Q.scalar_to_str(ours) == str(expected)
    assert type(Q.from_int(fx.numerator)) is int
    assert (Q.zero(), Q.one()) == (0, 1) and type(Q.zero()) is type(Q.one()) is int


FIXTURES = ["a31_clustertilted.q", "a31_onepoint_ext.q", "d4_clustertilted.q",
            "d4_tilted.q", "d4_tilted_ext_s2.q", "d5_clustertilted.q"]


@pytest.mark.parametrize("name", FIXTURES)
def test_rational_pipelines_keep_scalars_in_normal_form(name):
    a = build_algebra(_load_presentation(fixture_path(name), "rational"))
    algebras = [a]
    try:
        algebras.append(relation_extension(a))
    except ExtensionError:
        pass
    for alg in algebras:
        assert all(_normal(c) for terms in alg.mult.values() for _, c in terms)
        assert all(_normal(c) for rep in alg.arrow_reps for c in rep.vector)
    for node in knit(a, 60).nodes:
        for mat in node.mats.values():
            assert _all_normal(mat.data), node.label
