"""`submodule_from_spans` and `quotient_module` against the matrix route
they replaced, kept here as their oracle.

The old route built a matrix per vertex and multiplied it out per arrow A:
- a submodule's inclusion block has the span's echelon rows as columns;
  the arrow block is img = A @ incl read at the target's pivot rows, and
  the span is closed exactly when incl_target @ block == img;
- a quotient's projection block has as columns the classes of the unit
  vectors; the arrow block is the target's projection block times the
  section, A's columns at the source's free positions.

The library reads the same blocks from the echelon rows (`residue`).  Both
routes must give the same dimensions and the same blocks, entry for entry,
and a span that is not closed must raise ModuleError on both.  Checked on
every node of the cap-40 knits of the four finite fixtures over the
rationals and three primes, through `radical_of`, `socle_of`, `top_of`,
`socle_quotient`, `kernel_of` and `cokernel_of`, and on hypothesis-drawn
spans, closed and not.
"""

from fractions import Fraction
from functools import cache

import pytest
from hypothesis import given, settings, strategies as st

from quiverkit.arquiver import knit
from quiverkit.linalg import Matrix, RationalField, echelon, kernel_basis, matmul
from quiverkit.repmod import (
    ModuleError,
    cokernel_of,
    direct_sum,
    hom_basis,
    image_spans,
    kernel_of,
    projective_cover,
    quotient_module,
    radical_of,
    radical_spans,
    socle_of,
    socle_quotient,
    socle_spans,
    submodule_from_spans,
    top_of,
)
from test_repmod import FINITE_FIXTURES, _fixture_over

FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(2)"]


def _old_submodule(m, spans):
    """(dims, arrow blocks, inclusion blocks) by the inclusion matrices."""
    a = m.algebra
    f = a.field
    echelons = [echelon(f, spans[v], d) for v, d in enumerate(m.dims)]
    dims = [len(rows) for rows, _ in echelons]
    incl = [Matrix.from_columns(f, rows, d) for (rows, _), d in zip(echelons, m.dims)]
    mats = {}
    for rep in a.arrow_reps:
        img = matmul(m.mats[rep.name], incl[rep.source])
        pivots = echelons[rep.target][1]
        block = Matrix.wrap(f, [img.data[p] for p in pivots], dims[rep.target], dims[rep.source])
        if img.cols and matmul(incl[rep.target], block) != img:
            raise ModuleError("spans not closed under the arrow actions")
        mats[rep.name] = block
    return dims, mats, incl


def _old_quotient(m, spans):
    """(dims, arrow blocks) by the projection matrices and sections."""
    a = m.algebra
    f = a.field
    z = f.zero()
    free, proj = [], []
    for v, d in enumerate(m.dims):
        rows, pivots = echelon(f, spans[v], d)
        row_at = dict(zip(pivots, rows))
        free.append([c for c in range(d) if c not in row_at])
        proj.append(Matrix.wrap(f, [
            [f.neg(row_at[c][fc]) if c in row_at else f.one() if c == fc else z
             for c in range(d)] for fc in free[v]], len(free[v]), d))
    mats = {}
    for rep in a.arrow_reps:
        A = m.mats[rep.name]
        section = Matrix.wrap(f, [[row[c] for c in free[rep.source]] for row in A.data],
                              A.rows, len(free[rep.source]))
        mats[rep.name] = matmul(proj[rep.target], section)
    return [len(fr) for fr in free], mats


def _blocks(mats):
    return {name: (x.rows, x.cols, x.data) for name, x in mats.items()}


def _assert_submodule(m, spans, sub, incl=None):
    dims, mats, old_incl = _old_submodule(m, spans)
    assert (list(sub.dims), _blocks(sub.mats)) == (dims, _blocks(mats)), m.label
    if incl is not None:
        assert incl.source is sub and incl.target is m
        assert [b.data for b in incl.blocks] == [b.data for b in old_incl]


def _assert_quotient(m, spans, q):
    dims, mats = _old_quotient(m, spans)
    assert (list(q.dims), _blocks(q.mats)) == (dims, _blocks(mats)), m.label


def _assert_same_route(m, spans):
    """Both routes give the same submodule, or both refuse the spans; the
    quotient is read from the spans whether or not they are closed."""
    try:
        sub, incl = submodule_from_spans(m, spans)
    except ModuleError:
        with pytest.raises(ModuleError, match="not closed"):
            _old_submodule(m, spans)
        closed = False
    else:
        _assert_submodule(m, spans, sub, incl)
        closed = True
    _assert_quotient(m, spans, quotient_module(m, spans))
    return closed


def _maps(nodes, i):
    """Maps out of and into nodes[i]: its projective cover, its Hom basis
    into the next two nodes, and its endomorphisms."""
    m = nodes[i]
    yield projective_cover(m)[1]
    for n in nodes[i:i + 3]:
        yield from hom_basis(m, n)


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_constructors_match_the_matrix_route_on_knit_nodes(name, field):
    a = _fixture_over(name, field)
    nodes = knit(a, 40).nodes
    assert nodes
    refused = 0
    for i, m in enumerate(nodes):
        _assert_submodule(m, radical_spans(m), radical_of(m))
        _assert_submodule(m, socle_spans(m), socle_of(m))
        _assert_quotient(m, radical_spans(m), top_of(m))
        _assert_quotient(m, socle_spans(m), socle_quotient(m))
        for h in _maps(nodes, i):
            _assert_submodule(h.source, list(map(kernel_basis, h.blocks)), *kernel_of(h))
            _assert_quotient(h.target, image_spans(h), cokernel_of(h))
        # all of M at one vertex and nothing elsewhere: not closed as soon
        # as an arrow out of that vertex acts
        for v, d in enumerate(m.dims):
            units = [Matrix.identity(a.field, d).data if w == v else [] for w in range(len(m.dims))]
            refused += not _assert_same_route(m, units)
    assert refused


@cache
def _pool(field):
    """Knit nodes of d4_clustertilted, and sums of two of them."""
    a = _fixture_over("d4_clustertilted.q", field)
    nodes = knit(a, 40).nodes
    return nodes + [direct_sum(a, [m, n]) for m, n in zip(nodes, nodes[3:])]


def _scalars(f):
    """Small scalars in the field's normal form: an integral rational is an int."""
    if isinstance(f, RationalField):
        return st.builds(lambda n, d: f.mul(n, Fraction(1, d)), st.integers(-3, 3),
                         st.integers(1, 3))
    return st.integers(0, f.p - 1)


def _closure(m, spans):
    """The echelon bases of the smallest submodule containing spans."""
    f = m.algebra.field
    while True:
        grown = [list(s) for s in spans]
        for rep in m.algebra.arrow_reps:
            grown[rep.target] += map(m.mats[rep.name].apply, spans[rep.source])
        grown = [echelon(f, vecs, d)[0] for vecs, d in zip(grown, m.dims)]
        if list(map(len, grown)) == list(map(len, spans)):
            return grown
        spans = grown


@settings(max_examples=60, deadline=None)
@given(data=st.data(), field=st.sampled_from(["rational", "gf(3)", "gf(2)"]))
def test_constructors_match_the_matrix_route_on_drawn_spans(data, field):
    pool = _pool(field)
    m = pool[data.draw(st.integers(0, len(pool) - 1))]
    f = m.algebra.field
    entry = st.one_of(st.just(f.zero()), _scalars(f))
    spans = [data.draw(st.lists(st.lists(entry, min_size=d, max_size=d), max_size=3))
             for d in m.dims]
    _assert_same_route(m, spans)
    closed = _closure(m, [echelon(f, vecs, d)[0] for vecs, d in zip(spans, m.dims)])
    assert _assert_same_route(m, closed)
