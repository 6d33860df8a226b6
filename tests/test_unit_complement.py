"""`unit_complement` against the greedy choice it replaced.

The reference adds span(vecs) to a `SpanTracker`, then keeps each unit
vector, earliest first, that enlarges the span.  The helper must pick the
same positions: on random vectors, and through its callers
`projective_cover`, whose generators go to unit vectors completing the
radical span (over knit nodes, their direct sums, and the kernels and
cokernels of Hom basis maps), and `Bimodule.arrow_positions`.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import knit
from quiverkit.corpus import load_fixture
from quiverkit.extensions import ExtensionError, ext2_bimodule, one_point_extension
from quiverkit.linalg import PrimeField, RationalField, SpanTracker, unit_complement
from quiverkit.repmod import (
    cokernel_of,
    direct_sum,
    hom_basis,
    kernel_of,
    projective,
    projective_cover,
    radical_spans,
)
from test_bimodule_oracle import dense_actions

FIELDS = [RationalField(), PrimeField(3), PrimeField(32003)]
FINITE_FIXTURES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                   "d5_clustertilted.q"]


def _greedy_complement(f, vecs, n):
    tracker = SpanTracker(f)
    for v in vecs:
        tracker.add(v)
    return [k for k in range(n)
            if tracker.add([f.one() if i == k else f.zero() for i in range(n)])]


def _scalars(f):
    if isinstance(f, RationalField):
        return st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    return st.integers(0, f.p - 1)


@st.composite
def spans(draw, f):
    """(vectors, n): combinations of a few sparse generators in k^n, so that
    the vectors are often dependent."""
    n = draw(st.integers(0, 7))
    entry = st.one_of(st.just(f.zero()), _scalars(f))
    gens = draw(st.lists(st.lists(entry, min_size=n, max_size=n), max_size=4))
    vecs = []
    for coeffs in draw(st.lists(st.lists(entry, min_size=len(gens), max_size=len(gens)),
                                max_size=6)):
        v = [f.zero()] * n
        for c, g in zip(coeffs, gens):
            v = [f.add(x, f.mul(c, y)) for x, y in zip(v, g)]
        vecs.append(v)
    return vecs, n


@pytest.mark.parametrize("f", FIELDS, ids=[f.name() for f in FIELDS])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_unit_complement_equals_the_greedy_choice(f, data):
    vecs, n = data.draw(spans(f))
    assert unit_complement(f, vecs, n) == _greedy_complement(f, vecs, n)


@pytest.mark.parametrize("f", FIELDS, ids=[f.name() for f in FIELDS])
def test_unit_complement_keeps_the_earliest_position(f):
    # the free column of a forward rref of span{(1, 1)} would be position 1
    assert unit_complement(f, [[f.one(), f.one()]], 2) == [0]
    assert unit_complement(f, [], 3) == [0, 1, 2]


def _modules(fixture):
    a = build_algebra(load_fixture(fixture))
    nodes = knit(a, 40).nodes
    assert nodes
    yield from nodes
    few = nodes[:6]
    for i, x in enumerate(few):
        for y in few[i:]:
            yield direct_sum(a, [x, y])
        for y in few:
            for h in hom_basis(x, y):
                yield kernel_of(h)[0]
                yield cokernel_of(h)


@pytest.mark.parametrize("fixture", FINITE_FIXTURES)
def test_top_generator_slots_equal_the_greedy_choice(fixture):
    for m in _modules(fixture):
        f = m.algebra.field
        rad = radical_spans(m)
        expected = [(v, c) for v, d in enumerate(m.dims)
                    for c in _greedy_complement(f, rad[v], d)]
        # the cover's generators go to the unit vectors at those positions
        units = [[f.one() if i == c else f.zero() for i in range(m.dims[v])]
                 for v, c in expected]
        psum, epi = projective_cover(m)
        assert psum.verts == [v for v, _ in expected], m.label
        assert psum.generator_images(epi) == units, m.label


def _bimodules():
    for fixture in FINITE_FIXTURES:
        a = build_algebra(load_fixture(fixture))
        sum3 = direct_sum(a, [projective(a, v) for v in a.vertices[:3]])
        for c in (a, one_point_extension(a, sum3)):
            try:
                yield ext2_bimodule(c)
            except ExtensionError:
                continue


def test_arrow_positions_equal_the_greedy_choice():
    seen = 0
    for e in _bimodules():
        a = e.algebra
        left, right = dense_actions(e)
        images = [mat.column(j) for r in a.radical for mat in (left[r], right[r])
                  for j in range(mat.cols)]
        assert e.arrow_positions() == _greedy_complement(a.field, images, e.dim)
        seen += bool(e.dim)
    assert seen >= 2
