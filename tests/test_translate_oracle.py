"""`transpose`, `tau` and `tau_inv` against the route they replaced, kept as
their oracle, and the pieces under them against theirs.

The old route built Tr M as a cokernel over the opposite algebra: the
projective sums Q0 and Q1 over A^op on the vertices of P0 and P1, the map
Q0 -> Q1 whose generator images are the summand parts of d1's generator
images, side by side (`psum_map` over A^op), and its `cokernel_of`.  tau
was `dual_module` of that, relabelled over A, and tau^-1 the transpose of
the dual, relabelled.  Here d1 is the eager map, its generator images read
from its columns, and the kernel span is `echelon(kernel_basis(b))`.
The new route must give the same module: dims, every matrix and the label,
also the zero module of a projective or an injective.  On every node of the
complete knits of the four finite fixtures, linear A8, linear Nakayama
(12,3) and cyclic Nakayama (6,4) and (2,6), over Q, GF(32003), GF(3) and
GF(2).

Also:
- `linalg.kernel_echelon` against `echelon` of `kernel_basis`, on
  hypothesis-drawn matrices, with no rows or no columns among them;
- `_build_projective`, read from the sparse table, against products
  `mul_vec(b_k, rho)`, on every vertex of the algebras of
  `test_algebra.graded_algebras`;
- a map from `psum_map`, which builds its blocks on first read, against
  the eager `from_columns` construction, and its `generator_images`
  against column reads.
"""

import pytest
from hypothesis import given, settings, strategies as st

from quiverkit.homology import tau, tau_inv, transpose
from quiverkit.linalg import Matrix, echelon, kernel_basis, kernel_echelon
from quiverkit.repmod import (
    Module,
    ModuleMap,
    _build_projective,
    cokernel_of,
    dual_module,
    kernel_cover,
    projective_cover,
    projective_sum,
    psum_map,
    right_multiples,
    zero_module,
)
from test_algebra import graded_algebras
from test_knit_sequence_oracle import FIELDS, FIXTURES, _knit
from test_linalg_oracle import FIELDS as LINALG_FIELDS, FIELD_IDS, matrices

NAMES = FIXTURES + ["A8", "nakayama_12_3", "cyclic_6_4", "cyclic_2_6"]


def _old_presentation(m):
    """(P0, P1, d1) of m's minimal presentation, d1 eager and its kernel
    span taken by two eliminations; None when m is projective."""
    f = m.algebra.field
    p0, epi = projective_cover(m)
    span = [echelon(f, kernel_basis(b), b.cols) for b in epi.blocks]
    if not any(rows for rows, _ in span):
        return None
    p1, d1 = kernel_cover(p0.module, span)
    return p0, p1, ModuleMap(d1.source, d1.target, list(d1.blocks))


def _old_transpose(m):
    op = m.algebra.opposite()
    pres = _old_presentation(m)
    if pres is None:
        return zero_module(op)
    p0, p1, d1 = pres
    q0 = projective_sum(op, p0.verts)
    q1 = projective_sum(op, p1.verts)
    parts = p0.parts(p1.verts, p1.generator_images(d1))
    gen_images = [[x for part in parts for x in part[alpha]] for alpha in range(len(p0.verts))]
    return cokernel_of(psum_map(q0, q1.module, gen_images), label=f"Tr {m.label}")


def _old_tau(m):
    out = dual_module(_old_transpose(m))
    return Module(m.algebra, out.dims, out.mats, label=f"tau {m.label}")


def _old_tau_inv(m):
    t = _old_transpose(dual_module(m))
    return Module(m.algebra, t.dims, t.mats, label=f"tau- {m.label}")


def _shape(m):
    return (m.algebra, m.dims, m.label,
            {name: (x.rows, x.cols, x.data) for name, x in m.mats.items()})


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_translates_match_the_cokernel_route(name, field):
    frag = _knit(name, field)
    zeros = set()
    for m in frag.nodes:
        for new, old in ((transpose, _old_transpose), (tau, _old_tau), (tau_inv, _old_tau_inv)):
            out = new(m)
            assert _shape(out) == _shape(old(m)), (new.__name__, m.label)
            if out.is_zero():
                zeros.add(new.__name__)
    # every knit has projectives and injectives, whose translates are zero
    assert zeros == {"transpose", "tau", "tau_inv"}


@pytest.mark.parametrize("field", LINALG_FIELDS, ids=FIELD_IDS)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_echelon_is_the_echelon_of_the_kernel(field, data):
    rows, cols = data.draw(matrices(field))
    b = Matrix(field, rows, len(rows), cols)
    assert kernel_echelon(b) == echelon(field, kernel_basis(b), cols)


@pytest.mark.parametrize("field", LINALG_FIELDS, ids=FIELD_IDS)
def test_kernel_echelon_of_an_empty_block(field):
    for r, c in ((0, 0), (0, 3), (3, 0)):
        b = Matrix.zeros(field, r, c)
        assert kernel_echelon(b) == echelon(field, kernel_basis(b), c)


def test_projectives_from_the_table_match_the_products():
    algebras = graded_algebras()
    for a in algebras:
        for v in a.vertices:
            per_vertex = a.between[a.vertex_index(v)]
            p = _build_projective(a, v)
            for rep in a.arrow_reps:
                products = [a.mul_vec(a.unit(k), list(rep.vector)) for k in per_vertex[rep.source]]
                assert p.mats[rep.name].data == [[x[k2] for x in products]
                                                 for k2 in per_vertex[rep.target]]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lazy_map_blocks_match_the_eager_construction(data):
    frag = _knit(data.draw(st.sampled_from(FIXTURES)), data.draw(st.sampled_from(FIELDS)))
    a = frag.algebra
    f = a.field
    n = len(a.vertices)
    target = data.draw(st.sampled_from(frag.nodes))
    verts = data.draw(st.lists(st.integers(0, n - 1), max_size=4))
    scalars = st.integers(0, 2).map(f.from_int)
    images = [data.draw(st.lists(scalars, min_size=target.dims[v], max_size=target.dims[v]))
              for v in verts]
    psum = projective_sum(a, verts)
    lazy = psum_map(psum, target, images)
    assert "blocks" not in vars(lazy)
    assert psum.generator_images(lazy) is images
    columns = [[] for _ in range(n)]
    for image, v in zip(images, verts):
        for k, col in right_multiples(target, v, image).items():
            columns[a.target[k]].append(col)
    eager = [Matrix.from_columns(f, cols, d) for cols, d in zip(columns, target.dims)]
    assert lazy.blocks == eager
    assert psum.generator_images(ModuleMap(psum.module, target, eager)) == images
