"""Maps out of projective sums in generator coordinates, checked against the
generic commutation-system route `hom_basis` and against composition of
module maps on the AR-quiver nodes of the finite fixtures, over the
rationals and a large prime."""

from functools import lru_cache

import pytest

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import knit
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.homology import ext_dim, hom_matrix, lift_chain_map, min_resolution
from quiverkit.linalg import SpanTracker
from quiverkit.repmod import hom_basis, kernel_of

CASES = [(name, field)
         for name in ("d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q")
         for field in ("rational", "gf(32003)")]


@lru_cache(maxsize=None)
def _nodes(name, field):
    a = build_algebra(_load_presentation(fixture_path(name), field))
    frag = knit(a, 40)
    assert frag.complete
    return frag.nodes


def _unit_maps(p, n):
    """The maps out of the projective sum p into n that send one generator
    coordinate to 1 and every other to 0."""
    f = n.algebra.field
    size = sum(n.dims[v] for v in p.verts)
    return [p.map_with_coordinates(n, [f.one() if i == t else f.zero() for i in range(size)])
            for t in range(size)]


def _coordinates(p, fmap):
    """The generator coordinates of fmap, a map out of the projective sum p:
    its concatenated generator images, checked to determine fmap."""
    coords = [x for img in p.generator_images(fmap) for x in img]
    assert p.map_with_coordinates(fmap.target, coords).blocks == fmap.blocks
    return coords


def _ext_class(group, cocycle):
    """The coordinates over group.reps of the class of a cocycle out of
    group.term, read from its generator coordinates by `classes_of`."""
    return group.classes_of([_coordinates(group.term, cocycle)])[0]


def _hom_dim(m, n):
    return 0 if m is None else len(hom_basis(m, n))


@pytest.mark.parametrize("name,field", CASES)
def test_ext_dims_match_hom_dimension_counts(name, field):
    # 0 -> Hom(M, N) -> Hom(P0, N) -> Hom(OM, N) -> Ext^1(M, N) -> 0, and
    # Ext^2(M, N) = Ext^1(OM, N) with OM the first syzygy
    nodes = _nodes(name, field)
    for m in nodes:
        res = min_resolution(m, 3)
        omega = kernel_of(res.aug)[0]
        omega2 = kernel_of(res.diffs[0])[0] if res.diffs else None
        p0, p1 = [res.term_module(k) for k in (0, 1)]
        for n in nodes:
            ext1 = _hom_dim(omega, n) - _hom_dim(p0, n) + _hom_dim(m, n)
            ext2 = _hom_dim(omega2, n) - _hom_dim(p1, n) + _hom_dim(omega, n)
            assert ext_dim(m, n, 1)[0] == ext1
            assert ext_dim(m, n, 2)[0] == ext2


def _is_zero_or_none(fmap):
    return fmap is None or all(b.is_zero() for b in fmap.blocks)


def _same(lhs, rhs):
    if _is_zero_or_none(lhs) or _is_zero_or_none(rhs):
        return _is_zero_or_none(lhs) and _is_zero_or_none(rhs)
    return lhs.blocks == rhs.blocks


@pytest.mark.parametrize("name,field", CASES)
def test_chain_lifts_commute(name, field):
    nodes = _nodes(name, field)[:6]
    for m in nodes:
        res_m = min_resolution(m, 3)
        for n in nodes:
            res_n = min_resolution(n, 3)
            for g in hom_basis(m, n):
                lifts = lift_chain_map(g, res_m, res_n, 2)
                assert _same(res_n.aug.compose(lifts[0]), g.compose(res_m.aug))
                for k in (1, 2):
                    if lifts[k] is None:
                        continue
                    post = res_n.diffs[k - 1].compose(lifts[k])
                    want = (None if lifts[k - 1] is None
                            else lifts[k - 1].compose(res_m.diffs[k - 1]))
                    assert _same(post, want)


@pytest.mark.parametrize("name,field", CASES)
def test_yoneda_basis_spans_hom(name, field):
    nodes = _nodes(name, field)
    for m in nodes:
        for p in min_resolution(m, 3).terms:
            for n in nodes:
                generic = hom_basis(p.module, n)
                yoneda = _unit_maps(p, n)
                assert len(yoneda) == len(generic)
                span = SpanTracker(n.algebra.field)
                for h in generic:
                    span.add(h.flatten())
                for t, y in enumerate(yoneda):
                    assert span.contains(y.flatten())
                    coords = _coordinates(p, y)
                    assert coords == [int(i == t) for i in range(len(yoneda))]


@pytest.mark.parametrize("name,field", CASES)
def test_hom_matrix_is_precomposition_with_the_differential(name, field):
    nodes = _nodes(name, field)
    for m in nodes:
        res = min_resolution(m, 3)
        for k, d in enumerate(res.diffs):
            src, tgt = res.terms[k + 1], res.terms[k]
            for n in nodes:
                h = hom_matrix(d, src, tgt, n)
                assert (h.rows, h.cols) == (sum(n.dims[v] for v in src.verts),
                                            sum(n.dims[v] for v in tgt.verts))
                for t, unit in enumerate(_unit_maps(tgt, n)):
                    assert h.column(t) == _coordinates(src, unit.compose(d))
