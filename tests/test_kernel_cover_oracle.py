"""`kernel_cover` against the route it replaced, kept as its oracle.

A resolution step used to build the kernel K of a map f as a module
(`kernel_of`), cover it and compose the cover with K's inclusion.  The
cover sent the generators of its summands to the unit vectors that complete
the radical span at each vertex (`radical_spans`, `unit_complement`).
`kernel_cover(f.source, kernel_span(f))` must give the same projective sum
and the same map, block for block, on:
- every augmentation and differential of the resolutions of the knit nodes
  and of sums of two of them;
- Hom basis maps between knit nodes, and maps M + M -> N made of two;
- an injective map, whose kernel is covered by the empty sum.
`projective_cover(M)`, the `kernel_cover` of the whole of M, must give the
oracle's cover of M on the knit nodes and on those sums.
Over the rationals and three primes, small ones included.
"""

import pytest

from quiverkit.arquiver import knit
from quiverkit.homology import min_resolution
from quiverkit.linalg import Matrix, unit_complement
from quiverkit.repmod import (
    ModuleMap,
    direct_sum,
    hom_basis,
    identity_map,
    kernel_cover,
    kernel_of,
    kernel_span,
    projective_cover,
    projective_sum,
    psum_map,
    radical_spans,
)
from test_repmod import FINITE_FIXTURES, _fixture_over

FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(7)"]


def _old_cover(m):
    """(verts, cover) of m by the old route: the summands' generators go to
    the unit vectors that complete the radical span."""
    f = m.algebra.field
    rad = radical_spans(m)
    slots = [(v, c) for v, d in enumerate(m.dims) for c in unit_complement(f, rad[v], d)]
    psum = projective_sum(m.algebra, [v for v, _ in slots])
    units = [[f.one() if i == c else f.zero() for i in range(m.dims[v])] for v, c in slots]
    return psum.verts, psum_map(psum, m, units)


def _oracle(fmap):
    """(verts, blocks) of incl o cover, with K built as a module."""
    ker, incl = kernel_of(fmap)
    verts, cover = _old_cover(ker)
    return verts, [b.data for b in incl.compose(cover).blocks]


def _checked(fmap):
    psum, d = kernel_cover(fmap.source, kernel_span(fmap))
    assert d.source is psum.module and d.target is fmap.source
    assert (psum.verts, [b.data for b in d.blocks]) == _oracle(fmap)
    return psum


def _checked_cover(m):
    psum, epi = projective_cover(m)
    assert epi.source is psum.module and epi.target is m
    verts, cover = _old_cover(m)
    assert (psum.verts, epi.blocks) == (verts, cover.blocks), m.label


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_kernel_cover_is_the_cover_of_the_kernel_module(name, field):
    a = _fixture_over(name, field)
    nodes = knit(a, 40).nodes
    assert nodes
    covered = 0
    for m in nodes:
        _checked_cover(m)
        res = min_resolution(m, 3)
        for fmap in [res.aug] + res.diffs:
            covered += bool(_checked(fmap).verts)
    assert covered
    for m in nodes[:6]:
        for n in nodes[:6]:
            # sums repeat summands, so a kernel has several generators at a
            # vertex and several dimensions at a pivot
            mn = direct_sum(a, [m, n])
            _checked_cover(mn)
            res = min_resolution(mn, 2)
            for fmap in [res.aug] + res.diffs:
                _checked(fmap)
            hs = hom_basis(m, n)
            for h in hs:
                _checked(h)
            if hs:
                mm = direct_sum(a, [m, m])
                f = a.field
                _checked(ModuleMap(mm, n, [Matrix(f, [x + y for x, y in zip(b.data, c.data)],
                                                  b.rows, 2 * b.cols)
                                           for b, c in zip(hs[0].blocks, hs[-1].blocks)]))
    assert _checked(identity_map(nodes[0])).verts == []
