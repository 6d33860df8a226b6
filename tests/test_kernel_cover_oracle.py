"""`kernel_cover` against the route it replaced, kept as its oracle.

A resolution step used to build the kernel K of a map f as a module
(`kernel_of`), cover it (`projective_cover`) and compose the cover with K's
inclusion.  `kernel_cover(f.source, kernel_span(f))` must give the same
projective sum and the same map, block for block, on:
- every augmentation and differential of the resolutions of the knit nodes
  and of sums of two of them;
- Hom basis maps between knit nodes, and maps M + M -> N made of two;
- an injective map, whose kernel is covered by the empty sum.
Over the rationals and three primes, small ones included.
"""

import pytest

from quiverkit.arquiver import knit
from quiverkit.homology import min_resolution
from quiverkit.linalg import Matrix
from quiverkit.repmod import (
    ModuleMap,
    direct_sum,
    hom_basis,
    identity_map,
    kernel_cover,
    kernel_of,
    kernel_span,
    projective_cover,
)
from test_repmod import FINITE_FIXTURES, _fixture_over

FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(7)"]


def _oracle(fmap):
    """(verts, blocks) of incl o cover, with K built as a module."""
    ker, incl = kernel_of(fmap)
    psum, cover = projective_cover(ker)
    return psum.verts, [b.data for b in incl.compose(cover).blocks]


def _checked(fmap):
    psum, d = kernel_cover(fmap.source, kernel_span(fmap))
    assert d.source is psum.module and d.target is fmap.source
    assert (psum.verts, [b.data for b in d.blocks]) == _oracle(fmap)
    return psum


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_kernel_cover_is_the_cover_of_the_kernel_module(name, field):
    a = _fixture_over(name, field)
    nodes = knit(a, 40).nodes
    assert nodes
    covered = 0
    for m in nodes:
        res = min_resolution(m, 3)
        for fmap in [res.aug] + res.diffs:
            covered += bool(_checked(fmap).verts)
    assert covered
    for m in nodes[:6]:
        for n in nodes[:6]:
            # sums repeat summands, so a kernel has several generators at a
            # vertex and several dimensions at a pivot
            res = min_resolution(direct_sum(a, [m, n]), 2)
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
