"""The paper's operation over every input of `d4_clustertilted`.

The sweep takes each local slice of the algebra (10 of them) and each
non-empty sub-sum of its modules as M, 150 extensions, and runs
`extend_cluster_tilted` with the second knit capped at 20 nodes.  Every
report must hold.  The 30 extensions of Dynkin type D5 close their knit and
pass the local-slice check; the other 120 are representation-infinite and
report it unverified (`None`).  Each annihilator that the sweep quotients
by passes `Ideal.is_two_sided` and its full-basis saturation check.
"""

from functools import lru_cache
from itertools import combinations

import pytest

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import (
    extend_cluster_tilted,
    find_local_slices_through,
    knit,
    tilted_quotient,
)
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.repmod import direct_sum
from test_algebra import _saturates

FIELDS = ["rational", "gf(32003)"]


@lru_cache(maxsize=None)
def _setup(field):
    b = build_algebra(_load_presentation(fixture_path("d4_clustertilted.q"), field))
    frag = knit(b, 80)
    slices = sorted({s for i in range(len(frag.nodes))
                     for s in find_local_slices_through(b, frag, i)})
    return b, frag, slices


@pytest.mark.parametrize("field", FIELDS)
def test_every_extension_of_the_d4_sweep_holds(field):
    b, frag, slices = _setup(field)
    assert len(slices) == 10
    passes = []
    for sl in slices:
        sigma = [frag.nodes[i] for i in sl]
        for size in range(1, len(sl) + 1):
            for sub in combinations(sl, size):
                m = direct_sum(b, [frag.nodes[i] for i in sub])
                _, report = extend_cluster_tilted(b, sigma, m, frag=frag, node_cap=20)
                assert report.all_hold, (sl, sub)
                passes.append(report.local_slice_passes)
    assert len(passes) == 150
    assert passes.count(True) == 30 and passes.count(None) == 120


@pytest.mark.parametrize("field", FIELDS)
def test_every_annihilator_of_the_d4_sweep_is_two_sided(field):
    b, frag, slices = _setup(field)
    for sl in slices:
        ideal = tilted_quotient(b, [frag.nodes[i] for i in sl]).annihilator
        assert ideal.is_two_sided() and _saturates(ideal), sl
