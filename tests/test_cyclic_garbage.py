"""The hot paths leave no reference cycles behind.

Garbage that only the cyclic collector frees stays allocated until a
collection runs, which raises the peak memory of long computations.  With
the collector off, `gc.collect()` after each call counts the objects that
the call left in unreachable cycles; it must be 0.  The algebra is built and
warmed first, so its own caches (the opposite algebra, resolutions), which
stay reachable from it, do not count.
"""

import gc

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import knit
from quiverkit.corpus import load_fixture
from quiverkit.extensions import ext2_bimodule
from quiverkit.repmod import projective, right_multiples


def _cyclic_garbage(call):
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()


def test_right_multiples_ext2_bimodule_and_knit_leave_no_cycles():
    a = build_algebra(load_fixture("d4_tilted.q"))
    p = projective(a, a.vertices[0])
    vec = [a.field.one()] * p.dims[0]
    for call in (lambda: right_multiples(p, 0, vec), lambda: ext2_bimodule(a),
                 lambda: knit(a, 40)):
        call()
        assert _cyclic_garbage(call) == 0
    fresh = build_algebra(load_fixture("d4_tilted.q"))
    assert _cyclic_garbage(lambda: knit(fresh, 40)) == 0
