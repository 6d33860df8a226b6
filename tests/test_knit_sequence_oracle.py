"""The knit builds a ready almost split sequence from the arrows it already
holds; building every sequence from its middle term is the oracle.

A sequence 0 -> tau Y -> E -> Y -> 0 is ready when the known arrows out of
tau Y balance it: their targets' dimension vectors, by multiplicity, sum to
dim Y + dim tau Y.  The knit then reads the arrows into Y off those arrows
and builds no E.  Here every sequence of each complete knit is built from
E (`almost_split_middle`, then `decompose(E, nodes)`) and must give exactly
the knit's arrows into Y, node by node and multiplicity by multiplicity.
"""

import pytest

import quiverkit.arquiver as arquiver
import quiverkit.repmod as repmod
from quiverkit.algebra import build_algebra
from quiverkit.arquiver import knit
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.homology import HomologyError, almost_split_middle, start_resolution
from quiverkit.linalg import Matrix
from quiverkit.quiver import parse_presentation
from quiverkit.repmod import (
    Module,
    decompose,
    find_isomorphic,
    module_from_json,
    module_to_json,
)

FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(2)"]
FIXTURES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q", "d5_clustertilted.q"]
NAMES = (FIXTURES + [f"A{n}" for n in range(1, 9)]
         + ["nakayama_12_3", "cyclic_3_4", "cyclic_5_3", "cyclic_6_4", "cyclic_2_6"])


def _algebra(name, field):
    if name in FIXTURES:
        return build_algebra(_load_presentation(fixture_path(name), field))
    vertices, arrows, relations = _quiver(name)
    text = f"field: {field}\nvertices: {' '.join(vertices)}\n"
    if arrows:
        text += f"arrows: {', '.join(arrows)}\n"
    if relations:
        text += f"relations: {', '.join(relations)}\n"
    return build_algebra(parse_presentation(text))


def _quiver(name):
    """Vertices, arrows and zero relations of linear A_n, linear Nakayama
    (n, k) (paths of length k vanish) and cyclic Nakayama (n, k)."""
    if name.startswith("A"):
        n, k, cyclic = int(name[1:]), None, False
    else:
        n, k = (int(x) for x in name.split("_")[1:])
        cyclic = name.startswith("cyclic")
    vertices = [str(i) for i in range(1, n + 1)]
    ends = range(1, n + 1) if cyclic else range(1, n)
    arrows = [f"a{i}: {i} -> {i % n + 1}" for i in ends]
    starts = range(1, n + 1) if cyclic else range(1, n - k + 1) if k else ()
    relations = ["*".join(f"a{(i + j - 1) % n + 1}" for j in range(k)) for i in starts]
    return vertices, arrows, relations


def _shape(frag):
    return (frag.complete, [m.dims for m in frag.nodes], frag.arrows, frag.tau_links)


_KNITS = {}


def _knit(name, field):
    if (name, field) not in _KNITS:
        frag = knit(_algebra(name, field), 200)
        assert frag.complete
        _KNITS[name, field] = frag
    return _KNITS[name, field]


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", NAMES)
def test_every_sequence_built_from_its_middle_term_gives_the_knits_arrows(name, field):
    frag = _knit(name, field)
    for y, node in enumerate(frag.nodes):
        if y in frag.projective_at:
            continue
        ty = frag.nodes[frag.tau_links[y]]
        try:
            middle = almost_split_middle(node, ty, start_resolution(node))
        except HomologyError as exc:
            # the trace form misses rad End(tau Y) in small characteristic:
            # the knit must then be the knit over the rationals
            assert field in ("gf(2)", "gf(3)") and field in str(exc)
            assert _shape(frag) == _shape(_knit(name, "rational"))
            continue
        into = {}
        for summand, mult in decompose(middle, frag.nodes):
            x = next(i for i, m in enumerate(frag.nodes) if m is summand)
            into[x] = mult
        assert into == {x: m for (x, j), m in frag.arrows.items() if j == y}


def test_both_routes_run(monkeypatch):
    built = []
    monkeypatch.setattr(arquiver, "almost_split_middle",
                        lambda *args: built.append(args) or almost_split_middle(*args))
    # every sequence of linear A8 is ready when the queue drains
    assert knit(_algebra("A8", "gf(32003)"), 200).complete
    assert built == []
    # a self-injective Nakayama algebra needs some middle terms built
    assert knit(_algebra("cyclic_6_4", "gf(32003)"), 200).complete
    assert built


def _rescaled(m, v, c):
    """m with its basis at vertex v scaled by c: the arrows into v are
    multiplied by c and the arrows out of v by c^-1."""
    a, f = m.algebra, m.algebra.field
    mats = {}
    for rep in a.arrow_reps:
        scale = f.one()
        if rep.target == v:
            scale = f.mul(scale, c)
        if rep.source == v:
            scale = f.mul(scale, f.inv(c))
        mat = m.mats[rep.name]
        mats[rep.name] = Matrix(f, [[f.mul(scale, x) for x in row] for row in mat.data],
                                cols=mat.cols)
    return Module(a, m.dims, mats)


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_find_isomorphic_certifies_an_identical_module_without_hom(field, monkeypatch):
    frag = _knit("d4_clustertilted.q", field)
    solves = []
    hom_basis = repmod.hom_basis
    monkeypatch.setattr(repmod, "hom_basis", lambda m, n: solves.append(1) or hom_basis(m, n))
    a = frag.algebra
    changed = 0
    for i, node in enumerate(frag.nodes):
        copy = module_from_json(a, module_to_json(node))
        assert copy is not node and copy.key() == node.key()
        assert find_isomorphic(frag.nodes, copy) == i
        assert solves == []
        # the same module in another basis is still found, through Hom
        for v in range(len(a.vertices)):
            other = _rescaled(node, v, a.field.from_int(2))
            if other.key() != node.key():
                assert find_isomorphic(frag.nodes, other) == i
                assert solves
                solves.clear()
                changed += 1
                break
    assert changed
