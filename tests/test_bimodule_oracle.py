"""The Ext^2 bimodule's actions against a reference route, and its axioms.

`ext2_bimodule` builds the actions of the arrow representatives only and
lets every basis element act through the arrow words of its basis
expression, on the bimodule's rows and columns; `dense_actions` places
those actions into one matrix on E per basis element.  The reference below is the direct route: one chain lift per
basis element and one class read per cocycle, composing module maps.
Both must give the same matrix for every basis element, on every fixture of
global dimension at most 2 and on its one-point extensions by each P(v),
S(v) and I(v), over the rationals and three prime fields, and on the
larger one-point extensions C_M of the cluster-tilted pipeline, where C is
the tilted quotient of `d4_clustertilted` or `d5_clustertilted` along a
local slice and M is the sum of the slice.
"""

from functools import lru_cache

import pytest

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import (
    find_local_slices_through,
    knit,
    restrict_along_quotient,
    tilted_quotient,
)
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.extensions import ext2_bimodule, one_point_extension
from quiverkit.homology import (
    HomologyError,
    ext_group,
    global_dim,
    hom_matrix,
    lift_chain_map,
    min_resolution,
)
from quiverkit.linalg import Matrix, lincomb
from quiverkit.repmod import (
    ModuleMap,
    direct_sum,
    injective,
    projective,
    right_action,
    simple,
)
from test_yoneda_route import _ext_class

FIXTURES = ["a31_clustertilted.q", "a31_onepoint_ext.q", "d4_clustertilted.q",
            "d4_tilted.q", "d4_tilted_ext_s2.q", "d5_clustertilted.q"]
FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(7)"]


def _place(big, mat, row, col):
    """Write mat into big with its top left entry at (row, col)."""
    for big_row, mat_row in zip(big.data[row:], mat.data):
        big_row[col:col + mat.cols] = mat_row


def dense_actions(e):
    """The left and right actions of every basis element of e.algebra, as
    dim E x dim E matrices: `right_action` on e's columns and rows, each
    block placed at the positions of its blocks of E."""
    c = e.algebra
    f = c.field
    left = [Matrix.zeros(f, e.dim, e.dim) for _ in range(c.dim)]
    right = [Matrix.zeros(f, e.dim, e.dim) for _ in range(c.dim)]
    for (i, j), t in e.start.items():
        for k, mat in right_action(e.rows[i], j).items():  # (i, j) -> (i, target(b_k))
            _place(right[k], mat, e.start[(i, c.target[k])], t)
        for k, mat in right_action(e.cols[j], i).items():  # (i, j) -> (source(b_k), j)
            _place(left[k], mat, e.start[(c.source[k], j)], t)
    return left, right


def _reference_actions(c, bimodule):
    """The left and right matrices of every basis element of c on
    bimodule's basis: b_k . - and D(- . b_k) are built for each b_k, the
    right action lifts D(- . b_k) to the resolutions, and each composed
    cocycle is read back from its generator coordinates."""
    f = c.field
    n = len(c.vertices)
    projs = [projective(c, v) for v in c.vertices]
    injs = [injective(c, v) for v in c.vertices]
    res = [min_resolution(injs[j], 3) for j in range(n)]
    groups = {(i, j): ext_group(injs[j], projs[i], 2, res[j])
              for j in range(n) for i in range(n)}
    basis = [(i, j, u) for (i, j), g in groups.items() for u in range(len(g.reps))]
    pos = {key: p for p, key in enumerate(basis)}
    assert [(i, j) for i, j, _ in basis] == bimodule.blocks
    dim = len(basis)
    on_inj = [[right_action(injs[v], s) for s in range(n)] for v in range(n)]
    on_proj = [[right_action(projs[v], s) for s in range(n)] for v in range(n)]
    left, right = [], []
    for k in range(c.dim):
        s, t = c.source[k], c.target[k]
        lm, rm = Matrix.zeros(f, dim, dim), Matrix.zeros(f, dim, dim)
        lam = ModuleMap(projs[t], projs[s], [on_inj[v][s][k].transpose() for v in range(n)])
        mu = ModuleMap(injs[t], injs[s], [on_proj[v][s][k].transpose() for v in range(n)])
        p2 = res[t].term_module(2)
        lam2 = (lift_chain_map(mu, res[t], res[s], 2)[2]
                if dim and p2 is not None and not p2.is_zero() else None)
        for p, (i, j, u) in enumerate(basis):
            rep = groups[(i, j)].reps[u]
            if i == t:
                for u2, x in enumerate(_ext_class(groups[(s, j)], lam.compose(rep))):
                    lm.data[pos[(s, j, u2)]][p] = x
            if j == s and lam2 is not None:
                for u2, x in enumerate(_ext_class(groups[(i, t)], rep.compose(lam2))):
                    rm.data[pos[(i, t, u2)]][p] = x
        left.append(lm)
        right.append(rm)
    return left, right


@lru_cache(maxsize=None)
def _cases(name, field):
    """(label, algebra, bimodule) for the fixture and its one-point
    extensions by each P(v), S(v) and I(v), where the global dimension is
    at most 2."""
    a = build_algebra(_load_presentation(fixture_path(name), field))
    algebras = [("base", a)] + [
        (f"{tag}({v})", one_point_extension(a, make(a, v)))
        for v in a.vertices
        for tag, make in (("P", projective), ("S", simple), ("I", injective))]
    out = []
    for label, c in algebras:
        gd = global_dim(c, cap=3)
        if gd is not None and gd <= 2:
            out.append((label, c, ext2_bimodule(c)))
    return out


@lru_cache(maxsize=None)
def _slice_cases(name, field):
    """(label, C_M, bimodule) for the first two local slices through P(1)."""
    b = build_algebra(_load_presentation(fixture_path(name), field))
    frag = knit(b, 60)
    out = []
    for sl in find_local_slices_through(b, frag, frag.find(projective(b, b.vertices[0])))[:2]:
        mods = [frag.nodes[i] for i in sl]
        c = tilted_quotient(b, mods).quotient
        cm = one_point_extension(c, restrict_along_quotient(direct_sum(b, mods), c))
        out.append((f"slice {sl}", cm, ext2_bimodule(cm)))
    return out


def test_the_cases_cover_every_field_and_some_bimodule():
    for field in FIELDS:
        cases = [case for name in FIXTURES for case in _cases(name, field)]
        assert len(cases) >= 20
        assert sum(e.dim for _, _, e in cases) > 0


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_actions_match_the_reference_route(name, field):
    for label, c, e in _cases(name, field):
        left, right = _reference_actions(c, e)
        e_left, e_right = dense_actions(e)
        for k in range(c.dim):
            assert e_left[k] == left[k], (label, c.labels[k])
            assert e_right[k] == right[k], (label, c.labels[k])


@pytest.mark.parametrize("name,field", [("d4_clustertilted.q", "rational"),
                                        ("d5_clustertilted.q", "gf(7)")])
def test_whole_slice_extensions_match_the_reference_route(name, field):
    for label, c, e in _slice_cases(name, field):
        assert e.dim > 10
        left, right = _reference_actions(c, e)
        e_left, e_right = dense_actions(e)
        assert e_left == left and e_right == right, label
        for x in range(c.dim):
            for y in range(c.dim):
                assert e_left[x] @ e_right[y] == e_right[y] @ e_left[x], (label, x, y)


def _action(f, mats, vec):
    return lincomb(f, mats[0].rows, mats[0].cols, list(zip(vec, mats)))


@pytest.mark.parametrize("field", FIELDS)
@pytest.mark.parametrize("name", FIXTURES)
def test_bimodule_axioms(name, field):
    for label, c, e in _cases(name, field):
        if not e.dim:
            continue
        f = c.field
        left, right = dense_actions(e)
        for x in range(c.dim):
            for y in range(c.dim):
                # the two actions commute
                assert left[x] @ right[y] == right[y] @ left[x], (label, x, y)
                # left is multiplicative and right anti-multiplicative
                xy = c.mul_vec(c.unit(x), c.unit(y))
                assert _action(f, left, xy) == left[x] @ left[y], (label, x, y)
                assert _action(f, right, xy) == right[y] @ right[x], (label, x, y)


def test_batch_classes_reject_a_non_cocycle_column():
    # over d4_tilted_ext_s2, some maps out of the first term of an
    # injective's resolution do not vanish on the image of d_2
    c = build_algebra(_load_presentation(fixture_path("d4_tilted_ext_s2.q"), "rational"))
    f = c.field
    seen = 0
    for v in c.vertices:
        res = min_resolution(injective(c, v), 3)
        if len(res.terms) < 3:
            continue
        for w in c.vertices:
            g = ext_group(injective(c, v), projective(c, w), 1, res)
            h = hom_matrix(res.diffs[1], res.terms[2], res.terms[1], projective(c, w))
            for t in range(h.cols):
                unit = [f.one() if r == t else f.zero() for r in range(h.cols)]
                if any(h.column(t)):
                    seen += 1
                    with pytest.raises(HomologyError):
                        g.classes_of([unit])
                    with pytest.raises(HomologyError):
                        g.classes_of(g.cocycles + [unit])
                else:
                    assert len(g.classes_of([unit])[0]) == len(g.reps)
    assert seen
