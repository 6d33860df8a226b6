import pytest

from quiverkit.algebra import build_algebra
from quiverkit.arquiver import knit
from quiverkit.cli import _load_presentation, fixture_path
from quiverkit.homology import (
    HomologyError,
    Resolution,
    ext_dim,
    ext_group,
    global_dim,
    inj_dim,
    lift_chain_map,
    min_resolution,
    proj_dim,
    start_resolution,
    tau,
    tau_inv,
    transpose,
)
from quiverkit.repmod import (
    Module,
    combine_maps,
    direct_sum,
    dual_module,
    hom_basis,
    injective,
    is_isomorphic,
    projective,
    projective_sum,
    simple,
)
from test_repmod import FINITE_FIXTURES, _fixture_over
from test_yoneda_route import _ext_class, _unit_maps


def test_resolution_shape_and_minimality(alg_b):
    res = min_resolution(simple(alg_b, "2"), 4)
    assert [alg_b.vertices[v] for v in res.terms[0].verts] == ["2"]
    assert [alg_b.vertices[v] for v in res.terms[1].verts] == ["4"]
    for k in range(len(res.diffs) - 1):
        comp = res.diffs[k].compose(res.diffs[k + 1])
        assert all(b.is_zero() for b in comp.blocks)
    # minimality: each differential lands inside the radical of its target
    from quiverkit.linalg import SpanTracker
    from quiverkit.repmod import radical_spans
    for k, d in enumerate(res.diffs):
        target = res.terms[k].module
        rad = radical_spans(target)
        for v in range(len(target.dims)):
            span = SpanTracker(alg_b.field)
            for vec in rad[v]:
                span.add(vec)
            for col in range(d.blocks[v].cols):
                assert span.contains(d.blocks[v].column(col))


def test_resolution_cached(alg_b):
    m = simple(alg_b, "2")
    r1 = min_resolution(m, 3)
    r2 = min_resolution(m, 3)
    assert r1 is r2


def test_ext_zero_is_hom(alg_b):
    m = projective(alg_b, "1")
    n = injective(alg_b, "4")
    d, reps = ext_dim(m, n, 0)
    assert d == len(hom_basis(m, n))


def test_ext_vanishes_on_projectives(alg_b):
    for v in alg_b.vertices:
        p = projective(alg_b, v)
        for k in (1, 2, 3):
            for w in alg_b.vertices:
                d, _ = ext_dim(p, simple(alg_b, w), k)
                assert d == 0


def test_ext2_concentration_over_tilted(alg_c):
    total = 0
    for i in alg_c.vertices:
        for j in alg_c.vertices:
            d, reps = ext_dim(simple(alg_c, i), simple(alg_c, j), 2)
            total += d
            assert d == (1 if (i, j) == ("1", "4") else 0)
    assert total == 1


def test_ext_agrees_with_padded_resolution(alg_c):
    # oracle: a non-minimal resolution (contractible summand added in two
    # consecutive degrees) must give the same Ext dimensions
    from quiverkit.linalg import Matrix
    from quiverkit.repmod import ModuleMap

    m = simple(alg_c, "1")
    res = min_resolution(m, 3)
    extra_vertex = 0  # pad with P(1)
    f = alg_c.field

    def pad_sum(psum):
        verts = list(psum.verts) + [extra_vertex]
        return projective_sum(alg_c, verts)

    p0m, p1m = res.terms[0], res.terms[1]
    p0 = pad_sum(p0m)
    p1 = pad_sum(p1m)
    pad = projective(alg_c, alg_c.vertices[extra_vertex])

    def block_diag(map01, src_sum, tgt_sum, idblock):
        blocks = []
        for v in range(len(alg_c.vertices)):
            a = map01.blocks[v]
            d = idblock.dims[v]
            big = Matrix.zeros(f, a.rows + d, a.cols + d)
            for i in range(a.rows):
                for j in range(a.cols):
                    big.data[i][j] = a.data[i][j]
            for i in range(d):
                big.data[a.rows + i][a.cols + i] = f.one()
            blocks.append(big)
        return ModuleMap(src_sum.module, tgt_sum.module, blocks)

    d1 = block_diag(res.diffs[0], p1, p0, pad)
    # augmentation: original on the first block, zero on the pad
    aug_blocks = []
    for v in range(len(alg_c.vertices)):
        a = res.aug.blocks[v]
        big = Matrix.zeros(f, a.rows, a.cols + pad.dims[v])
        for i in range(a.rows):
            for j in range(a.cols):
                big.data[i][j] = a.data[i][j]
        aug_blocks.append(big)
    aug = ModuleMap(p0.module, m, aug_blocks)
    # degree-2 term with the original differential followed by inclusion
    p2 = res.terms[2]
    d2_blocks = []
    for v in range(len(alg_c.vertices)):
        a = res.diffs[1].blocks[v]
        big = Matrix.zeros(f, a.rows + pad.dims[v], a.cols)
        for i in range(a.rows):
            for j in range(a.cols):
                big.data[i][j] = a.data[i][j]
        d2_blocks.append(big)
    d2 = ModuleMap(p2.module, p1.module, d2_blocks)
    padded = Resolution(m, [p0, p1, p2], [d1, d2], aug)

    for j in alg_c.vertices:
        target = simple(alg_c, j)
        for k in (1, 2):
            want, _ = ext_dim(m, target, k)
            got, _ = ext_dim(m, target, k, resolution=padded)
            assert got == want


def test_ext_extends_a_short_resolution(frag_c):
    # a resolution passed before it reaches P_k is extended, not read as
    # ending there, which would make Ext^k vanish
    nonzero = 0
    for m in frag_c.nodes:
        for n in frag_c.nodes:
            want = ext_group(m, n, 2)
            got = ext_group(m, n, 2, resolution=start_resolution(m))
            assert got.cocycles == want.cocycles
            nonzero += len(want.cocycles)
    assert nonzero


def test_a_resolution_of_another_module_is_refused():
    # read as resolutions of S(2) and S(4), those of I(1) would give
    # Ext^1(S(2), S(3)) = k and tau S(4) of dimension vector (1, 1, 1, 0);
    # both are 0
    a = _fixture_over("d4_tilted.q", "rational")
    s2, s3, s4, i1 = simple(a, "2"), simple(a, "3"), simple(a, "4"), injective(a, "1")
    assert ext_dim(s2, s3, 1)[0] == 0 and tau(s4).is_zero()
    with pytest.raises(HomologyError, match="resolution"):
        ext_dim(s2, s3, 1, resolution=min_resolution(i1, 2))
    with pytest.raises(HomologyError, match="resolution"):
        tau(s4, min_resolution(i1, 1))
    # the resolution of a module with the same key is accepted
    assert tau(s4, min_resolution(simple(a, "4"), 1)).is_zero()


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
@pytest.mark.parametrize("name", ["d4_tilted.q", "d4_tilted_ext_s2.q"])
def test_ext_classes_are_coordinates_over_the_representatives(name, field):
    a = build_algebra(_load_presentation(fixture_path(name), field))
    f = a.field
    nodes = knit(a, 40).nodes
    seen_coboundary = seen_non_cocycle = False
    for m in nodes:
        for k in (1, 2):
            res = min_resolution(m, k + 1)
            for n in nodes:
                g = ext_group(m, n, k)
                if g.term is None:
                    continue
                units = [[f.one() if i == t else f.zero() for i in range(len(g.reps))]
                         for t in range(len(g.reps))]
                # a generic coboundary psi o d_k
                psis = _unit_maps(res.terms[k - 1], n)
                bnd = combine_maps([f.from_int(c + 2) for c in range(len(psis))],
                                   [psi.compose(res.diffs[k - 1]) for psi in psis],
                                   g.term.module, n)
                seen_coboundary |= any(x != f.zero() for x in bnd.flatten())
                for t, r in enumerate(g.reps):
                    assert _ext_class(g, r) == units[t]
                    moved = combine_maps([f.one(), f.one()], [r, bnd], g.term.module, n)
                    assert _ext_class(g, moved) == units[t]
                # maps out of P_k that do not vanish on the image of d_{k+1}
                if k + 1 < len(res.terms):
                    for h in _unit_maps(g.term, n):
                        if any(x != f.zero() for x in h.compose(res.diffs[k]).flatten()):
                            seen_non_cocycle = True
                            with pytest.raises(HomologyError):
                                _ext_class(g, h)
    assert seen_coboundary and seen_non_cocycle


def test_transpose_of_projective_vanishes(alg_b):
    assert transpose(projective(alg_b, "2")).is_zero()
    p = direct_sum(alg_b, [projective(alg_b, "1"), projective(alg_b, "4")])
    assert transpose(p).is_zero()


def test_transpose_squared_identity(alg_b, frag_b):
    for i, m in enumerate(frag_b.nodes):
        if i in frag_b.projective_at:
            continue
        t = transpose(m)
        tt = transpose(t)
        back = type(m)(alg_b, tt.dims, tt.mats, label="ttm")
        assert is_isomorphic(back, m)


def test_transpose_of_simple_over_a2(alg_a2):
    t = transpose(simple(alg_a2, "1"))
    # the dual of the opposite-algebra transpose is the simple at 2
    d = dual_module(t)
    assert is_isomorphic(
        type(d)(alg_a2, d.dims, d.mats, label="m"), simple(alg_a2, "2"))


def test_tau_values_on_square_with_return(alg_b):
    assert is_isomorphic(tau(simple(alg_b, "2")), projective(alg_b, "3"))
    assert is_isomorphic(tau_inv(projective(alg_b, "2")), simple(alg_b, "3"))
    for v in alg_b.vertices:
        assert tau(projective(alg_b, v)).is_zero()
        assert tau_inv(injective(alg_b, v)).is_zero()


def test_tau_round_trips(alg_b, frag_b):
    for i, m in enumerate(frag_b.nodes):
        if i not in frag_b.projective_at:
            assert is_isomorphic(tau_inv(tau(m)), m)
        if i not in frag_b.injective_at:
            assert is_isomorphic(tau(tau_inv(m)), m)


def test_ext1_against_translate_is_nonzero(alg_b, frag_b):
    # each almost split sequence forces a nonvanishing degree-1 extension
    for i, m in enumerate(frag_b.nodes):
        if i in frag_b.projective_at:
            continue
        d, _ = ext_dim(m, tau(m), 1)
        assert d >= 1


def test_proj_dim_values(alg_b, alg_c):
    assert proj_dim(projective(alg_b, "1"), 5) == 0
    assert global_dim(alg_c, 5) == 2
    assert proj_dim(simple(alg_c, "1"), 5) == 2
    assert inj_dim(simple(alg_c, "4"), 5) == 2


def test_slice_modules_have_small_dims(alg_c, frag_c):
    sigma = [frag_c.find(projective(alg_c, v)) for v in "123"]
    sigma.append(frag_c.node_by_label("2 3/4"))
    for i in sigma:
        m = frag_c.nodes[i]
        assert (proj_dim(m, 5) or 0) <= 1
        assert (inj_dim(m, 5) or 0) <= 1


def test_global_dim_capped():
    # an algebra of infinite global dimension reports the sentinel
    from quiverkit.quiver import parse_presentation
    from quiverkit.algebra import build_algebra
    a = build_algebra(parse_presentation(
        "field: rational\nvertices: 1\narrows: x: 1 -> 1\nrelations: x*x\n"))
    assert global_dim(a, 6) is None


def test_lift_chain_map_identity(alg_c):
    m = simple(alg_c, "1")
    res = min_resolution(m, 3)
    from quiverkit.repmod import identity_map
    lifts = lift_chain_map(identity_map(m), res, res, 2)
    for k in (0, 1, 2):
        lam = lifts[k]
        if res.term_module(k) is None or res.term_module(k).is_zero():
            assert lam is None
        else:
            assert lam is not None and lam.is_invertible()


# ---------------------------------------------------------------------------
# a syzygy is computed when its resolution is extended past it


def _shape(res):
    """The terms and differentials of res, comparable across algebras."""
    return ([(t.verts, t.module.key()) for t in res.terms],
            [[b.data for b in d.blocks] for d in [res.aug] + res.diffs])


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_resolution_grown_in_steps_equals_one_grown_at_once(name, field):
    fresh = _fixture_over(name, field)
    for m in knit(_fixture_over(name, field), 40).nodes:
        res = start_resolution(m)
        for length in (1, 2, 3):
            res.extend(length)
            assert len(res.diffs) == len(res.terms) - 1
            assert len(res.terms) - 1 <= len(res.spans) <= len(res.terms)
        ref = min_resolution(Module(fresh, m.dims, m.mats), 3)
        assert len(ref.diffs) == len(ref.terms) - 1
        assert _shape(res) == _shape(ref)


def _eager_proj_dim(m, cap):
    """Oracle: the least k whose (k+1)-th syzygy vanishes, syzygy by syzygy."""
    from quiverkit.repmod import kernel_of, projective_cover
    syz = m
    for k in range(cap + 1):
        syz, _ = kernel_of(projective_cover(syz)[1])
        if syz.is_zero():
            return k
    return None


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_proj_dim_reads_the_last_syzygy(name, field):
    nodes = knit(_fixture_over(name, field), 40).nodes
    for cap in (1, 2, 10):
        fresh = _fixture_over(name, field)
        for m in nodes:
            assert proj_dim(Module(fresh, m.dims, m.mats), cap) == _eager_proj_dim(m, cap)


def test_global_dims_of_the_euler_form_algebras():
    from test_euler_form import NAMES, _algebra
    assert [global_dim(_algebra(name, "rational")) for name in NAMES] == [1, 5, 2, 2]


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_transpose_computes_one_kernel(name, field, monkeypatch):
    import quiverkit.homology as homology
    nodes = knit(_fixture_over(name, field), 40).nodes
    is_projective = [proj_dim(m, 1) == 0 for m in nodes]
    spans, covers = [], []
    real_span, real_cover = homology.kernel_span, homology.kernel_cover
    monkeypatch.setattr(homology, "kernel_span",
                        lambda *a: spans.append(a) or real_span(*a))
    monkeypatch.setattr(homology, "kernel_cover",
                        lambda *a: covers.append(a) or real_cover(*a))
    for m, proj in zip(nodes, is_projective):
        spans.clear()
        covers.clear()
        transpose(m)
        assert len(spans) == 1
        assert len(covers) == (0 if proj else 1)
