import pytest

from quiverkit.algebra import (
    build_algebra,
    cartan_matrix,
    check_associativity,
    check_idempotents,
    gabriel_quiver,
)
from quiverkit.extensions import (
    ExtensionError,
    ext2_bimodule,
    lift_projective,
    one_point_coextension,
    one_point_extension,
    relation_extension,
    verify_extension_commutes,
)
from quiverkit.homology import ext_dim
from quiverkit.linalg import Matrix
from quiverkit.quiver import parse_presentation, quiver_isomorphism
from quiverkit.repmod import (
    Module,
    direct_sum,
    injective,
    is_isomorphic,
    projective,
    radical_of,
    simple,
    transport_module,
    zero_module,
)


def test_extension_by_zero_module(alg_b):
    ext = one_point_extension(alg_b, zero_module(alg_b))
    assert ext.dim == alg_b.dim + 1
    assert len(ext.vertices) == 5
    q = gabriel_quiver(ext)
    assert len(q.arrows) == 5  # the new vertex is isolated
    assert check_associativity(ext) and check_idempotents(ext)


def test_extension_by_projectives(alg_b):
    P = direct_sum(alg_b, [projective(alg_b, v) for v in "123"], label="P")
    ext = one_point_extension(alg_b, P)
    assert ext.dim == alg_b.dim + 1 + P.total_dim
    new_v = ext.vertices[-1]
    q = gabriel_quiver(ext)
    new_arrows = sorted((a.source, a.target) for a in q.arrows
                        if new_v in (a.source, a.target))
    assert new_arrows == [(new_v, "1"), (new_v, "2"), (new_v, "3")]
    # the new vertex is a source and its projective has radical P
    assert all(a.target != new_v for a in q.arrows)
    rad = radical_of(projective(ext, new_v))
    assert is_isomorphic(rad, transport_module(P, ext))
    assert check_associativity(ext)


def test_extension_by_simple(alg_c):
    ext = one_point_extension(alg_c, simple(alg_c, "2"))
    assert ext.dim == alg_c.dim + 2
    q = gabriel_quiver(ext)
    new_v = ext.vertices[-1]
    assert [(a.source, a.target) for a in q.arrows if a.source == new_v] == [
        (new_v, "2")]
    # matches the bundled presentation of the extended tilted algebra
    from quiverkit.corpus import load_fixture
    CM = build_algebra(load_fixture("d4_tilted_ext_s2.q"))
    perm = quiver_isomorphism(
        gabriel_quiver(ext), gabriel_quiver(CM),
        extra_matrices=([cartan_matrix(ext)], [cartan_matrix(CM)]))
    assert perm is not None and ext.dim == CM.dim


def test_coextension_by_zero(alg_b):
    ext = one_point_coextension(alg_b, zero_module(alg_b))
    assert ext.dim == alg_b.dim + 1
    assert len(gabriel_quiver(ext).arrows) == 5


def test_coextension_vertex_is_sink(alg_b):
    ext = one_point_coextension(alg_b, injective(alg_b, "1"))
    new_v = [v for v in ext.vertices if v not in alg_b.vertices][0]
    q = gabriel_quiver(ext)
    assert all(a.source != new_v for a in q.arrows)
    assert [(a.source, a.target) for a in q.arrows if a.target == new_v] == [
        ("1", new_v)]


def test_ext2_bimodule_hereditary_zero(alg_a2):
    E = ext2_bimodule(alg_a2)
    assert E.dim == 0
    R = relation_extension(alg_a2)
    assert R.dim == alg_a2.dim


def test_ext2_bimodule_blocks_over_tilted(alg_c):
    E = ext2_bimodule(alg_c)
    assert E.dim == 1
    assert E.block_dims() == {(alg_c.vertex_index("4"), alg_c.vertex_index("1")): 1}
    assert E.arrow_block_dims() == {
        (alg_c.vertex_index("4"), alg_c.vertex_index("1")): 1}


def test_ext2_bimodule_blocks_over_extended(alg_cm):
    E = ext2_bimodule(alg_cm)
    vi = alg_cm.vertex_index
    assert E.dim == 4
    assert E.block_dims() == {
        (vi("4"), vi("1")): 1, (vi("4"), vi("2")): 1,
        (vi("3"), vi("5")): 1, (vi("4"), vi("5")): 1}
    # the arrow-level top has exactly the two new arrows
    assert E.arrow_block_dims() == {(vi("4"), vi("1")): 1, (vi("4"), vi("5")): 1}


def test_ext2_blocks_match_simple_ext(alg_c, alg_cm):
    # two routes to the new-arrow count must agree: arrow-level blocks of the
    # bimodule at (i, j) against Ext^2 of the simples at (j, i)
    for a in (alg_c, alg_cm):
        E = ext2_bimodule(a)
        tops = E.arrow_block_dims()
        for i in range(len(a.vertices)):
            for j in range(len(a.vertices)):
                d, _ = ext_dim(simple(a, a.vertices[j]), simple(a, a.vertices[i]), 2)
                assert tops.get((i, j), 0) == d


def test_ext2_invariant_under_projective_extension(alg_c):
    # degree-2 extensions between old simples are unchanged by a one-point
    # extension along a projective
    P = direct_sum(alg_c, [projective(alg_c, v) for v in "123"], label="P")
    CP = one_point_extension(alg_c, P)
    for i in alg_c.vertices:
        for j in alg_c.vertices:
            d_old, _ = ext_dim(simple(alg_c, i), simple(alg_c, j), 2)
            d_new, _ = ext_dim(simple(CP, i), simple(CP, j), 2)
            assert d_old == d_new


def test_ext2_gldim_guard(alg_b):
    with pytest.raises(ExtensionError):
        ext2_bimodule(alg_b)  # cluster-tilted, infinite global dimension


def test_relation_extension_rebuilds(alg_c, alg_b):
    R = relation_extension(alg_c)
    assert R.dim == 10
    assert check_associativity(R) and check_idempotents(R)
    perm = quiver_isomorphism(
        gabriel_quiver(R), gabriel_quiver(alg_b),
        extra_matrices=([cartan_matrix(R)], [cartan_matrix(alg_b)]))
    assert perm is not None
    # the second summand squares to zero
    E = R._ext2
    na = alg_c.dim
    for t in range(E.dim):
        for u in range(E.dim):
            assert not any(R.mul_vec(R.unit(na + t), R.unit(na + u)))
    # dim R = dim C + dim E always
    assert R.dim == alg_c.dim + E.dim


def test_relation_extension_radical(alg_c):
    R = relation_extension(alg_c)
    assert set(R.radical) == set(alg_c.radical) | {alg_c.dim + t
                                                   for t in range(R.dim - alg_c.dim)}


def test_relation_extension_of_extended(alg_cm, alg_bprime):
    R = relation_extension(alg_cm)
    assert R.dim == 15
    perm = quiver_isomorphism(
        gabriel_quiver(R), gabriel_quiver(alg_bprime),
        extra_matrices=([cartan_matrix(R)], [cartan_matrix(alg_bprime)]))
    assert perm is not None


def test_ext2_c_part_dimension_shadow(alg_c):
    # the degree-2 extensions of the one-point extension restricted to old
    # projectives have the same total dimension as over the base algebra
    P = direct_sum(alg_c, [projective(alg_c, v) for v in "123"], label="P")
    CP = one_point_extension(alg_c, P)
    E_cp = ext2_bimodule(CP)
    E_c = ext2_bimodule(alg_c)
    old = [CP.vertex_index(v) for v in alg_c.vertices]
    dim_old_part = sum(d for (i, j), d in E_cp.block_dims().items() if i in old)
    assert dim_old_part == E_c.dim


def test_lift_projective_errors(alg_c):
    R = relation_extension(alg_c)
    with pytest.raises(ExtensionError):
        lift_projective(alg_c, simple(alg_c, "2"), R)


def test_lift_projective_zero(alg_c):
    R = relation_extension(alg_c)
    out = lift_projective(alg_c, zero_module(alg_c), R)
    assert out.is_zero()


def test_lift_projective_restriction(alg_c):
    # restricted along the projection, the lift is the projective plus its
    # degree-2 extension part
    R = relation_extension(alg_c)
    p4 = projective(alg_c, "4")
    pbar = lift_projective(alg_c, p4, R)
    assert pbar.total_dim == p4.total_dim + 1  # the single new class lands here
    p2 = projective(alg_c, "2")
    assert lift_projective(alg_c, p2, R).total_dim == p2.total_dim


def test_commutation_hereditary(alg_a2):
    rep = verify_extension_commutes(alg_a2, projective(alg_a2, "1"))
    assert rep.verdict == "consistent with isomorphism"


def test_commutation_instances(alg_c):
    P = direct_sum(alg_c, [projective(alg_c, v) for v in "123"], label="P")
    rep = verify_extension_commutes(alg_c, P)
    assert rep.verdict == "consistent with isomorphism"
    assert rep.dimension_left == rep.dimension_right == 19
    assert rep.cartan_equal and rep.quiver_iso is not None
    rep2 = verify_extension_commutes(alg_c, projective(alg_c, "2"))
    assert rep2.verdict == "consistent with isomorphism"


def test_commutation_report_json(alg_a2):
    rep = verify_extension_commutes(alg_a2, projective(alg_a2, "2"))
    data = rep.to_json()
    assert set(data) == {"dimensions", "quiver_iso", "cartan_equal", "verdict"}


def test_bimodule_actions_are_compatible(alg_c):
    # (x.e).y == x.(e.y) on every basis triple, and idempotents grade blocks
    E = ext2_bimodule(alg_c)
    a = alg_c
    f = a.field
    for t in range(E.dim):
        unit = [f.zero()] * E.dim
        unit[t] = f.one()
        i, j = E.blocks[t]
        left_e = E.act_left(a.unit(a.idempotents[i]), unit)
        right_e = E.act_right(a.unit(a.idempotents[j]), unit)
        assert left_e == unit and right_e == unit
    for x in range(a.dim):
        for y in range(a.dim):
            for t in range(E.dim):
                unit = [f.zero()] * E.dim
                unit[t] = f.one()
                lhs = E.act_right(a.unit(y), E.act_left(a.unit(x), unit))
                rhs = E.act_left(a.unit(x), E.act_right(a.unit(y), unit))
                assert lhs == rhs


@pytest.mark.parametrize("construct", [one_point_extension, one_point_coextension])
@pytest.mark.parametrize("text, vertex, idempotent, arrows", [
    # letter vertices: the new vertex is x1, its idempotent ex1
    ("field: rational\nvertices: a b\narrows: p: a -> b\n", "x1", "ex1", ["x1", "x2"]),
    # e5 and x1 are taken, as a basis label and an arrow name
    ("field: gf(7)\nvertices: 1 2 3 4\narrows: e5: 1 -> 2, x1: 2 -> 3, y: 3 -> 4\n"
     "relations: e5*x1*y\n", "5", "e_ext1", ["x2", "x3", "x4", "x5"]),
])
def test_extension_fresh_names(construct, text, vertex, idempotent, arrows):
    a = build_algebra(parse_presentation(text))
    ext = construct(a, direct_sum(a, [projective(a, v) for v in a.vertices]))
    assert ext.vertices[-1] == vertex
    assert ext.labels[ext.idempotents[-1]] == idempotent
    new = len(a.vertices)
    assert [r.name for r in ext.arrow_reps if new in (r.source, r.target)] == arrows
    assert check_associativity(ext) and check_idempotents(ext)


def test_lifted_projective_splits_over_base(alg_c):
    # the lift restricted to the base algebra is the projective plus the
    # matching slice of the degree-2 extension bimodule, as modules
    from quiverkit.extensions import restrict_to_base
    R = relation_extension(alg_c)
    E = R._ext2
    f = alg_c.field
    units = Matrix.identity(f, E.dim).data
    for vi, v in enumerate(alg_c.vertices):
        # e_v . E: the blocks (v, j) of E.right, at the arrow representatives
        at = [[t for t, b in enumerate(E.blocks) if b == (vi, j)]
              for j in range(len(alg_c.vertices))]
        row = Module(alg_c, [len(ts) for ts in at], {
            rep.name: Matrix.from_columns(f, [
                [E.act_right(rep.vector, units[u])[w] for w in at[rep.target]]
                for u in at[rep.source]], len(at[rep.target]))
            for rep in alg_c.arrow_reps})
        p = projective(alg_c, v)
        restricted = restrict_to_base(lift_projective(alg_c, p, R), alg_c)
        assert is_isomorphic(restricted, direct_sum(alg_c, [p, row]))


def test_extension_counts_multiplicities(alg_b):
    # a doubled summand contributes two extension arrows to the same vertex
    m = direct_sum(alg_b, [projective(alg_b, "1"), projective(alg_b, "1")])
    ext = one_point_extension(alg_b, m)
    new_v = ext.vertices[-1]
    q = gabriel_quiver(ext)
    arrows = [(a.source, a.target) for a in q.arrows if a.source == new_v]
    assert arrows == [(new_v, "1"), (new_v, "1")]


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_extension_m_part_matches_basis_action_reference(field):
    # b_k . b_j for an m-part element b_k and a basis element b_j of the
    # base is the image of b_k's coordinate vector under the action of b_j
    from test_repmod import _action_cases, _reference_multiples
    for a, nodes in _action_cases(field):
        f = a.field
        na = a.dim
        for m in list(nodes[:6]) + [direct_sum(a, list(nodes[:3]))]:
            ext = one_point_extension(a, m)
            off = m.offsets()
            for v in range(len(a.vertices)):
                for i in range(m.dims[v]):
                    unit = [f.one() if r == i else f.zero() for r in range(m.dims[v])]
                    images = _reference_multiples(m, v, unit)
                    for j in range(na):
                        expected = [f.zero()] * ext.dim
                        if j in images:
                            w0 = na + 1 + off[a.target[j]]
                            expected[w0:w0 + len(images[j])] = images[j]
                        assert ext.mul_vec(ext.unit(na + 1 + off[v] + i),
                                           ext.unit(j)) == expected
