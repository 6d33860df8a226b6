import numpy as np
import pytest

from quiverkit.algebra import (
    BuildError,
    Ideal,
    build_algebra,
    cartan_matrix,
    check_associativity,
    check_gabriel_counts,
    check_idempotents,
    gabriel_quiver,
    opposite_algebra,
    quotient_algebra,
    quotient_by_vertex,
    radical_nilpotency_degree,
    two_sided_ideal,
)
from quiverkit.corpus import load_fixture
from quiverkit.extensions import (
    one_point_coextension,
    one_point_extension,
    relation_extension,
)
from quiverkit.homology import global_dim
from quiverkit.quiver import parse_presentation, quiver_isomorphism
from quiverkit.repmod import direct_sum, projective, simple
from test_repmod import _fixture_over


def test_a2_dimension(alg_a2):
    assert alg_a2.dim == 3
    assert alg_a2.labels == ["e1", "e2", "a"]
    assert cartan_matrix(alg_a2) == [[1, 1], [0, 1]]


def test_d4_dimension_and_basis(alg_b):
    assert alg_b.dim == 10
    # the surviving length-2 class keeps the earlier path as representative
    assert "a*b" in alg_b.labels and "g*d" not in alg_b.labels


def test_bprime_fixture_builds(alg_bprime):
    assert alg_bprime.dim == 15
    q = gabriel_quiver(alg_bprime)
    assert sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"),
        ("4", "1"), ("4", "5"), ("5", "2")]


def test_gabriel_recovers_input(alg_b, pres_b):
    q = gabriel_quiver(alg_b)
    assert quiver_isomorphism(q, pres_b.quiver) is not None
    assert check_gabriel_counts(alg_b)


def test_semisimple_quiver_empty():
    a = build_algebra(parse_presentation("field: rational\nvertices: 1 2 3\n"))
    assert gabriel_quiver(a).arrows == ()
    assert (np.array(cartan_matrix(a)) == np.eye(3, dtype=int)).all()


def test_structure_checks(alg_b, alg_c, alg_bprime, alg_a2):
    for a in (alg_b, alg_c, alg_bprime, alg_a2):
        assert check_associativity(a)
        assert check_idempotents(a)
        assert radical_nilpotency_degree(a) is not None


def test_cartan_row_sums(alg_b):
    assert int(np.array(cartan_matrix(alg_b)).sum()) == alg_b.dim


def test_not_finite_dimensional_rejected():
    pres = parse_presentation(
        "field: rational\nvertices: 1\narrows: x: 1 -> 1\n")
    with pytest.raises(BuildError):
        build_algebra(pres, cap=8)


def test_cycle_avoiding_every_relation_rejected_up_front():
    # b*n8*x1 contains no relation term, so its powers are independent modulo
    # the ideal; the saturation loop alone took minutes to give up on this
    pres = parse_presentation(
        "field: gf(32003)\nvertices: 1 2 3 4 5\n"
        "arrows: a: 1 -> 2, b: 2 -> 4, g: 1 -> 3, d: 3 -> 4, x1: 5 -> 2, "
        "x2: 5 -> 2, n1: 4 -> 1, n8: 4 -> 5\n"
        "relations: b*n1, n1*a, a*b + g*d, n1*g, d*n1\n")
    with pytest.raises(BuildError, match=r"the cycle b\*n8\*x1 contains no relation term"):
        build_algebra(pres)


def test_path_length_cap_is_named_and_can_be_raised():
    # linear A32 has no oriented cycle, so its longest path (31 arrows)
    # sets the cap it needs, past the default
    vertices = " ".join(str(v) for v in range(1, 33))
    arrows = ", ".join(f"a{v}: {v} -> {v + 1}" for v in range(1, 32))
    pres = parse_presentation(f"field: rational\nvertices: {vertices}\narrows: {arrows}\n")
    assert build_algebra(pres).dim == 32 * 33 // 2
    # a loop x with x^40 = 0 needs paths of length 40, past the default cap
    loop = parse_presentation("field: rational\nvertices: 1\narrows: x: 1 -> 1\n"
                              f"relations: {'*'.join(['x'] * 40)}\n")
    with pytest.raises(BuildError, match="path-length cap 30 tripped.*a cap above 30"):
        build_algebra(loop)
    assert build_algebra(loop, cap=40).dim == 40


def test_loop_with_admissible_relation_builds():
    pres = parse_presentation(
        "field: rational\nvertices: 1\narrows: x: 1 -> 1\nrelations: x*x\n")
    a = build_algebra(pres)
    assert a.dim == 2  # e1 and x


def test_nonadmissible_nonmonomial_loop_rejected():
    # x^2 = x^3 generates no power of the arrow ideal
    pres = parse_presentation(
        "field: rational\nvertices: 1\narrows: x: 1 -> 1\nrelations: x*x - x*x*x\n")
    with pytest.raises(BuildError):
        build_algebra(pres, cap=10)


def test_quotient_by_vertex_a2(alg_a2):
    k = quotient_by_vertex(alg_a2, "2")
    assert k.dim == 1
    assert k.vertices == ("1",)
    with pytest.raises(BuildError):
        quotient_by_vertex(k, "1")
    with pytest.raises(BuildError):
        quotient_by_vertex(alg_a2, "9")


def test_quotient_refuses_an_idempotent_outside_the_ideal(alg_a2):
    # span(e1 - e2) rewrites the later idempotent as the earlier one, but
    # contains neither, so the quotient would lose a vertex it keeps
    f = alg_a2.field
    e1, e2 = alg_a2.idempotents
    diff = [f.sub(x, y) for x, y in zip(alg_a2.unit(e1), alg_a2.unit(e2))]
    with pytest.raises(BuildError, match="without containing it"):
        quotient_algebra(alg_a2, Ideal(alg_a2, [diff]))


def test_quotient_bprime_recovers_square(alg_bprime, alg_b):
    q = quotient_by_vertex(alg_bprime, "5")
    assert q.dim == 10
    assert gabriel_quiver(q).count_matrix() == gabriel_quiver(alg_b).count_matrix()


FIXTURES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
            "d5_clustertilted.q", "a31_clustertilted.q", "a31_onepoint_ext.q"]
FIELDS = ["rational", "gf(32003)", "gf(3)", "gf(7)"]


def test_quotient_dimension_matches_ideal():
    # the span of the products through x is the saturated ideal A e_x A, at
    # every vertex of the fixtures and of their one-point extensions by P(v)
    for field in FIELDS:
        for name in FIXTURES:
            a = _fixture_over(name, field)
            for alg in [a] + [one_point_extension(a, projective(a, v)) for v in a.vertices]:
                for x in alg.vertices:
                    e = alg.idempotents[alg.vertex_index(x)]
                    ideal = two_sided_ideal(alg, [alg.unit(e)])
                    q = quotient_by_vertex(alg, x)
                    assert sorted(q.ideal.basis) == sorted(ideal.basis)
                    assert q.dim == alg.dim - ideal.dim
                    assert ideal.is_two_sided()


def _saturates(ideal):
    """The full-basis check: saturating under every basis element on both
    sides adds nothing."""
    return two_sided_ideal(ideal.parent, ideal.basis).dim == ideal.dim


def test_one_sided_ideal_is_not_two_sided(alg_c):
    # e_v A is a right ideal, and a left ideal exactly when no arrow from
    # another vertex ends at v
    seen = set()
    for v in range(len(alg_c.vertices)):
        ideal = Ideal(alg_c, [alg_c.unit(k) for k in range(alg_c.dim) if alg_c.source[k] == v])
        expected = not any(r.target == v != r.source for r in alg_c.arrow_reps)
        assert ideal.is_two_sided() == _saturates(ideal) == expected
        seen.add(expected)
    assert seen == {True, False}


def _assert_sparse_graded_table(a):
    f = a.field
    dense = [[[f.zero()] * a.dim for _ in range(a.dim)] for _ in range(a.dim)]
    for (i, j), terms in a.mult.items():
        assert a.target[i] == a.source[j]
        assert terms and [k for k, _ in terms] == sorted({k for k, _ in terms})
        for k, c in terms:
            assert c and (a.source[k], a.target[k]) == (a.source[i], a.target[j])
            dense[i][j][k] = c
    assert a.to_json()["multiplication"] == [
        [[f.scalar_to_str(c) for c in prod] for prod in row] for row in dense]


def _assert_graded_index(a):
    """between and leaving equal a scan of the basis, and slot places each
    basis element in its between list; the opposite's index
    is the transpose (what `transpose` reads), and between[v][w] spans
    P(v) at w and counts the Cartan entry."""
    n = len(a.vertices)
    assert a.between == [[[k for k in range(a.dim) if (a.source[k], a.target[k]) == (v, w)]
                          for w in range(n)] for v in range(n)]
    assert a.leaving == [[k for k in range(a.dim) if a.source[k] == v] for v in range(n)]
    assert [a.between[a.source[k]][a.target[k]][a.slot[k]] for k in range(a.dim)] == list(
        range(a.dim))
    op, cartan = a.opposite(), cartan_matrix(a)
    for v in range(n):
        dims = projective(a, a.vertices[v]).dims
        for w in range(n):
            assert op.between[w][v] == a.between[v][w]
            assert len(a.between[v][w]) == dims[w] == cartan[v][w]


def graded_algebras():
    """The 152 algebras whose index and table are checked, over Q and GF(3):
    the fixtures, their opposites, vertex quotients, one-point extensions
    and coextensions, and relation extensions."""
    algebras = []
    for field in ("rational", "gf(3)"):
        for name in FIXTURES:
            a = _fixture_over(name, field)
            s = simple(a, a.vertices[0])
            algebras += [a, quotient_by_vertex(a, a.vertices[-1]), a.opposite(),
                         one_point_extension(a, s), one_point_coextension(a, s)]
            algebras += [one_point_extension(a, projective(a, v)) for v in a.vertices]
    c = build_algebra(load_fixture("d4_tilted.q"))
    p = direct_sum(c, [projective(c, v) for v in "123"])
    algebras += [relation_extension(c), relation_extension(one_point_extension(c, p))]
    algebras += [relation_extension(a) for a in algebras[:] if _gldim_at_most_2(a)]
    return algebras


def test_structure_constants_are_sparse_and_graded():
    algebras = graded_algebras()
    assert len(algebras) == 152
    for a in algebras:
        _assert_sparse_graded_table(a)
        _assert_graded_index(a)


def _gldim_at_most_2(a):
    d = global_dim(a, 3)
    return d is not None and d <= 2


def test_opposite_involution(alg_b):
    op = opposite_algebra(alg_b)
    opop = opposite_algebra(op)
    assert opop.dim == alg_b.dim
    assert opop.mult == alg_b.mult
    assert opop.source == alg_b.source


def test_opposite_a2_quiver(alg_a2):
    q = gabriel_quiver(opposite_algebra(alg_a2))
    assert [(a.source, a.target) for a in q.arrows] == [("2", "1")]


def test_algebra_json(alg_a2):
    data = alg_a2.to_json()
    assert data["dimension"] == 3
    assert data["basis"][2]["label"] == "a"
    assert data["idempotents"] == [0, 1]


def test_gabriel_recovers_every_fixture():
    for name in ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                 "d5_clustertilted.q", "a31_clustertilted.q",
                 "a31_onepoint_ext.q"]:
        pres = load_fixture(name)
        a = build_algebra(pres)
        assert quiver_isomorphism(gabriel_quiver(a), pres.quiver) is not None
        assert check_gabriel_counts(a)
