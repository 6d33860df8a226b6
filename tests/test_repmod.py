import functools
import json

import pytest

from quiverkit.repmod import (
    Module,
    ModuleError,
    decompose,
    direct_sum,
    dual_module,
    hom_basis,
    injective,
    is_isomorphic,
    loewy_label,
    min_proj_presentation,
    module_from_json,
    module_to_json,
    projective,
    projective_cover,
    radical_of,
    radical_spans,
    simple,
    socle_of,
    socle_quotient,
    submodule_from_spans,
    top_of,
    zero_module,
)


def test_simple_unit_vectors(alg_b):
    for v in alg_b.vertices:
        s = simple(alg_b, v)
        assert sum(s.dims) == 1
        assert s.dims[alg_b.vertex_index(v)] == 1
        assert all(m.is_zero() for m in s.mats.values())


def test_projective_dimension_vectors(alg_b):
    assert projective(alg_b, "2").dims == (0, 1, 0, 1)
    assert projective(alg_b, "1").dims == (1, 1, 1, 1)
    assert loewy_label(projective(alg_b, "1")) == "1/2 3/4"
    assert loewy_label(projective(alg_b, "2")) == "2/4"


def test_hom_projective_corepresents(alg_b, frag_b):
    # dim Hom(P(i), M) = dim M_i and dim Hom(M, I(i)) = dim M_i
    for m in frag_b.nodes:
        for vi, v in enumerate(alg_b.vertices):
            assert len(hom_basis(projective(alg_b, v), m)) == m.dims[vi]
            assert len(hom_basis(m, injective(alg_b, v))) == m.dims[vi]


def test_hom_between_simples(alg_b):
    for i in alg_b.vertices:
        for j in alg_b.vertices:
            d = len(hom_basis(simple(alg_b, i), simple(alg_b, j)))
            assert d == (1 if i == j else 0)


def test_hom_maps_commute_exactly(alg_b):
    m = projective(alg_b, "1")
    n = injective(alg_b, "4")
    for h in hom_basis(m, n):
        for rep in alg_b.arrow_reps:
            left = h.blocks[rep.target] @ m.mats[rep.name]
            right = n.mats[rep.name] @ h.blocks[rep.source]
            assert left == right


def test_radical_top_socle(alg_b):
    p1 = projective(alg_b, "1")
    assert radical_of(p1).dims == (0, 1, 1, 1)
    assert is_isomorphic(top_of(p1), simple(alg_b, "1"))
    assert is_isomorphic(socle_of(injective(alg_b, "2")), simple(alg_b, "2"))
    # socle of P(1) is the class of the doubled path, at vertex 4
    assert socle_of(p1).dims == (0, 0, 0, 1)


def test_projective_cover_identity_on_projectives(alg_b):
    p = projective(alg_b, "3")
    psum, epi = projective_cover(p)
    assert [alg_b.vertices[v] for v in psum.verts] == ["3"]
    assert epi.is_invertible()
    p1, p0, d1, _ = min_proj_presentation(p)
    assert p1.module.is_zero()


def test_cover_kernel_superfluous(alg_b):
    from quiverkit.linalg import SpanTracker
    from quiverkit.repmod import kernel_of
    m = simple(alg_b, "1")
    psum, epi = projective_cover(m)
    ker, incl = kernel_of(epi)
    rad = radical_spans(psum.module)
    f = alg_b.field
    # every kernel vector lies inside the radical of the cover
    for v in range(len(psum.module.dims)):
        span = SpanTracker(f)
        for vec in rad[v]:
            span.add(vec)
        for col in range(incl.blocks[v].cols):
            vec = incl.blocks[v].column(col)
            assert span.contains(vec)


def test_min_presentation_s2(alg_b):
    p1, p0, d1, epi = min_proj_presentation(simple(alg_b, "2"))
    assert [alg_b.vertices[v] for v in p0.verts] == ["2"]
    assert [alg_b.vertices[v] for v in p1.verts] == ["4"]
    # d1 composed into the augmentation is zero
    comp = epi.compose(d1)
    assert all(b.is_zero() for b in comp.blocks)


def test_min_presentation_a2(alg_a2):
    p1, p0, _, _ = min_proj_presentation(simple(alg_a2, "1"))
    assert [alg_a2.vertices[v] for v in p0.verts] == ["1"]
    assert [alg_a2.vertices[v] for v in p1.verts] == ["2"]


def test_is_isomorphic_basics(alg_b):
    p2 = projective(alg_b, "2")
    assert is_isomorphic(p2, p2)
    assert not is_isomorphic(p2, simple(alg_b, "2"))
    assert is_isomorphic(zero_module(alg_b), zero_module(alg_b))


def test_decompose_multiplicity(alg_b):
    s = simple(alg_b, "1")
    m = direct_sum(alg_b, [s, s])
    out = decompose(m)
    assert len(out) == 1
    assert out[0][1] == 2
    assert is_isomorphic(out[0][0], s)


def test_decompose_three_projectives(alg_b):
    m = direct_sum(alg_b, [projective(alg_b, v) for v in "123"])
    out = decompose(m)
    assert sorted(mult for _, mult in out) == [1, 1, 1]
    total = [0] * 4
    for piece, mult in out:
        for v in range(4):
            total[v] += mult * piece.dims[v]
    assert tuple(total) == m.dims
    rebuilt = direct_sum(alg_b, [p for p, mult in out for _ in range(mult)])
    assert is_isomorphic(rebuilt, m)


def test_decompose_indecomposable(alg_b):
    out = decompose(projective(alg_b, "1"))
    assert len(out) == 1 and out[0][1] == 1


def test_decompose_zero(alg_b):
    assert decompose(zero_module(alg_b)) == []


@pytest.mark.parametrize("field", ["rational", "gf(3)", "gf(32003)"])
def test_fitting_split_squares_past_the_largest_vertex_dimension(field):
    # P(1) of k[x]/(x^3) is local: x acts nilpotently with x^2 != 0, so
    # ker(x^2) + im(x^2) has dimension 2 + 1 = 3 and only a power x^N with
    # N >= 3 shows that the Fitting split is trivial
    from quiverkit.algebra import build_algebra
    from quiverkit.quiver import parse_presentation
    from quiverkit.repmod import ModuleMap, _fitting_split
    a = build_algebra(parse_presentation(
        f"field: {field}\nvertices: 1\narrows: x: 1 -> 1\nrelations: x*x*x\n"))
    p = projective(a, "1")
    assert p.dims == (3,)
    assert _fitting_split(p, ModuleMap(p, p, [p.mats["x"]])) is None


def _kronecker(field):
    from quiverkit.algebra import build_algebra
    from quiverkit.quiver import parse_presentation
    return build_algebra(parse_presentation(
        f"field: {field}\nvertices: 1 2\narrows: a: 1 -> 2, b: 1 -> 2\n"))


def _kronecker_module(a, b_action):
    """The Kronecker module (k^n, k^n; a = id, b = b_action)."""
    from quiverkit.linalg import Matrix
    n = len(b_action)
    return Module(a, [n, n], {"a": Matrix.identity(a.field, n),
                              "b": Matrix.from_int_rows(a.field, b_action)})


@pytest.mark.parametrize("field", ["rational", "gf(3)", "gf(32003)"])
def test_isomorphism_of_sums_with_equal_dimension_vectors(field):
    # X_0 and X_1 have one dimension vector, so only the matching of the
    # classes and their multiplicities tells these sums apart
    a = _kronecker(field)
    x0, x1 = _kronecker_module(a, [[0]]), _kronecker_module(a, [[1]])
    assert not is_isomorphic(direct_sum(a, [x0, x0, x1]), direct_sum(a, [x0, x1, x1]))
    assert is_isomorphic(direct_sum(a, [x0, x1, x0]), direct_sum(a, [x1, x0, x0]))
    assert sorted(mult for _, mult in decompose(direct_sum(a, [x0, x1, x0]))) == [1, 2]


@pytest.mark.parametrize("field", ["rational", "gf(3)", "gf(5)", "gf(7)"])
def test_decomposition_refuses_an_uncertified_module(field):
    # End of (k^2, k^2; id, J) with J^2 = -id is k[x]/(x^2 + 1): id, J and
    # id +- J are all invertible, so no Fitting candidate splits it, and its
    # top is not simple; over GF(5), where x^2 + 1 factors, it is a sum of
    # two modules all the same
    from quiverkit.repmod import DecompositionError
    with pytest.raises(DecompositionError):
        decompose(_kronecker_module(_kronecker(field), [[0, -1], [1, 0]]))


def test_compose_checks_block_shapes_at_an_empty_vertex(alg_b):
    # S(1) -> 0 -> 0: the zero module's blocks are all 0-row, so a 0x1
    # block at vertex 1 of the second map has the wrong shape for the
    # composite and must still be refused
    from quiverkit.linalg import LinalgError, Matrix
    from quiverkit.repmod import ModuleMap
    f = alg_b.field
    s1 = simple(alg_b, "1")
    z = zero_module(alg_b)
    first = ModuleMap(s1, z, [Matrix.zeros(f, 0, d) for d in s1.dims])
    bad = ModuleMap(z, z, [Matrix.zeros(f, 0, 0) for _ in z.dims])
    bad.blocks[alg_b.vertex_index("1")] = Matrix.zeros(f, 0, 1)
    with pytest.raises(LinalgError):
        bad.compose(first)
    good = ModuleMap(z, z, [Matrix.zeros(f, 0, 0) for _ in z.dims])
    assert [(b.rows, b.cols) for b in good.compose(first).blocks] == [
        (0, d) for d in s1.dims]


def test_dual_module_swaps(alg_a2):
    s = projective(alg_a2, "1")
    d = dual_module(s)
    assert d.algebra is alg_a2.opposite()
    assert d.dims == s.dims
    dd = dual_module(d)
    assert dd.dims == s.dims


def test_module_json_roundtrip(alg_b):
    m = projective(alg_b, "1")
    data = json.loads(json.dumps(module_to_json(m)))
    back = module_from_json(alg_b, data)
    assert is_isomorphic(back, m)


def test_module_json_validates_relations(alg_b):
    m = projective(alg_b, "1")
    data = module_to_json(m)
    # corrupt one action so a relation no longer acts as zero
    data["actions"]["e"] = [[str(1)]]
    with pytest.raises(ModuleError):
        module_from_json(alg_b, data)


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_module_json_validates_a_commutativity_relation(field):
    from fractions import Fraction
    a = _fixture_over("d4_clustertilted.q", field)
    data = module_to_json(projective(a, "1"))
    # doubling b breaks a*b + g*d only: e acts as zero on P(1), so the zero
    # relations still hold
    data["actions"]["b"] = [[str(2 * Fraction(x)) for x in row]
                            for row in data["actions"]["b"]]
    with pytest.raises(ModuleError):
        module_from_json(a, data)


def test_submodule_requires_closed_spans(alg_b):
    p = projective(alg_b, "2")
    # the span at the top vertex is not action-closed
    spans = [[] for _ in alg_b.vertices]
    spans[alg_b.vertex_index("2")] = [[p.algebra.field.one()]]
    with pytest.raises(ModuleError):
        submodule_from_spans(p, spans)


def test_submodule_closure_against_a_nonempty_target_span(alg_b):
    p = direct_sum(alg_b, [projective(alg_b, "2")] * 2)
    assert p.dims == (0, 2, 0, 2)
    f = alg_b.field
    e1, e2 = [f.one(), f.zero()], [f.zero(), f.one()]
    spans = [[] for _ in alg_b.vertices]
    spans[alg_b.vertex_index("2")] = [e1]
    # b sends e1 at vertex 2 into e1 at vertex 4, outside the span of e2
    spans[alg_b.vertex_index("4")] = [e2]
    with pytest.raises(ModuleError):
        submodule_from_spans(p, spans)
    spans[alg_b.vertex_index("4")] = [e1]
    sub, incl = submodule_from_spans(p, spans)
    assert sub.dims == (0, 1, 0, 1)


def test_socle_quotient(alg_b):
    i1 = injective(alg_b, "1")
    q = socle_quotient(i1)
    assert q.dims == (0, 0, 0, 1)


def test_zero_module_edges(alg_b):
    z = zero_module(alg_b)
    psum, epi = projective_cover(z)
    assert psum.module.is_zero()
    p1, p0, _, _ = min_proj_presentation(z)
    assert p0.module.is_zero() and p1.module.is_zero()
    assert hom_basis(z, projective(alg_b, "1")) == []
    assert loewy_label(z) == "0"


# ---------------------------------------------------------------------------
# projective covers against the total-space action reference


FINITE_FIXTURES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                   "d5_clustertilted.q"]


def _fixture_over(name, field):
    from quiverkit.algebra import build_algebra
    from quiverkit.cli import _load_presentation, fixture_path
    a = build_algebra(_load_presentation(fixture_path(name), field))
    assert a.field.name() == field
    return a


def _reference_cover_blocks(psum, target, epi):
    """The blocks of the map out of psum agreeing with epi on the summands'
    generators, built from the total-space action matrices of target."""
    from quiverkit.repmod import projective_basis_indices
    a = psum.algebra
    f = a.field
    actions = target.basis_action()
    toff = target.offsets()
    blocks = [[[f.zero()] * psum.module.dims[w] for _ in range(target.dims[w])]
              for w in range(len(a.vertices))]
    for c, v in enumerate(psum.verts):
        per_vertex = projective_basis_indices(a, a.vertices[v])
        gen_col = psum.summand_offsets(v)[c][0] + per_vertex[v].index(a.idempotents[v])
        gvec = [f.zero()] * target.total_dim
        gvec[toff[v]:toff[v] + target.dims[v]] = epi.blocks[v].column(gen_col)
        for w in range(len(a.vertices)):
            off = psum.summand_offsets(w)[c][0]
            for pos, k in enumerate(per_vertex[w]):
                col = actions[k].apply(gvec)
                for i in range(target.dims[w]):
                    blocks[w][i][off + pos] = col[toff[w] + i]
    return blocks


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_projective_cover_matches_basis_action_reference(name, field):
    from quiverkit.arquiver import knit
    from quiverkit.repmod import kernel_of
    a = _fixture_over(name, field)
    nodes = knit(a, 60).nodes
    assert nodes
    # the duals live over the opposite algebra, whose basis expressions are
    # the path basis's words read backwards, not the paths themselves
    for m in list(nodes) + [dual_module(n) for n in nodes]:
        psum, epi = projective_cover(m)
        assert [b.data for b in epi.blocks] == _reference_cover_blocks(psum, m, epi)
        ker, _ = kernel_of(epi)
        if not ker.is_zero():
            psum1, cover1 = projective_cover(ker)
            assert [b.data for b in cover1.blocks] == \
                _reference_cover_blocks(psum1, ker, cover1)


def _rebased_arrows(a):
    """The same algebra with arrow representatives a+b, a-b for each pair of
    parallel arrows a, b and 2c for every other arrow c, so that basis
    expressions become combinations of several words with coefficients."""
    from quiverkit.algebra import ArrowRep, BasedAlgebra
    f = a.field
    reps = list(a.arrow_reps)
    out = []
    while reps:
        r = reps.pop(0)
        twin = next((t for t in reps if (t.source, t.target) == (r.source, r.target)), None)
        if twin is None:
            out.append(ArrowRep(r.name, r.source, r.target,
                                tuple(f.add(x, x) for x in r.vector)))
            continue
        reps.remove(twin)
        out.append(ArrowRep(r.name, r.source, r.target,
                            tuple(map(f.add, r.vector, twin.vector))))
        out.append(ArrowRep(twin.name, r.source, r.target,
                            tuple(map(f.sub, r.vector, twin.vector))))
    return BasedAlgebra(f, a.vertices, a.labels, a.source, a.target,
                        a.idempotents, a.radical, a.mult, out)


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_projective_cover_reference_with_multiterm_expressions(field):
    from quiverkit.algebra import build_algebra
    from quiverkit.arquiver import knit
    from quiverkit.quiver import parse_presentation
    a = _rebased_arrows(build_algebra(parse_presentation(
        f"field: {field}\nvertices: 1 2 3\n"
        "arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3\nrelations: a*c\n")))
    assert any(len(terms) > 1 for terms in a.basis_expressions())
    nodes = knit(a, 12).nodes
    assert len(nodes) >= 6
    for m in nodes:
        psum, epi = projective_cover(m)
        assert [b.data for b in epi.blocks] == _reference_cover_blocks(psum, m, epi)


@pytest.mark.parametrize("field", ["rational", "gf(3)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_one_summand_projective_sum_is_the_shared_projective(name, field):
    from quiverkit.repmod import projective_sum
    a = _fixture_over(name, field)
    n = len(a.vertices)
    for v in range(n):
        assert projective_sum(a, [v]).module is projective(a, a.vertices[v])
        w = (v + 1) % n
        two = projective_sum(a, [v, w]).module
        ref = direct_sum(a, [projective(a, a.vertices[v]), projective(a, a.vertices[w])])
        assert (two.key(), two.label) == (ref.key(), f"P({a.vertices[v]})+P({a.vertices[w]})")
    assert sorted(a._projectives) == list(range(n))


@pytest.mark.parametrize("field", ["rational", "gf(3)"])
def test_projective_built_once_per_algebra(field):
    from quiverkit.repmod import _build_projective
    a = _fixture_over("d5_clustertilted.q", field)
    for alg in (a, a.opposite()):
        for v in alg.vertices:
            p = projective(alg, v)
            assert projective(alg, v) is p
            fresh = _build_projective(alg, v)
            assert fresh is not p
            assert fresh.key() == p.key() and fresh.label == p.label


# ---------------------------------------------------------------------------
# the action by arrow words against the total-space action reference


def _reference_multiples(m, v, vec):
    """{k: vec . b_k} for the basis elements leaving vertex index v, read off
    the total-space action matrices of m."""
    a = m.algebra
    off = m.offsets()
    total = [a.field.zero()] * m.total_dim
    total[off[v]:off[v] + m.dims[v]] = vec
    out = {}
    for k, act in enumerate(m.basis_action()):
        if a.source[k] == v:
            w = a.target[k]
            out[k] = act.apply(total)[off[w]:off[w] + m.dims[w]]
    return out


def _three_vertex_rebased(field):
    from quiverkit.algebra import build_algebra
    from quiverkit.quiver import parse_presentation
    return _rebased_arrows(build_algebra(parse_presentation(
        f"field: {field}\nvertices: 1 2 3\n"
        "arrows: a: 1 -> 2, b: 1 -> 2, c: 2 -> 3\nrelations: a*c\n")))


@functools.lru_cache(maxsize=None)
def _action_cases(field):
    """(algebra, modules): the knit nodes of every finite fixture, and of
    the three-vertex algebra whose basis expressions have several terms."""
    from quiverkit.arquiver import knit
    algebras = [_fixture_over(name, field) for name in FINITE_FIXTURES]
    algebras.append(_rebased_arrows(algebras[0]))
    cases = [(a, knit(a, 60).nodes) for a in algebras]
    # representation-infinite: the first twelve nodes
    three = _three_vertex_rebased(field)
    return cases + [(three, knit(three, 12).nodes)]


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_right_multiples_match_basis_action_reference(field):
    from quiverkit.repmod import right_action, right_multiples
    for a, nodes in _action_cases(field):
        for m in list(nodes) + [dual_module(n) for n in nodes]:
            alg = m.algebra
            f = alg.field
            off = m.offsets()
            for v in range(len(a.vertices)):
                for c in range(m.dims[v]):
                    unit = [f.one() if i == c else f.zero() for i in range(m.dims[v])]
                    assert right_multiples(m, v, unit) == _reference_multiples(m, v, unit)
                # R_k is the (target, source) block of b_k's total-space action
                acts = right_action(m, v)
                assert list(acts) == [k for k in range(alg.dim) if alg.source[k] == v]
                for k, r in acts.items():
                    w = alg.target[k]
                    block = [row[off[v]:off[v] + m.dims[v]] for row in
                             m.basis_action()[k].data[off[w]:off[w] + m.dims[w]]]
                    assert (r.rows, r.cols, r.data) == (m.dims[w], m.dims[v], block)


def _reference_annihilator(a, modules):
    """The annihilator's echelon basis, from the kernel of the total-space
    action matrices' entries."""
    from quiverkit.linalg import Matrix, SpanTracker, kernel_basis
    rows = []
    for m in modules:
        actions = m.basis_action()
        for i in range(m.total_dim):
            for j in range(m.total_dim):
                rows.append([actions[k].data[i][j] for k in range(a.dim)])
    tracker = SpanTracker(a.field)
    for vec in kernel_basis(Matrix(a.field, rows, len(rows), a.dim)):
        tracker.add(vec)
    return tracker.rows


def _reference_restriction_blocks(m, quot):
    """The arrow blocks of m over the quotient, summed from the total-space
    action matrices of the arrow representatives' parent coordinates."""
    a = m.algebra
    f = a.field
    off = m.offsets()
    blocks = {}
    for rep in quot.arrow_reps:
        s = a.vertex_index(quot.vertices[rep.source])
        t = a.vertex_index(quot.vertices[rep.target])
        blk = [[f.zero()] * m.dims[s] for _ in range(m.dims[t])]
        for pos, c in enumerate(rep.vector):
            act = m.basis_action()[quot.parent_basis[pos]]
            for i in range(m.dims[t]):
                for j in range(m.dims[s]):
                    blk[i][j] = f.add(blk[i][j], f.mul(c, act.data[off[t] + i][off[s] + j]))
        blocks[rep.name] = blk
    return blocks


@pytest.mark.parametrize("field", ["rational", "gf(32003)", "gf(3)"])
def test_tilted_quotient_and_restriction_match_reference(field):
    from quiverkit.arquiver import restrict_along_quotient, tilted_quotient
    quotients = 0
    for a, nodes in _action_cases(field):
        # runs of four consecutive knit nodes
        for lo in range(0, len(nodes) - 3, 3):
            sigma = nodes[lo:lo + 4]
            tq = tilted_quotient(a, sigma)
            assert tq.annihilator.basis == _reference_annihilator(a, sigma)
            if tq.quotient is a:
                continue
            quotients += 1
            for m in sigma:
                restricted = restrict_along_quotient(m, tq.quotient)
                expected = _reference_restriction_blocks(m, tq.quotient)
                assert {name: blk.data for name, blk in restricted.mats.items()} == expected
    assert quotients >= 10


def test_module_json_validates_structure_constants(alg_b):
    # over a one-point extension, an algebra given by structure constants
    from quiverkit.extensions import one_point_extension
    ext = one_point_extension(
        alg_b, direct_sum(alg_b, [projective(alg_b, v) for v in "123"]))
    for v in ext.vertices:
        m = projective(ext, v)
        assert module_from_json(ext, module_to_json(m)).key() == m.key()
    data = module_to_json(projective(ext, "1"))
    # corrupt one action so that e*a = 0 no longer acts as zero
    data["actions"]["e"] = [[str(1)]]
    with pytest.raises(ModuleError):
        module_from_json(ext, data)


def test_opposite_expressions_multiply_out(alg_b, alg_bprime, alg_c):
    # each algebra's own expressions and those of its opposite
    from quiverkit.algebra import quotient_by_vertex
    from quiverkit.extensions import one_point_extension, relation_extension
    algebras = [_fixture_over(name, field) for name in FINITE_FIXTURES
                for field in ("rational", "gf(3)")]
    algebras += [quotient_by_vertex(alg_bprime, "5"),
                 one_point_extension(alg_b, simple(alg_b, "2")),
                 relation_extension(alg_c),
                 _rebased_arrows(alg_b), _three_vertex_rebased("rational"),
                 _three_vertex_rebased("gf(3)")]
    for alg in algebras:
        for a in (alg, alg.opposite()):
            f = a.field
            for k, terms in enumerate(a.basis_expressions()):
                acc = [f.zero()] * a.dim
                for coeff, v0, word in terms:
                    x = a.unit(a.idempotents[v0])
                    for ai in word:
                        x = a.mul_vec(x, list(a.arrow_reps[ai].vector))
                    acc = [f.add(y, f.mul(coeff, w)) for y, w in zip(acc, x)]
                assert acc == a.unit(k)


def test_restriction_refuses_modules_the_ideal_does_not_annihilate():
    # the ideal A e_x A annihilates M exactly when M vanishes at x; P(v) and
    # I(v) of the four finite fixtures along every vertex quotient: 164 cases
    from quiverkit.algebra import build_algebra, quotient_by_vertex
    from quiverkit.corpus import load_fixture
    from quiverkit.arquiver import restrict_along_quotient
    cases = refused = 0
    for name in ("d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                 "d5_clustertilted.q"):
        a = build_algebra(load_fixture(name))
        for x in a.vertices:
            quot = quotient_by_vertex(a, x)
            for v in a.vertices:
                for m in (projective(a, v), injective(a, v)):
                    cases += 1
                    if m.dims[a.vertex_index(x)]:
                        refused += 1
                        with pytest.raises(ModuleError, match="annihilate"):
                            restrict_along_quotient(m, quot)
                    else:
                        r = restrict_along_quotient(m, quot)
                        assert module_from_json(quot, module_to_json(r)).dims == r.dims
    assert cases == 164 and 0 < refused < cases


@pytest.mark.parametrize("field", ["rational", "gf(3)"])
@pytest.mark.parametrize("name", FINITE_FIXTURES)
def test_decompose_against_known_nodes_returns_the_nodes(name, field):
    # each summand of a sum of knit nodes is isomorphic to a node, so it
    # comes back as that node object, with the multiplicity that decompose
    # finds without the nodes; a copy of a node comes back as the node
    from quiverkit.arquiver import knit
    a = _fixture_over(name, field)
    nodes = knit(a, 60).nodes
    picks = nodes[:4] + nodes[-4:]
    sums = ([[x, y] for i, x in enumerate(picks) for y in picks[i:]]
            + [[x, y, x] for x, y in zip(picks, picks[1:])])
    for parts in sums:
        m = direct_sum(a, parts)
        plain, known = decompose(m), decompose(m, nodes)
        assert len(known) == len(plain)
        for p, mult in known:
            assert any(p is n for n in nodes)
            assert [k for q, k in plain if is_isomorphic(p, q)] == [mult]
    for n in nodes:
        assert decompose(Module(a, n.dims, n.mats), nodes) == [(n, 1)]


def test_decompose_never_matches_a_sum_to_a_known_node_of_its_dimension(alg_a2):
    # S(1)+S(2) and P(1) share a dimension vector, but no map between them
    # is invertible: the sum is split and each simple certified on its own
    s1, s2, p1 = simple(alg_a2, "1"), simple(alg_a2, "2"), projective(alg_a2, "1")
    m = direct_sum(alg_a2, [s1, s2])
    assert m.dims == p1.dims
    out = decompose(m, [p1])
    assert sorted((q.dims, k) for q, k in out) == [((0, 1), 1), ((1, 0), 1)]
    assert all(q is not p1 for q, _ in out)
    out = decompose(direct_sum(alg_a2, [s2, m]), [p1, s2])
    assert [(q is s2, k) for q, k in out if q.dims == (0, 1)] == [(True, 2)]
