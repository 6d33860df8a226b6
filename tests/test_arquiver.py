import importlib.util
from pathlib import Path

import pytest

from quiverkit.algebra import build_algebra, cartan_matrix, gabriel_quiver
from quiverkit.arquiver import (
    ARQuiverError,
    check_left_section,
    check_local_slice,
    check_slice,
    extend_cluster_tilted,
    find_local_slices_through,
    knit,
    summand_nodes,
    tilted_quotient,
    transport_module,
)
from quiverkit.homology import (
    HomologyError,
    almost_split_middle,
    ext_group,
    start_resolution,
    tau,
)
from quiverkit.linalg import Matrix, SpanTracker, kernel_basis
from quiverkit.quiver import parse_presentation, quiver_isomorphism
from quiverkit.repmod import (
    ModuleMap,
    combine_maps,
    decompose,
    direct_sum,
    end_radical_basis,
    hom_basis,
    injective,
    is_isomorphic,
    kernel_of,
    cokernel_of,
    module_from_json,
    projective,
    radical_of,
    simple,
    socle_quotient,
)
from test_yoneda_route import _ext_class


def _brute_force_indecomposables(a):
    """Closure oracle, independent of the translation machinery: seed with
    projectives, injectives and simples; close under radicals, socle
    factors, and kernels/cokernels of hom-basis maps; decompose everything."""
    nodes = []

    def add(m):
        if m.is_zero():
            return
        for piece, _ in decompose(m):
            if not any(piece.dims == n.dims and is_isomorphic(piece, n)
                       for n in nodes):
                nodes.append(piece)

    for v in a.vertices:
        add(projective(a, v))
        add(injective(a, v))
        add(simple(a, v))
    for _ in range(3):
        before = len(nodes)
        for m in list(nodes):
            add(radical_of(m))
            add(socle_quotient(m))
        for m in list(nodes):
            for n in list(nodes):
                for h in hom_basis(m, n):
                    ker, _ = kernel_of(h)
                    coker = cokernel_of(h)
                    add(ker)
                    add(coker)
        if len(nodes) == before:
            break
    return nodes


@pytest.mark.parametrize("fixture", ["a2", "a3"])
def test_knit_matches_brute_force_linear(fixture, alg_a2, alg_a3):
    a = alg_a2 if fixture == "a2" else alg_a3
    frag = knit(a, 20)
    assert frag.complete
    oracle = _brute_force_indecomposables(a)
    assert len(oracle) == len(frag.nodes)
    for m in oracle:
        assert frag.find(m) >= 0


def test_knit_a2_structure(alg_a2):
    frag = knit(alg_a2, 20)
    assert len(frag.nodes) == 3
    i_p2 = frag.find(projective(alg_a2, "2"))
    i_p1 = frag.find(projective(alg_a2, "1"))
    i_s1 = frag.find(simple(alg_a2, "1"))
    assert frag.arrows.get((i_p2, i_p1)) == 1
    assert frag.arrows.get((i_p1, i_s1)) == 1
    assert frag.tau_links[i_s1] == i_p2


def test_knit_square_with_return(alg_b, frag_b):
    assert frag_b.complete
    assert len(frag_b.nodes) == 12
    oracle = _brute_force_indecomposables(alg_b)
    assert len(oracle) == 12
    for m in oracle:
        assert frag_b.find(m) >= 0
    # mesh identity on every translate pair
    for i, t in frag_b.tau_links.items():
        middle = [0] * 4
        for (x, y), mult in frag_b.arrows.items():
            if y == i:
                for v in range(4):
                    middle[v] += mult * frag_b.nodes[x].dims[v]
        want = [frag_b.nodes[i].dims[v] + frag_b.nodes[t].dims[v] for v in range(4)]
        assert middle == want


def test_knit_cap_flags_incomplete(alg_a31):
    frag = knit(alg_a31, 40)
    assert not frag.complete
    assert len(frag.nodes) == 40
    with pytest.raises(ARQuiverError):
        knit(alg_a31, 2)  # below the vertex count


def test_knit_arrows_found_from_both_ends_must_agree(pres_b, monkeypatch):
    # an arrow out of an injective is found from I/soc and again from its
    # target's rad P or almost split sequence; a doubled I/soc must not be
    # silently overwritten by the other end
    import quiverkit.arquiver as arquiver
    real = arquiver.socle_quotient
    monkeypatch.setattr(arquiver, "socle_quotient",
                        lambda m: direct_sum(m.algebra, [real(m), real(m)]))
    with pytest.raises(ARQuiverError, match="has two multiplicities"):
        knit(build_algebra(pres_b), 40)


def test_knit_exports(frag_b):
    data = frag_b.to_json()
    assert data["complete"] is True
    assert len(data["nodes"]) == 12
    dot = frag_b.to_dot()
    assert dot.count("style=dashed") == len(frag_b.tau_links)


def _boldface(alg_b, frag_b):
    idx = [frag_b.find(projective(alg_b, v)) for v in "123"]
    idx.append(frag_b.node_by_label("2 3/4"))
    return idx


def test_local_slice_boldface(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    assert check_local_slice(alg_b, frag_b, idx).holds
    for drop in range(4):
        sub = [idx[i] for i in range(4) if i != drop]
        verdict = check_local_slice(alg_b, frag_b, sub)
        assert not verdict.holds
        assert "LS4" in verdict.tags()


def test_local_slice_mixed_mesh_fails(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    # replace the interior node by its inverse translate: a mixed mesh
    interior = frag_b.node_by_label("2 3/4")
    swapped = [i for i in idx if i != interior]
    swapped.append(frag_b.tau_inverse_of(interior))
    verdict = check_local_slice(alg_b, frag_b, swapped)
    assert not verdict.holds
    assert {"LS1", "LS3"} & set(verdict.tags()) or "LS2" in verdict.tags()


def test_slice_axioms_over_tilted(alg_c, frag_c):
    idx = [frag_c.find(projective(alg_c, v)) for v in "123"]
    idx.append(frag_c.node_by_label("2 3/4"))
    assert check_slice(alg_c, frag_c, idx).holds
    assert check_left_section(alg_c, frag_c, idx).holds
    assert check_local_slice(alg_c, frag_c, idx).holds


def test_slice_not_sincere(alg_a2):
    frag = knit(alg_a2, 20)
    verdict = check_slice(alg_a2, frag, [frag.find(simple(alg_a2, "1"))])
    assert not verdict.holds
    assert "S1" in verdict.tags()


def test_slice_fails_on_whole_fragment(alg_b, frag_b):
    verdict = check_slice(alg_b, frag_b, list(range(len(frag_b.nodes))))
    assert not verdict.holds
    assert "S3" in verdict.tags()


def test_left_section_of_extended_slice(alg_cm):
    # the slice of the extended tilted algebra: old slice plus the new
    # projective at the extension vertex
    frag = knit(alg_cm, 40)
    assert frag.complete
    idx = [frag.find(projective(alg_cm, v)) for v in ("1", "2")]
    idx.append(frag.find(simple(alg_cm, "2")))
    rad1 = radical_of(projective(alg_cm, "1"))
    idx.append(frag.find(rad1))
    idx.append(frag.find(projective(alg_cm, "5")))
    assert all(i >= 0 for i in idx)
    assert check_left_section(alg_cm, frag, idx).holds
    assert check_slice(alg_cm, frag, idx).holds


def test_left_section_orbit_duplicate_fails(alg_c, frag_c):
    idx = [frag_c.find(projective(alg_c, v)) for v in "123"]
    interior = frag_c.node_by_label("2 3/4")
    ti = frag_c.tau_inverse_of(interior)
    verdict = check_left_section(alg_c, frag_c, sorted(set(idx + [interior, ti])))
    assert not verdict.holds
    assert "s2'" in verdict.tags()


def test_incomplete_fragment_refused(alg_a31):
    frag = knit(alg_a31, 40)
    with pytest.raises(ARQuiverError):
        check_slice(alg_a31, frag, [0])
    with pytest.raises(ARQuiverError):
        check_local_slice(alg_a31, frag, [0])
    with pytest.raises(ARQuiverError):
        find_local_slices_through(alg_a31, frag, 0)


def test_tilted_quotient_of_boldface(alg_b, frag_b, alg_c):
    idx = _boldface(alg_b, frag_b)
    tq = tilted_quotient(alg_b, [frag_b.nodes[i] for i in idx])
    assert tq.criterion_holds
    assert tq.quotient.dim == 9
    assert tq.annihilator.dim == 1
    assert tq.annihilator.is_two_sided()
    perm = quiver_isomorphism(
        gabriel_quiver(tq.quotient), gabriel_quiver(alg_c),
        extra_matrices=([cartan_matrix(tq.quotient)], [cartan_matrix(alg_c)]))
    assert perm is not None


def test_tilted_quotient_faithful_slice(alg_c, frag_c):
    idx = [frag_c.find(projective(alg_c, v)) for v in "123"]
    idx.append(frag_c.node_by_label("2 3/4"))
    tq = tilted_quotient(alg_c, [frag_c.nodes[i] for i in idx])
    assert tq.criterion_holds
    assert tq.annihilator.dim == 0
    assert tq.quotient is alg_c


def test_tilted_quotient_hereditary_injectives(alg_a3):
    sigma = [injective(alg_a3, v) for v in alg_a3.vertices]
    tq = tilted_quotient(alg_a3, sigma)
    assert tq.criterion_holds
    assert tq.annihilator.dim == 0


def test_find_local_slices(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    found = find_local_slices_through(alg_b, frag_b, frag_b.find(projective(alg_b, "1")))
    assert tuple(sorted(idx)) in found
    single = build_algebra(parse_presentation("field: rational\nvertices: 1\n"))
    frag1 = knit(single, 5)
    assert find_local_slices_through(single, frag1, 0) == [(0,)]


def test_extend_along_projectives(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    sigma = [frag_b.nodes[i] for i in idx]
    P = direct_sum(alg_b, [projective(alg_b, v) for v in "123"], label="P")
    bprime, report = extend_cluster_tilted(alg_b, sigma, P, frag=frag_b)
    q = gabriel_quiver(bprime)
    new_v = report.new_vertex
    assert sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "1"),
        (new_v, "1"), (new_v, "2"), (new_v, "3")]
    assert report.quiver_extends and report.deletion_recovers
    assert report.radical_matches and report.socle_factor_matches
    assert report.arrow_rule_holds
    # representation-infinite output: the axiom check is reported unverified
    assert report.local_slice_passes is None


def test_extend_along_simple(alg_b, frag_b, alg_bprime):
    S2 = simple(alg_b, "2")
    idx = [frag_b.find(projective(alg_b, v)) for v in "12"]
    idx += [frag_b.find(S2), frag_b.node_by_label("2 3/4")]
    sigma = [frag_b.nodes[i] for i in idx]
    assert check_local_slice(alg_b, frag_b, idx).holds
    bprime, report = extend_cluster_tilted(alg_b, sigma, S2, frag=frag_b)
    assert report.all_hold and report.local_slice_passes is True
    perm = quiver_isomorphism(
        gabriel_quiver(bprime), gabriel_quiver(alg_bprime),
        extra_matrices=([cartan_matrix(bprime)], [cartan_matrix(alg_bprime)]))
    assert perm is not None
    new_v = report.new_vertex
    assert is_isomorphic(radical_of(projective(bprime, new_v)),
                         transport_module(S2, bprime))
    i_new = injective(bprime, new_v)
    assert is_isomorphic(socle_quotient(i_new),
                         transport_module(tau(S2), bprime))


def test_extend_rejects_bad_input(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    sigma = [frag_b.nodes[i] for i in idx]
    with pytest.raises(ARQuiverError):
        extend_cluster_tilted(alg_b, sigma, simple(alg_b, "4"), frag=frag_b)
    with pytest.raises(ARQuiverError):
        extend_cluster_tilted(alg_b, sigma[:3], simple(alg_b, "2"), frag=frag_b)
    zero = module_from_json(alg_b, {"dims": {}, "actions": {}})
    with pytest.raises(ARQuiverError, match="the module is zero"):
        extend_cluster_tilted(alg_b, sigma, zero, frag=frag_b)


def test_extend_rejects_a_summand_off_the_slice(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    sigma = [frag_b.nodes[i] for i in idx]
    off = next(n for i, n in enumerate(frag_b.nodes) if i not in idx)
    m = direct_sum(alg_b, [sigma[0], off])
    with pytest.raises(ARQuiverError,
                       match="a summand of the module is not on the local slice"):
        extend_cluster_tilted(alg_b, sigma, m, frag=frag_b)


def test_summand_nodes(alg_b, frag_b):
    p1, i3 = projective(alg_b, "1"), injective(alg_b, "3")
    got = summand_nodes(frag_b, direct_sum(alg_b, [i3, p1, i3]))
    assert sorted(got) == sorted({frag_b.find(p1), frag_b.find(i3)})
    zero = module_from_json(alg_b, {"dims": {}, "actions": {}})
    with pytest.raises(ARQuiverError, match="the module is zero"):
        summand_nodes(frag_b, zero)
    # a capped knit that stops before I(3)
    short = knit(alg_b, 4)
    assert short.find(i3) < 0
    with pytest.raises(ARQuiverError, match="a summand of the module is not a fragment node"):
        summand_nodes(short, direct_sum(alg_b, [p1, i3]))


def test_extend_along_whole_slice_module(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    sigma = [frag_b.nodes[i] for i in idx]
    m = direct_sum(alg_b, sigma, label="whole")
    bprime, report = extend_cluster_tilted(alg_b, sigma, m, frag=frag_b)
    assert report.quiver_extends and report.deletion_recovers
    assert report.radical_matches and report.socle_factor_matches
    assert report.arrow_rule_holds


def test_socle_factor_identity_on_cluster_tilted(alg_b, alg_bprime):
    # translate of the radical of each projective equals the socle factor of
    # the matching injective, whenever both sides are nonzero
    for a in (alg_b, alg_bprime):
        for v in a.vertices:
            lhs = tau(radical_of(projective(a, v)))
            rhs = socle_quotient(injective(a, v))
            if lhs.is_zero() or rhs.is_zero():
                continue
            assert is_isomorphic(lhs, rhs)


def test_slice_to_local_slice_to_section_monotone(alg_c, frag_c):
    # axiom strength: a slice passes the weaker systems as well
    idx = [frag_c.find(projective(alg_c, v)) for v in "123"]
    idx.append(frag_c.node_by_label("2 3/4"))
    assert check_slice(alg_c, frag_c, idx).holds
    assert check_local_slice(alg_c, frag_c, idx).holds
    assert check_left_section(alg_c, frag_c, idx).holds


_A6 = ("vertices: 1 2 3 4 5 6\n"
       "arrows: a1: 1 -> 2, a2: 2 -> 3, a3: 3 -> 4, a4: 4 -> 5, a5: 5 -> 6\n")


def _knit_over(name, field):
    from quiverkit.cli import _load_presentation, fixture_path
    if name == "A6":
        pres = parse_presentation(f"field: {field}\n" + _A6)
    else:
        pres = _load_presentation(fixture_path(name), field)
    frag = knit(build_algebra(pres), 60)
    arrows = sorted((frag.nodes[i].dims, frag.nodes[j].dims, m)
                    for (i, j), m in frag.arrows.items() if m > 0)
    return (frag.complete, len(frag.nodes),
            sorted(n.dims for n in frag.nodes), arrows)


_AGREE_NAMES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                "d5_clustertilted.q", "A6"]


@pytest.mark.parametrize("name,field", [
    pytest.param(name, "gf(32003)", id=name) for name in _AGREE_NAMES] + [
    pytest.param(name, field, id=f"{name}-{field}")
    for field in ("gf(3)", "gf(5)", "gf(7)") for name in _AGREE_NAMES])
def test_knit_agrees_over_rationals_and_large_prime(name, field):
    complete, count, dims, arrows = _knit_over(name, "rational")
    assert complete
    assert _knit_over(name, field) == (complete, count, dims, arrows)


@pytest.mark.parametrize("name,node_cap,dim_cap", [
    ("d4_clustertilted.q", 40, 120), ("d4_clustertilted.q", 5, 120),
    ("d4_tilted.q", 40, 120), ("d4_tilted_ext_s2.q", 40, 120),
    ("d5_clustertilted.q", 60, 120), ("d5_clustertilted.q", 60, 3),
    ("a31_clustertilted.q", 8, 120), ("a31_clustertilted.q", 40, 120),
    ("a31_onepoint_ext.q", 15, 120)])
def test_knit_marks_match_brute_force(name, node_cap, dim_cap):
    # every node is marked as P(v) or I(v) exactly when it is isomorphic to it
    from quiverkit.corpus import load_fixture
    a = build_algebra(load_fixture(name))
    frag = knit(a, node_cap, dim_cap)
    marks = ({}, {})
    for i, node in enumerate(frag.nodes):
        for v in a.vertices:
            if is_isomorphic(node, projective(a, v)):
                marks[0][i] = v
            if is_isomorphic(node, injective(a, v)):
                marks[1][i] = v
    assert (frag.projective_at, frag.injective_at) == marks


# ---------------------------------------------------------------------------
# the knit by almost split sequences against independent oracles


def _irreducible_arrows(a, nodes):
    """Oracle: arrow multiplicities dim rad(X,Y)/rad^2(X,Y) over the full
    node set, with the compositions running over all nodes."""
    f = a.field
    n = len(nodes)
    rad_bases = {}
    for i in range(n):
        for j in range(n):
            if i == j:
                rad_bases[(i, j)] = end_radical_basis(hom_basis(nodes[i], nodes[i]))
            else:
                rad_bases[(i, j)] = hom_basis(nodes[i], nodes[j])
    arrows = {}
    for i in range(n):
        for j in range(n):
            base = rad_bases[(i, j)]
            if not base:
                continue
            tracker = SpanTracker(f)
            for z in range(n):
                for g in rad_bases[(z, j)]:
                    for h in rad_bases[(i, z)]:
                        tracker.add(g.compose(h).flatten())
            mult = len(base) - tracker.dim
            if mult > 0:
                arrows[(i, j)] = mult
    return arrows


def _cyclic_nakayama(n, k, field):
    """The oriented n-cycle modulo all paths of length k."""
    vertices = " ".join(str(i) for i in range(1, n + 1))
    arrows = ", ".join(f"a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1))
    relations = ", ".join("*".join(f"a{(i + j) % n + 1}" for j in range(k))
                          for i in range(n))
    return parse_presentation(f"field: {field}\nvertices: {vertices}\n"
                              f"arrows: {arrows}\nrelations: {relations}\n")


def _arcs(n, k):
    """Dimension vectors of the indecomposables of the cyclic Nakayama
    algebra (n, k): arcs of length 1..k starting at each vertex."""
    out = []
    for start in range(n):
        for length in range(1, k + 1):
            dims = [0] * n
            for step in range(length):
                dims[(start + step) % n] += 1
            out.append(tuple(dims))
    return sorted(out)


def _algebra_over(name, field):
    from quiverkit.cli import _load_presentation, fixture_path
    if name == "A6":
        return build_algebra(parse_presentation(f"field: {field}\n" + _A6))
    if name.startswith("cyclic"):
        n, k = (int(x) for x in name.split("_")[1:])
        return build_algebra(_cyclic_nakayama(n, k, field))
    return build_algebra(_load_presentation(fixture_path(name), field))


_COMPLETE_NAMES = ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                   "d5_clustertilted.q", "A6", "cyclic_3_4"]


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
@pytest.mark.parametrize("name", _COMPLETE_NAMES)
def test_knit_arrows_equal_irreducible_maps(name, field):
    a = _algebra_over(name, field)
    frag = knit(a, 60)
    assert frag.complete
    assert frag.arrows == _irreducible_arrows(a, frag.nodes)


@pytest.mark.parametrize("name", _COMPLETE_NAMES)
def test_mesh_identity_on_complete_fragments(name):
    frag = knit(_algebra_over(name, "gf(32003)"), 60)
    assert frag.complete
    nv = len(frag.algebra.vertices)
    for i in range(len(frag.nodes)):
        if i in frag.projective_at:
            continue
        t = frag.tau_links[i]
        middle = [0] * nv
        for (x, y), mult in frag.arrows.items():
            if y == i:
                for v in range(nv):
                    middle[v] += mult * frag.nodes[x].dims[v]
        assert middle == [frag.nodes[i].dims[v] + frag.nodes[t].dims[v] for v in range(nv)]


@pytest.mark.parametrize("n,k", [(3, 4), (6, 4), (5, 5)])
def test_cyclic_nakayama_knit_closes(n, k):
    frag = knit(_algebra_over(f"cyclic_{n}_{k}", "gf(32003)"), 2 * n * k)
    assert frag.complete and frag.incomplete_reason is None
    assert len(frag.nodes) == n * k
    assert sorted(m.dims for m in frag.nodes) == _arcs(n, k)


@pytest.mark.parametrize("field", ["gf(3)", "gf(5)", "gf(7)"])
@pytest.mark.parametrize("n,k", [(3, 4), (6, 4), (5, 5), (4, 6), (2, 6)])
def test_cyclic_nakayama_knit_agrees_over_small_fields(n, k, field):
    def data(f):
        frag = knit(_algebra_over(f"cyclic_{n}_{k}", f), 2 * n * k)
        return (frag.complete, [m.dims for m in frag.nodes], frag.arrows, frag.tau_links)
    assert data(field) == data("rational")


def test_linear_a32_knit_closes_with_every_interval():
    # the scale a knit reaches when its ready sequences build no middle term
    n = 32
    text = (f"field: gf(32003)\nvertices: {' '.join(str(i) for i in range(1, n + 1))}\n"
            f"arrows: {', '.join(f'a{i}: {i} -> {i + 1}' for i in range(1, n))}\n")
    frag = knit(build_algebra(parse_presentation(text), cap=40), 600)
    assert frag.complete and len(frag.nodes) == 528
    assert sorted(m.dims for m in frag.nodes) == sorted(
        tuple(int(i <= v < j) for v in range(n)) for i in range(n) for j in range(i + 1, n + 1))


def _benchmark_workloads():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _linear_nakayama(n, k, field):
    """Linear A_n with rad^k = 0: the paths of length k vanish, and for
    k = 1 there are no arrows."""
    text = f"field: {field}\nvertices: {' '.join(str(i) for i in range(1, n + 1))}\n"
    if k > 1 and n > 1:
        text += f"arrows: {', '.join(f'a{i}: {i} -> {i + 1}' for i in range(1, n))}\n"
    if 1 < k < n:
        text += "relations: " + ", ".join("*".join(f"a{i + j}" for j in range(k))
                                          for i in range(1, n - k + 1)) + "\n"
    return parse_presentation(text)


@pytest.mark.parametrize("field", ["rational", "gf(32003)"])
def test_linear_nakayama_knits_close_with_the_benchmark_intervals(field):
    # the benchmark's expected answers for its Nakayama tasks, at every size
    intervals = _benchmark_workloads()._intervals
    for n in range(1, 10):
        for k in range(1, n + 1):
            frag = knit(build_algebra(_linear_nakayama(n, k, field)), 200)
            assert frag.complete, (n, k)
            assert sorted(m.dims for m in frag.nodes) == intervals(n, k), (n, k)


def test_almost_split_class_needs_the_radical():
    # k[x]/(x^4): End of k[x]/(x^2) is not a field, and Ext^1 from it to its
    # translate is a plane, so the sequence needs rad End(tau Y)
    text = "vertices: 1\narrows: x: 1 -> 1\nrelations: x*x*x*x\n"
    a = build_algebra(parse_presentation("field: rational\n" + text))
    frag = knit(a, 10)
    assert frag.complete and len(frag.nodes) == 4
    assert frag.arrows == _irreducible_arrows(a, frag.nodes)
    # the socle of Ext^1(Y, tau Y) over End(tau Y) = k[x]/(x^m), read through
    # `classes_of`: the classes that multiplication by x kills form a line, and
    # every endomorphism of the trace-form radical kills them too
    f = a.field
    planes = 0
    for i, y in enumerate(frag.nodes):
        if i in frag.projective_at:
            continue
        ty = frag.nodes[frag.tau_links[i]]
        g = ext_group(y, ty, 1)
        d = len(g.reps)
        x_act = ModuleMap(ty, ty, [ty.mats["x"]])
        by_x = [_ext_class(g, x_act.compose(r)) for r in g.reps]
        socle = kernel_basis(Matrix.from_columns(f, by_x, d))
        assert len(socle) == 1
        planes += d > 1
        xi = combine_maps(socle[0], g.reps, g.term.module, ty)
        for rho in end_radical_basis(hom_basis(ty, ty)):
            assert _ext_class(g, rho.compose(xi)) == [f.zero()] * d
    assert planes
    # over GF(2) the trace form cannot see that radical: building that E is
    # a domain error, never a guessed sequence
    a2 = build_algebra(parse_presentation("field: gf(2)\n" + text))
    y = next(m for m in knit(a2, 10).nodes if m.dims == (2,))
    with pytest.raises(HomologyError, match="gf\\(2\\)"):
        almost_split_middle(y, tau(y), start_resolution(y))
    # but the knit never builds it: the arrows out of tau Y are known, and
    # they balance the sequence
    def data(b):
        frag = knit(b, 10)
        return (frag.complete, [m.dims for m in frag.nodes], frag.arrows, frag.tau_links)
    assert data(a2) == data(a)


def test_incomplete_reason_names_the_cap(alg_a31, alg_bprime, frag_b):
    assert frag_b.incomplete_reason is None
    frag = knit(alg_a31, 40)
    assert frag.incomplete_reason == "node_cap"
    assert frag.to_json()["incomplete_reason"] == "node_cap"
    frag = knit(alg_bprime, 60, dim_cap=3)
    assert not frag.complete
    assert frag.incomplete_reason == "dim_cap (a module of dimension 4)"


@pytest.mark.parametrize("cap", [16, 18, 20, 23])
def test_capped_fragment_carries_exact_arrows_only(cap):
    # the capped knit finds a prefix of the complete knit's nodes, and each
    # of its arrows is an arrow of the complete fragment; past 18 nodes the
    # cap trips after some sequences were built
    a = _algebra_over("cyclic_6_4", "gf(32003)")
    full, capped = knit(a, 48), knit(a, cap)
    assert full.complete and capped.incomplete_reason == "node_cap"
    assert [m.dims for m in capped.nodes] == [m.dims for m in full.nodes[:cap]]
    assert capped.arrows
    for (i, j), m in capped.arrows.items():
        assert full.arrows.get((i, j)) == m


@pytest.mark.parametrize("cap", [40, 60])
@pytest.mark.parametrize("field", ["gf(3)", "gf(2)"])
def test_a31_onepoint_ext_knit_over_small_primes_is_the_rational_knit(field, cap):
    # these knits used to raise DecompositionError on a summand that no
    # Fitting candidate splits and that the trace form, exact only above
    # dim M in characteristic p, could not certify.  Each such summand is
    # isomorphic to a node found earlier, and that isomorphism certifies it
    a = _algebra_over("a31_onepoint_ext.q", field)
    ref, frag = knit(_algebra_over("a31_onepoint_ext.q", "rational"), cap), knit(a, cap)
    assert frag.incomplete_reason == ref.incomplete_reason == "node_cap"
    assert [m.dims for m in frag.nodes] == [m.dims for m in ref.nodes]
    assert frag.arrows == ref.arrows
    assert frag.tau_links == ref.tau_links


# ---------------------------------------------------------------------------
# labels are computed on first read, by today's rule


def _eager_labels(nodes):
    """Oracle: each node's Loewy label, "#k" on its k-th repeat."""
    from quiverkit.repmod import loewy_label
    plain = [loewy_label(m) for m in nodes]
    return [lab if lab not in plain[:i] else f"{lab}#{plain[:i].count(lab) + 1}"
            for i, lab in enumerate(plain)]


_LABEL_CASES = [pytest.param(name, field, id=f"{name}-{field}")
                for name in ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                             "d5_clustertilted.q", "a31_clustertilted.q",
                             "a31_onepoint_ext.q", "A6", "cyclic_6_4"]
                for field in ("rational", "gf(3)")]


@pytest.mark.parametrize("name,field", _LABEL_CASES)
def test_knit_labels_on_first_read(name, field, monkeypatch):
    # cap 24 closes every finite case here and stops the two a31 knits,
    # which are representation-infinite, at node_cap
    import quiverkit.arquiver as arquiver
    calls = []
    real = arquiver.loewy_label
    monkeypatch.setattr(arquiver, "loewy_label", lambda m: calls.append(m) or real(m))
    frag = knit(_algebra_over(name, field), 24)
    assert calls == []
    labels = frag.labels
    assert len(calls) == len(frag.nodes)
    assert frag.labels is labels and len(calls) == len(frag.nodes)
    assert labels == _eager_labels(frag.nodes)
    assert frag.complete == (not name.startswith("a31"))


def test_repeated_labels_are_numbered_in_node_order(alg_b):
    # no knit here repeats a Loewy label, so the "#k" rule is checked on a
    # fragment whose nodes repeat
    from quiverkit.arquiver import ARFragment
    s1, s2, p1 = simple(alg_b, "1"), simple(alg_b, "2"), projective(alg_b, "1")
    frag = ARFragment(alg_b, [s1, p1, s1, s2, s1, p1], {}, {}, {}, {}, None)
    lab = _eager_labels([p1])[0]
    assert frag.labels == ["1", lab, "1#2", "2", "1#3", f"{lab}#2"]
    assert frag.labels == _eager_labels(frag.nodes)
    assert frag.node_by_label("1#3") == 4
