"""The bundled worked-example corpus, run as one pass/fail table.

Every public operation of the library is exercised by at least one check
(the test suite asserts this against PUBLIC_OPS).  All checks are exact.
"""

from __future__ import annotations

from importlib import resources

from quiverkit.linalg import Matrix, PrimeField, RationalField, kernel_basis, rref, solve
from quiverkit.quiver import (
    find_acyclic_in_mutation_class,
    is_acyclic,
    mutate,
    parse_presentation,
    quiver_isomorphism,
    serialize_presentation,
    to_dot,
)
from quiverkit.algebra import (
    build_algebra,
    cartan_matrix,
    gabriel_quiver,
    opposite_algebra,
    quotient_by_vertex,
)
from quiverkit.repmod import (
    decompose,
    direct_sum,
    hom_basis,
    injective,
    is_isomorphic,
    min_proj_presentation,
    projective,
    projective_cover,
    radical_of,
    simple,
    socle_of,
    top_of,
)
from quiverkit.homology import (
    ext_dim,
    global_dim,
    inj_dim,
    proj_dim,
    tau,
    tau_inv,
    transpose,
)
from quiverkit.extensions import (
    ext2_bimodule,
    lift_projective,
    one_point_coextension,
    one_point_extension,
    relation_extension,
    verify_extension_commutes,
)
from quiverkit.arquiver import (
    check_left_section,
    check_local_slice,
    check_slice,
    extend_cluster_tilted,
    find_local_slices_through,
    knit,
    tilted_quotient,
)

PUBLIC_OPS = frozenset({
    "rref", "kernel_basis", "solve",
    "parse_presentation", "serialize_presentation", "mutate",
    "find_acyclic_in_mutation_class", "is_acyclic", "to_dot",
    "build_algebra", "gabriel_quiver", "quotient_by_vertex",
    "cartan_matrix", "opposite_algebra",
    "simple", "projective", "injective", "hom_basis", "radical_of",
    "top_of", "socle_of", "projective_cover", "min_proj_presentation",
    "is_isomorphic", "decompose",
    "ext_dim", "transpose", "tau", "tau_inv", "proj_dim", "inj_dim",
    "global_dim",
    "one_point_extension", "one_point_coextension", "ext2_bimodule",
    "relation_extension", "lift_projective", "verify_extension_commutes",
    "knit", "check_slice", "check_local_slice", "check_left_section",
    "tilted_quotient", "find_local_slices_through", "extend_cluster_tilted",
})


def load_fixture(name):
    text = resources.files("quiverkit").joinpath("fixtures", name).read_text()
    return parse_presentation(text)


CHECKS = []


def _check(name, ops):
    def wrap(fn):
        CHECKS.append((name, frozenset(ops), fn))
        return fn
    return wrap


@_check("exact kernel: rref, kernel, solve", ["rref", "kernel_basis", "solve"])
def _chk_linalg(ctx):
    gf7 = PrimeField(7)
    m = Matrix.from_int_rows(gf7, [[1, 2], [2, 4]])
    res = rref(m)
    ok = res.rank == 1 and res.pivot_columns == [0]
    ker = kernel_basis(m)
    ok = ok and len(ker) == 1 and not any(m.apply(ker[0]))
    q = RationalField()
    x = solve(Matrix.from_int_rows(q, [[1, 1], [0, 1]]), [q.from_int(3), q.from_int(1)])
    ok = ok and x == [q.from_int(2), q.from_int(1)]
    return ok, "rank/kernel/solve on the worked examples"


@_check("square-with-return algebra", ["parse_presentation", "build_algebra",
                                       "gabriel_quiver", "serialize_presentation",
                                       "to_dot"])
def _chk_build(ctx):
    pres = ctx["pres_B"]
    ok = parse_presentation(serialize_presentation(pres)) == pres
    B = ctx["B"]
    ok = ok and B.dim == 10
    q = gabriel_quiver(B)
    ok = ok and sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "1")]
    ok = ok and to_dot(q).count("->") == 5
    return ok, "dimension 10, five arrows, file round-trip"


@_check("cartan and opposite", ["cartan_matrix", "opposite_algebra"])
def _chk_cartan(ctx):
    B = ctx["B"]
    ct = cartan_matrix(B)
    ok = int(ct.sum()) == B.dim
    op = opposite_algebra(B)
    ok = ok and op.dim == B.dim and (cartan_matrix(op) == ct.T).all()
    return ok, "dim = sum of Cartan entries; opposite transposes"


@_check("AR quiver of the square-with-return", ["knit"])
def _chk_knit(ctx):
    frag = ctx["fragB"]
    dims = sorted(tuple(n.dims) for n in frag.nodes)
    expected = sorted([
        (1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0),
        (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)])
    ok = frag.complete and len(frag.nodes) == 12 and dims == expected
    return ok, "12 nodes, complete, expected dimension vectors"


@_check("projectives, injectives, simples", ["projective", "injective", "simple",
                                             "hom_basis", "radical_of", "top_of",
                                             "socle_of"])
def _chk_modules(ctx):
    B = ctx["B"]
    ok = projective(B, "2").dims == (0, 1, 0, 1)
    ok = ok and projective(B, "1").dims == (1, 1, 1, 1)
    ok = ok and injective(B, "2").dims == (1, 1, 0, 0)
    ok = ok and len(hom_basis(projective(B, "4"), projective(B, "1"))) == 1
    ok = ok and is_isomorphic(top_of(projective(B, "1")), simple(B, "1"))
    ok = ok and is_isomorphic(socle_of(injective(B, "3")), simple(B, "3"))
    ok = ok and radical_of(projective(B, "2")).dims == (0, 0, 0, 1)
    return ok, "dimension vectors and Hom dimensions"


@_check("covers and presentations", ["projective_cover", "min_proj_presentation"])
def _chk_covers(ctx):
    B = ctx["B"]
    p1, p0, d1, epi = min_proj_presentation(simple(B, "2"))
    ok = [B.vertices[v] for v in p0.verts] == ["2"]
    ok = ok and [B.vertices[v] for v in p1.verts] == ["4"]
    psum, _ = projective_cover(projective(B, "3"))
    ok = ok and [B.vertices[v] for v in psum.verts] == ["3"]
    return ok, "minimal presentation of the simple at 2"


@_check("translates", ["tau", "tau_inv", "transpose", "is_isomorphic", "decompose"])
def _chk_tau(ctx):
    B = ctx["B"]
    ok = is_isomorphic(tau(simple(B, "2")), projective(B, "3"))
    ok = ok and is_isomorphic(tau_inv(projective(B, "2")), simple(B, "3"))
    ok = ok and tau(projective(B, "1")).is_zero()
    ok = ok and transpose(projective(B, "2")).is_zero()
    rad = radical_of(projective(ctx["BP"], ctx["BP"].vertices[-1]))
    summands = decompose(rad)
    ok = ok and sorted(mult for _, mult in summands) == [1, 1, 1]
    return ok, "translate of the simple at 2 is the projective at 3"


@_check("homological dimensions", ["proj_dim", "inj_dim", "global_dim"])
def _chk_dims(ctx):
    C = ctx["C"]
    ok = global_dim(C, 5) == 2
    ok = ok and proj_dim(projective(C, "1"), 5) == 0
    for i, node in enumerate(ctx["sigmaC_modules"]):
        ok = ok and (proj_dim(node, 5) or 0) <= 1 and (inj_dim(node, 5) or 0) <= 1
    return ok, "tilted quotient has global dimension 2, slice dims <= 1"


@_check("degree-2 extension concentration", ["ext_dim", "ext2_bimodule"])
def _chk_ext2(ctx):
    C = ctx["C"]
    total = 0
    for i in C.vertices:
        for j in C.vertices:
            d, _ = ext_dim(simple(C, i), simple(C, j), 2)
            total += d
            if (i, j) == ("1", "4"):
                if d != 1:
                    return False, "expected concentration at the return arrow"
    ok = total == 1
    E = ext2_bimodule(C)
    tops = {(C.vertices[i], C.vertices[j]): d for (i, j), d in E.arrow_block_dims().items()}
    ok = ok and tops == {("4", "1"): 1} and E.dim == 1
    return ok, "one class, matching the unique return arrow"


@_check("relation extension rebuilds the return arrow", ["relation_extension"])
def _chk_relext(ctx):
    RC = relation_extension(ctx["C"])
    B = ctx["B"]
    perm = quiver_isomorphism(
        gabriel_quiver(RC), gabriel_quiver(B),
        extra_matrices=([cartan_matrix(RC)], [cartan_matrix(B)]))
    return (RC.dim == 10 and perm is not None), "dimension 10, quiver and Cartan agree"


@_check("slice axioms", ["check_slice", "check_local_slice", "check_left_section",
                         "find_local_slices_through"])
def _chk_slices(ctx):
    B, fragB = ctx["B"], ctx["fragB"]
    ok = check_local_slice(B, fragB, ctx["sigma_idx"]).holds
    ok = ok and not check_slice(B, fragB, list(range(len(fragB.nodes)))).holds
    C, fragC = ctx["C"], ctx["fragC"]
    ok = ok and check_slice(C, fragC, ctx["sigmaC_idx"]).holds
    ok = ok and check_left_section(C, fragC, ctx["sigmaC_idx"]).holds
    through = find_local_slices_through(B, fragB, fragB.find(projective(B, "1")))
    ok = ok and tuple(sorted(ctx["sigma_idx"])) in through
    return ok, "boldface set is a local slice; the full node set is not a slice"


@_check("annihilator quotient is the tilted algebra", ["tilted_quotient"])
def _chk_quotient(ctx):
    tq = tilted_quotient(ctx["B"], [ctx["fragB"].nodes[i] for i in ctx["sigma_idx"]])
    C = ctx["C"]
    perm = quiver_isomorphism(
        gabriel_quiver(tq.quotient), gabriel_quiver(C),
        extra_matrices=([cartan_matrix(tq.quotient)], [cartan_matrix(C)]))
    ok = tq.criterion_holds and tq.quotient.dim == 9 and perm is not None
    return ok, "criterion holds, dimension drops to 9"


@_check("one-point extension and coextension", ["one_point_extension",
                                                "one_point_coextension",
                                                "quotient_by_vertex"])
def _chk_opext(ctx):
    B, BP = ctx["B"], ctx["BP"]
    q = gabriel_quiver(BP)
    new_v = BP.vertices[-1]
    ok = sorted((a.source, a.target) for a in q.arrows if a.source == new_v) == [
        (new_v, "1"), (new_v, "2"), (new_v, "3")]
    back = quotient_by_vertex(BP, new_v)
    ok = ok and back.dim == B.dim and (
        gabriel_quiver(back).count_matrix() == gabriel_quiver(B).count_matrix()).all()
    coe = one_point_coextension(B, injective(B, "1"))
    qc = gabriel_quiver(coe)
    new_vs = [v for v in coe.vertices if v not in B.vertices]
    ok = ok and len(new_vs) == 1
    ok = ok and all(a.source != new_vs[0] for a in qc.arrows)
    ok = ok and [(a.source, a.target) for a in qc.arrows if a.target == new_vs[0]] == [
        ("1", new_vs[0])]
    return ok, "extension arrows and the dual sink arrow"


@_check("commutation of the two extensions", ["verify_extension_commutes",
                                              "lift_projective"])
def _chk_commute(ctx):
    C = ctx["C"]
    P = direct_sum(C, [projective(C, v) for v in "123"], label="P")
    rep = verify_extension_commutes(C, P)
    ok = rep.verdict == "consistent with isomorphism"
    RC = relation_extension(C)
    pbar = lift_projective(C, projective(C, "4"), RC)
    ok = ok and pbar.total_dim == 2  # one extra class restricts onto it
    return ok, "instance check on the three-projectives module"


@_check("extension pipeline along a simple", ["extend_cluster_tilted"])
def _chk_extend(ctx):
    B, frag = ctx["B"], ctx["fragB"]
    S2 = simple(B, "2")
    sigma_idx = [frag.find(projective(B, v)) for v in "12"]
    sigma_idx += [frag.find(S2), frag.node_by_label("2 3/4")]
    sigma = [frag.nodes[i] for i in sigma_idx]
    bprime, report = extend_cluster_tilted(B, sigma, S2, frag=frag)
    new_v = report.new_vertex
    q = gabriel_quiver(bprime)
    extra = sorted((a.source, a.target) for a in q.arrows
                   if new_v in (a.source, a.target))
    ok = report.all_hold and report.local_slice_passes is True
    ok = ok and extra == [("4", new_v), (new_v, "2")]
    ok = ok and bprime.dim == 15
    return ok, "new arrows into 2 and out of 4, all report checks pass"


@_check("mutation to an acyclic quiver", ["mutate", "is_acyclic",
                                          "find_acyclic_in_mutation_class"])
def _chk_mutation(ctx):
    pres = load_fixture("a31_clustertilted.q")
    q = pres.quiver
    ok = not is_acyclic(q)
    ok = ok and is_acyclic(mutate(mutate(q, "3"), "4"))
    seq = find_acyclic_in_mutation_class(q, 8)
    ok = ok and seq is not None and len(seq) <= 2
    ext = load_fixture("a31_onepoint_ext.q")
    ok = ok and find_acyclic_in_mutation_class(ext.quiver, 8) is None
    return ok, "two mutations reach acyclic; the extension never does"


@_check("knitting cap on the affine-type algebra", ["knit"])
def _chk_knit_cap(ctx):
    A = build_algebra(load_fixture("a31_clustertilted.q"))
    frag = knit(A, 40)
    return (len(frag.nodes) == 40 and not frag.complete), "40-node cap, incomplete"


def build_context():
    ctx = {}
    ctx["pres_B"] = load_fixture("d4_clustertilted.q")
    ctx["B"] = build_algebra(ctx["pres_B"])
    ctx["C"] = build_algebra(load_fixture("d4_tilted.q"))
    ctx["fragB"] = knit(ctx["B"], 40)
    ctx["fragC"] = knit(ctx["C"], 40)
    frag = ctx["fragB"]
    ctx["sigma_idx"] = [frag.find(projective(ctx["B"], v)) for v in "123"]
    ctx["sigma_idx"].append(frag.node_by_label("2 3/4"))
    fragC = ctx["fragC"]
    ctx["sigmaC_idx"] = [fragC.find(projective(ctx["C"], v)) for v in "123"]
    ctx["sigmaC_idx"].append(fragC.node_by_label("2 3/4"))
    ctx["sigmaC_modules"] = [fragC.nodes[i] for i in ctx["sigmaC_idx"]]
    P = direct_sum(ctx["B"], [projective(ctx["B"], v) for v in "123"], label="P")
    ctx["BP"] = one_point_extension(ctx["B"], P)
    return ctx


def run_corpus():
    """Run every corpus check; returns (name, ok, note) rows."""
    ctx = build_context()
    results = []
    for name, ops, fn in CHECKS:
        try:
            ok, note = fn(ctx)
        except Exception as exc:  # a crash is a failure with the reason shown
            ok, note = False, f"raised {type(exc).__name__}: {exc}"
        results.append((name, bool(ok), note))
    return results


def covered_ops():
    out = set()
    for _, ops, _ in CHECKS:
        out |= ops
    return out
