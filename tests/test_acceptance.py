"""Acceptance suite: one criterion per test, one pass/fail line printed each.

Everything here is exact; the only tolerances are the stated wall-clock
bounds.
"""

import random
import time

import numpy as np

from quiverkit.algebra import build_algebra, check_associativity, gabriel_quiver
from quiverkit.arquiver import (
    check_local_slice,
    extend_cluster_tilted,
    knit,
    transport_module,
)
from quiverkit.corpus import load_fixture
from quiverkit.extensions import (
    ext2_bimodule,
    one_point_extension,
    relation_extension,
    verify_extension_commutes,
)
from quiverkit.homology import ext_dim, tau, tau_inv
from quiverkit.linalg import Matrix, PrimeField, RationalField, kernel_basis, rref
from quiverkit.quiver import (
    Arrow,
    Quiver,
    find_acyclic_in_mutation_class,
    is_acyclic,
    mutate,
    parse_presentation,
    serialize_presentation,
)
from quiverkit.repmod import (
    direct_sum,
    injective,
    is_isomorphic,
    projective,
    radical_of,
    simple,
    socle_quotient,
)


def _report(n, ok, text):
    print(f"[acceptance {n}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok


def test_criterion_1_build(pres_b):
    t0 = time.perf_counter()
    B = build_algebra(pres_b)
    elapsed = time.perf_counter() - t0
    q = gabriel_quiver(B)
    quiver_ok = sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "1")]
    ok = B.dim == 10 and quiver_ok and elapsed < 1.0
    _report(1, ok, f"dimension 10, printed quiver, {elapsed:.2f}s < 1s")


def test_criterion_2_ar_quiver(alg_b):
    t0 = time.perf_counter()
    frag = knit(alg_b, 40)
    elapsed = time.perf_counter() - t0
    expected = sorted([
        (1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1),
        (1, 1, 0, 0), (1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0),
        (0, 0, 1, 0), (0, 0, 0, 1), (0, 1, 1, 1), (1, 1, 1, 0)])
    ok = frag.complete and len(frag.nodes) == 12
    ok = ok and sorted(tuple(m.dims) for m in frag.nodes) == expected
    mesh_ok = True
    for i, t in frag.tau_links.items():
        middle = [0] * 4
        for (x, y), mult in frag.arrows.items():
            if y == i:
                for v in range(4):
                    middle[v] += mult * frag.nodes[x].dims[v]
        if middle != [frag.nodes[i].dims[v] + frag.nodes[t].dims[v] for v in range(4)]:
            mesh_ok = False
    ok = ok and mesh_ok and elapsed < 5.0
    _report(2, ok, f"12 indecomposables, all meshes balanced, {elapsed:.2f}s < 5s")


def _boldface(alg_b, frag):
    idx = [frag.find(projective(alg_b, v)) for v in "123"]
    idx.append(frag.node_by_label("2 3/4"))
    return idx


def test_criterion_3_local_slice(alg_b, frag_b):
    idx = _boldface(alg_b, frag_b)
    ok = check_local_slice(alg_b, frag_b, idx).holds
    for drop in range(4):
        sub = [idx[i] for i in range(4) if i != drop]
        verdict = check_local_slice(alg_b, frag_b, sub)
        ok = ok and (not verdict.holds) and "LS4" in verdict.tags()
    _report(3, ok, "four-element set passes LS1-LS4, any proper subset fails LS4")


def test_criterion_4_projective_extension(alg_b, frag_b, alg_c):
    idx = _boldface(alg_b, frag_b)
    sigma = [frag_b.nodes[i] for i in idx]
    P = direct_sum(alg_b, [projective(alg_b, v) for v in "123"], label="P")
    bprime, report = extend_cluster_tilted(alg_b, sigma, P, frag=frag_b)
    q = gabriel_quiver(bprime)
    new_v = report.new_vertex
    quiver_ok = sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "1"),
        (new_v, "1"), (new_v, "2"), (new_v, "3")]
    PC = direct_sum(alg_c, [projective(alg_c, v) for v in "123"], label="P")
    rep = verify_extension_commutes(alg_c, PC)
    commute_ok = (rep.verdict == "consistent with isomorphism"
                  and rep.dimension_left == rep.dimension_right
                  and rep.quiver_iso is not None and rep.cartan_equal)
    ok = quiver_ok and commute_ok
    _report(4, ok, "three new source arrows; both composite extensions agree "
                   "on dimension, quiver and Cartan data")


def test_criterion_5_simple_extension(alg_b, frag_b, alg_bprime):
    S2 = simple(alg_b, "2")
    idx = [frag_b.find(projective(alg_b, v)) for v in "12"]
    idx += [frag_b.find(S2), frag_b.node_by_label("2 3/4")]
    sigma = [frag_b.nodes[i] for i in idx]
    bprime, report = extend_cluster_tilted(alg_b, sigma, S2, frag=frag_b)
    new_v = report.new_vertex
    q = gabriel_quiver(bprime)
    quiver_ok = sorted((a.source, a.target) for a in q.arrows) == [
        ("1", "2"), ("1", "3"), ("2", "4"), ("3", "4"), ("4", "1"),
        ("4", new_v), (new_v, "2")]
    rad_ok = is_isomorphic(radical_of(projective(bprime, new_v)),
                           transport_module(S2, bprime))
    socle_ok = is_isomorphic(socle_quotient(injective(bprime, new_v)),
                             transport_module(projective(alg_b, "3"), bprime))
    tau_ok = is_isomorphic(tau(S2), projective(alg_b, "3"))
    ok = (quiver_ok and rad_ok and socle_ok and tau_ok
          and report.deletion_recovers and report.local_slice_passes is True)
    _report(5, ok, "new arrows out of the new source vertex and into it; "
                   "radical, socle factor, deletion and the enlarged local "
                   "slice all verified exactly")


def test_criterion_6_new_arrow_counts(alg_c, alg_cm):
    ok = True
    # tilted quotient: one class, matching the unique 4 -> 1 return arrow
    for i in alg_c.vertices:
        for j in alg_c.vertices:
            d, _ = ext_dim(simple(alg_c, i), simple(alg_c, j), 2)
            ok = ok and d == (1 if (i, j) == ("1", "4") else 0)
    E = ext2_bimodule(alg_c)
    vi = alg_c.vertex_index
    ok = ok and E.arrow_block_dims() == {(vi("4"), vi("1")): 1}
    # extended algebra: total two, at the 4 -> 1 and 4 -> 5 new arrows
    total = 0
    wanted = {("1", "4"): 1, ("5", "4"): 1}
    for i in alg_cm.vertices:
        for j in alg_cm.vertices:
            d, _ = ext_dim(simple(alg_cm, i), simple(alg_cm, j), 2)
            total += d
            ok = ok and d == wanted.get((i, j), 0)
    ok = ok and total == 2
    E2 = ext2_bimodule(alg_cm)
    vi = alg_cm.vertex_index
    tops = E2.arrow_block_dims()
    ok = ok and tops == {(vi("4"), vi("1")): 1, (vi("4"), vi("5")): 1}
    _report(6, ok, "degree-2 extension counts match the bimodule arrow blocks "
                   "on both algebras (two independent routes)")


def test_criterion_7_mutation_and_cap(alg_a31):
    pres = load_fixture("a31_clustertilted.q")
    q = pres.quiver
    ok = is_acyclic(mutate(mutate(q, "3"), "4"))
    seq = find_acyclic_in_mutation_class(q, 8)
    ok = ok and seq is not None and len(seq) <= 2
    ext = load_fixture("a31_onepoint_ext.q")
    t0 = time.perf_counter()
    ok = ok and find_acyclic_in_mutation_class(ext.quiver, 8) is None
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 60.0
    frag = knit(alg_a31, 40)
    ok = ok and len(frag.nodes) == 40 and not frag.complete
    _report(7, ok, f"two mutations reach acyclic; depth-8 search on the "
                   f"extension exhausts in {elapsed:.1f}s < 60s; 40-node cap "
                   f"flags incomplete")


def test_criterion_8_property_suites(alg_b, alg_c, alg_cm, alg_bprime,
                                     frag_b, pres_b):
    t0 = time.perf_counter()
    ok = True

    # associativity on every constructed algebra, all basis triples
    constructed = [alg_b, alg_c, alg_cm, alg_bprime,
                   relation_extension(alg_c),
                   one_point_extension(alg_c, simple(alg_c, "2"))]
    for a in constructed:
        ok = ok and check_associativity(a)

    # inverse translate of the translate is the identity on non-projectives
    for i, m in enumerate(frag_b.nodes):
        if i not in frag_b.projective_at:
            ok = ok and is_isomorphic(tau_inv(tau(m)), m)

    # translate of the radical of a projective equals the socle factor of
    # the injective at the same vertex (both cluster-tilted algebras)
    for a in (alg_b, alg_bprime):
        for v in a.vertices:
            lhs = tau(radical_of(projective(a, v)))
            rhs = socle_quotient(injective(a, v))
            if not lhs.is_zero() and not rhs.is_zero():
                ok = ok and is_isomorphic(lhs, rhs)

    # parse/serialize round trip on every bundled presentation
    for name in ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                 "d5_clustertilted.q", "a31_clustertilted.q",
                 "a31_onepoint_ext.q"]:
        pres = load_fixture(name)
        ok = ok and parse_presentation(serialize_presentation(pres)) == pres

    # mutation involutivity on 500 random loop-free 2-cycle-free quivers
    rng = random.Random(20260808)
    for _ in range(500):
        n = rng.randrange(2, 7)
        b = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                b[i, j] = rng.randrange(-2, 3)
                b[j, i] = -b[i, j]
        vertices = tuple(str(i + 1) for i in range(n))
        arrows = []
        k = 1
        for i in range(n):
            for j in range(n):
                for _ in range(int(max(b[i, j], 0))):
                    arrows.append(Arrow(f"m{k}", vertices[i], vertices[j]))
                    k += 1
        quiv = Quiver(vertices, tuple(arrows))
        v = rng.choice(vertices)
        twice = mutate(mutate(quiv, v), v)
        ok = ok and (twice.count_matrix() == quiv.count_matrix()).all()

    # rref idempotence and rank-nullity on 1000 random matrices
    fields = [RationalField(), PrimeField(7), PrimeField(32003)]
    for t in range(1000):
        f = fields[t % 3]
        rows = rng.randrange(1, 6)
        cols = rng.randrange(1, 7)
        m = Matrix.from_int_rows(
            f, [[rng.randrange(-4, 5) for _ in range(cols)] for _ in range(rows)])
        res = rref(m)
        ok = ok and rref(res.reduced).reduced == res.reduced
        ok = ok and res.rank + len(kernel_basis(m)) == cols

    elapsed = time.perf_counter() - t0
    _report(8, ok, f"associativity, translate round trips, socle-factor "
                   f"identity, round trips, 500 mutation involutions, 1000 "
                   f"exact eliminations in {elapsed:.1f}s")
