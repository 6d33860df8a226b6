"""Minimal projective resolutions, Ext groups, transpose, and the
Auslander-Reiten translation tau = D Tr (with inverse Tr D).

All Ext computations run over minimal projective resolutions; injective
arguments are converted through the standard duality D into projective
computations over the opposite algebra.  Resolutions are cached per
(algebra, module) key; a cache hit is indistinguishable from recomputing.
"""

from __future__ import annotations

from dataclasses import dataclass

from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import Matrix, SpanTracker
from quiverkit.repmod import (
    Module,
    ModuleMap,
    ProjectiveSum,
    cokernel_of,
    combine_maps,
    dual_module,
    hom_basis,
    hom_coords,
    kernel_of,
    min_proj_presentation,
    projective_basis_indices,
    projective_cover,
    projective_sum,
    psum_map,
    simple,
    zero_module,
)


class HomologyError(Exception):
    pass


@dataclass
class Resolution:
    """An initial segment of a minimal projective resolution.

    terms[k] is the k-th projective (a ProjectiveSum), diffs[k] the map
    terms[k+1] -> terms[k], and aug the augmentation terms[0] ->> module.
    Consecutive differentials compose to zero and every differential's
    image lies in the radical of its target (minimality by construction,
    each term being a projective cover).
    """

    module: Module
    terms: list
    diffs: list
    aug: ModuleMap
    kernels: list  # (kernel module, inclusion into terms[k]) used to extend

    def term_module(self, k):
        if k < len(self.terms):
            return self.terms[k].module
        return None


def min_resolution(m: Module, length: int) -> Resolution:
    """Minimal projective resolution of m out to terms[length] (cached)."""
    a = m.algebra
    cache = a._resolutions
    key = m.key()
    res = cache.get(key)
    if res is None:
        p0, epi = projective_cover(m)
        ker, incl = kernel_of(epi, label="syzygy")
        res = Resolution(m, [p0], [], epi, [(ker, incl)])
        cache[key] = res
    while len(res.terms) <= length and not res.kernels[-1][0].is_zero():
        ker, incl = res.kernels[-1]
        pk, cover = projective_cover(ker)
        res.terms.append(pk)
        res.diffs.append(incl.compose(cover))
        ker2, incl2 = kernel_of(cover, label="syzygy")
        # the new kernel sits inside the new projective term
        res.kernels.append((ker2, incl2))
        if len(res.terms) > length + 1:
            break
    return res


def proj_dim(m: Module, cap: int = 10):
    """Projective dimension, or None when it is at least cap."""
    if m.is_zero():
        return 0
    res = min_resolution(m, cap)
    if res.kernels[-1][0].is_zero():
        return len(res.terms) - 1
    return None


def inj_dim(m: Module, cap: int = 10):
    """Injective dimension via the dual module over the opposite algebra."""
    if m.is_zero():
        return 0
    return proj_dim(dual_module(m), cap)


def global_dim(a: BasedAlgebra, cap: int = 10):
    """Max projective dimension of the simple modules; None if any hits cap."""
    best = 0
    for v in a.vertices:
        d = proj_dim(simple(a, v), cap)
        if d is None:
            return None
        best = max(best, d)
    return best


# ---------------------------------------------------------------------------
# Ext


def _precomposition_matrix(hk, hk1, d):
    """Matrix of phi -> phi o d from span(hk) to span(hk1), as columns of
    coordinates; hk basis of Hom(P_k, N), hk1 of Hom(P_{k+1}, N)."""
    cols = []
    for phi in hk:
        comp = phi.compose(d)
        coords = hom_coords(hk1, comp)
        if coords is None:
            raise HomologyError("composition left the hom space")
        cols.append(coords)
    return cols


def ext_dim(m: Module, n: Module, k: int, resolution: Resolution = None):
    """dim Ext^k(M, N) and cocycle representatives P_k -> N.

    For k = 0 the representatives are a basis of Hom(M, N) itself.
    """
    if k < 0:
        raise HomologyError("negative degree")
    if m.algebra is not n.algebra:
        raise HomologyError("modules over different algebras")
    if k == 0:
        basis = hom_basis(m, n)
        return len(basis), basis
    res = resolution or min_resolution(m, k + 1)
    pk = res.term_module(k)
    if pk is None or pk.is_zero():
        return 0, []
    f = m.algebra.field
    hk = hom_basis(pk, n)
    if not hk:
        return 0, []
    pk1 = res.term_module(k + 1)
    if pk1 is None or pk1.is_zero():
        cocycles = [[f.one() if i == j else f.zero() for i in range(len(hk))]
                    for j in range(len(hk))]
    else:
        hk1 = hom_basis(pk1, n)
        cols = _precomposition_matrix(hk, hk1, res.diffs[k])
        if not hk1:
            cocycles = [[f.one() if i == j else f.zero() for i in range(len(hk))]
                        for j in range(len(hk))]
        else:
            mat = Matrix(f, [[cols[j][i] for j in range(len(hk))]
                             for i in range(len(hk1))])
            from quiverkit.linalg import kernel_basis
            cocycles = kernel_basis(mat)
    # coboundaries: image of Hom(P_{k-1}, N) under precomposition with d_k
    pkm1 = res.term_module(k - 1) if k >= 1 else None
    boundary_vecs = []
    if pkm1 is not None and not pkm1.is_zero():
        hkm1 = hom_basis(pkm1, n)
        for psi in hkm1:
            comp = psi.compose(res.diffs[k - 1])
            coords = hom_coords(hk, comp)
            boundary_vecs.append(coords)
    tracker = SpanTracker(len(hk), f)
    for v in boundary_vecs:
        tracker.add(v)
    bdim = tracker.dim
    reps = []
    for v in cocycles:
        if tracker.add(v):
            reps.append(v)
    dim = len(reps)
    rep_maps = []
    for v in reps:
        rep_maps.append(combine_maps(v, hk, pk, n))
    return dim, rep_maps


# ---------------------------------------------------------------------------
# transpose and tau


def _map_components_as_elements(d1, p1: ProjectiveSum, p0: ProjectiveSum):
    """Entries x[alpha][beta] in e_{t(alpha)} A e_{s(beta)} of a map between
    projective sums (the image of each generator, split into summand blocks)."""
    a = p0.algebra
    f = a.field
    out = []
    for alpha in range(len(p0.verts)):
        out.append([None] * len(p1.verts))
    for beta, vb in enumerate(p1.verts):
        # generator of summand beta: the idempotent basis element's slot
        off_b, _ = p1.summand_offsets(vb)[beta]
        at_vb = projective_basis_indices(a, a.vertices[vb])[vb]
        gen_col = off_b + at_vb.index(a.idempotents[vb])
        # image in p0.module at vertex vb
        img = [d1.blocks[vb].data[i][gen_col] for i in range(p0.module.dims[vb])]
        for alpha, va in enumerate(p0.verts):
            off_a, da = p0.summand_offsets(vb)[alpha]
            elem = [f.zero()] * a.dim
            basis_at = projective_basis_indices(a, a.vertices[va])[vb]
            for pos, k in enumerate(basis_at):
                elem[k] = img[off_a + pos]
            out[alpha][beta] = elem
    return out


def transpose(m: Module) -> Module:
    """Tr(M) over the opposite algebra, from a minimal presentation.

    Projective summands of M contribute nothing (their minimal presentation
    has no first term), so Tr of a projective is zero.
    """
    a = m.algebra
    if m.is_zero():
        return zero_module(a.opposite())
    p1, p0, d1, _ = min_proj_presentation(m)
    op = a.opposite()
    if not p1.verts:
        return zero_module(op)
    x = _map_components_as_elements(d1, p1, p0)
    q0 = projective_sum(op, [p0.verts[alpha] for alpha in range(len(p0.verts))])
    q1 = projective_sum(op, [p1.verts[beta] for beta in range(len(p1.verts))])
    # map q0 -> q1; the alpha-generator goes to sum over beta of x[alpha][beta]
    f = a.field
    gen_images = []
    for alpha, va in enumerate(p0.verts):
        img = [f.zero()] * q1.module.dims[va]
        for beta, vb in enumerate(p1.verts):
            elem = x[alpha][beta]
            # elem lies in e_{va} A e_{vb} = e_{vb} A^op e_{va}: a vector in
            # the beta-summand of q1 at vertex va
            off, _ = q1.summand_offsets(va)[beta]
            basis_at = projective_basis_indices(op, op.vertices[vb])[va]
            for pos, k in enumerate(basis_at):
                if elem[k] != f.zero():
                    img[off + pos] = f.add(img[off + pos], elem[k])
        gen_images.append(img)
    g = psum_map(q0, q1.module, gen_images)
    coker, _ = cokernel_of(g, label=f"Tr {m.label}")
    return coker


def tau(m: Module) -> Module:
    """Auslander-Reiten translate D Tr; projective summands map to zero."""
    t = transpose(m)
    out = dual_module(t)
    return Module(m.algebra, out.dims, out.mats, label=f"tau {m.label}")


def tau_inv(m: Module) -> Module:
    """Inverse translate Tr D; injective summands map to zero."""
    d = dual_module(m)
    t = transpose(d)
    return Module(m.algebra, t.dims, t.mats, label=f"tau- {m.label}")


# ---------------------------------------------------------------------------
# chain lifting (used by the bimodule actions)


def lift_chain_map(g: ModuleMap, res_src: Resolution, res_tgt: Resolution, upto: int):
    """Chain maps Lambda_k: P_k(source of g) -> P_k(target of g) over g.

    Lifts are deterministic: each one is the rref particular solution of
    the lifting system (free coordinates zero).
    """
    f = g.source.algebra.field
    lifts = []
    prev = None
    for k in range(upto + 1):
        pk_s = res_src.term_module(k)
        pk_t = res_tgt.term_module(k)
        if pk_s is None or pk_s.is_zero():
            lifts.append(None)
            prev = None
            continue
        if k == 0:
            target_map = g.compose(res_src.aug)
            post = res_tgt.aug
        else:
            if prev is None:
                # the previous lift was forced zero, so is this level's
                target_map = None
            else:
                target_map = prev.compose(res_src.diffs[k - 1])
            post = res_tgt.diffs[k - 1] if k - 1 < len(res_tgt.diffs) else None
        if pk_t is None or pk_t.is_zero():
            # exactness of the shorter target resolution forces the
            # composite to vanish, so the zero component lifts
            if target_map is not None and any(
                x != f.zero() for x in target_map.flatten()
            ):
                raise HomologyError("cannot lift through a shorter resolution")
            lifts.append(None)
            prev = None
            continue
        if target_map is None:
            from quiverkit.repmod import zero_map
            lam = zero_map(pk_s, pk_t)
            lifts.append(lam)
            prev = lam
            continue
        basis = hom_basis(pk_s, pk_t)
        if post is None:
            raise HomologyError("missing differential in the target resolution")
        # solve post o Lambda = target_map in the hom space
        cols = []
        for h in basis:
            cols.append(post.compose(h).flatten())
        flat = target_map.flatten()
        if not cols:
            if any(x != f.zero() for x in flat):
                raise HomologyError("lifting system is infeasible")
            lifts.append(None)
            prev = None
            continue
        mat = Matrix(f, [[cols[j][i] for j in range(len(cols))]
                         for i in range(len(flat))])
        from quiverkit.linalg import solve as lin_solve
        coords = lin_solve(mat, flat)
        if coords is None:
            raise HomologyError("lifting system is infeasible")
        lam = combine_maps(coords, basis, pk_s, pk_t)
        lifts.append(lam)
        prev = lam
    return lifts
