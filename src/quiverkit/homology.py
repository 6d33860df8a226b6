"""Minimal projective resolutions, Ext groups, transpose, the
Auslander-Reiten translation tau = D Tr (with inverse Tr D), and the
almost split sequence ending at a module.

All Ext computations run over minimal projective resolutions; injective
arguments are converted through the standard duality D into projective
computations over the opposite algebra.  Resolutions are cached per
(algebra, module) key; a cache hit is indistinguishable from recomputing.
A resolution is a chain of differentials between projective sums, computed
inside the projectives: no syzygy is built as a module.  The kernel of the
map out of a term is held as its reduced echelon span at each vertex
(`repmod.kernel_span`), computed when read; the next differential covers it
(`repmod.kernel_cover`), Ext^k reads it as what its cocycles vanish on, and
`proj_dim` asks whether the last one is zero, so a resolution out to P_k
builds no term past P_k.

Ext in each degree k >= 1 is one `ExtGroup`: the term P_k, cocycle
representatives of a basis in generator coordinates (and, on demand, as
maps), and the coordinates of any cocycle's class over them: `classes_of`
reads many cocycles, given in generator coordinates, with one elimination.
`ext_dim`, the almost split class and the Ext^2 bimodule of `extensions`
all read their classes from it.

A map out of a resolution term, a sum of projectives e_v A, is handled by
its generator images: Hom(e_v A, N) = N e_v, so chain lifts and the
transpose are read from or built out of those images
(`ProjectiveSum.generator_images`, `ProjectiveSum.parts`, `psum_map`), with
no Hom system to solve.  A chain lift reads the generator images of each
composite it lifts without composing maps, and solves for all generators at
one vertex with one elimination.  A map's values are linear in them:
`value_matrix` takes them to a map's values at given vectors, Ext cocycles
are the kernel of its values on the kernel span, and `hom_matrix`, Hom(d, N),
gives the coboundaries as its columns.  `hom_basis` serves Ext^0 and
End(tau Y) only.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from functools import cached_property

from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import Matrix, SpanTracker, kernel_basis, lincomb, solve_many
from quiverkit.repmod import (
    Module,
    ModuleMap,
    cokernel_of,
    direct_sum,
    dual_module,
    end_radical_basis,
    hom_basis,
    kernel_cover,
    kernel_span,
    projective_cover,
    projective_sum,
    psum_map,
    right_action,
    simple,
    zero_module,
)


class HomologyError(Exception):
    pass


@dataclass
class Resolution:
    """An initial segment of a minimal projective resolution, as a chain of
    differentials between projective sums.

    terms[k] is the k-th projective (a ProjectiveSum), diffs[k] the map
    terms[k+1] -> terms[k], and aug the augmentation terms[0] ->> module.
    Consecutive differentials compose to zero and every differential's
    image lies in the radical of its target (minimality by construction,
    each differential being a projective cover of its image composed with
    the image's inclusion, `kernel_cover`).

    spans[k] is the kernel of the map out of terms[k] (aug, or diffs[k-1]),
    as its reduced echelon span at each vertex (`kernel_span`).  `span`
    computes it when it is read: when the resolution is extended past
    terms[k], by Ext^k, or by `proj_dim`.
    """

    module: Module
    terms: list
    diffs: list
    aug: ModuleMap
    spans: list = dataclass_field(default_factory=list, init=False)  # computed on read

    def term_module(self, k):
        if k < len(self.terms):
            return self.terms[k].module
        return None

    def span(self, k):
        """spans[k], the kernel span of the map out of terms[k]."""
        while len(self.spans) <= k:
            j = len(self.spans)
            self.spans.append(kernel_span(self.diffs[j - 1] if j else self.aug))
        return self.spans[k]

    def kernel_is_zero(self, k):
        return not any(rows for rows, _ in self.span(k))

    def extend(self, length):
        """Extend out to terms[length] or a vanishing kernel; returns self."""
        while len(self.terms) <= length:
            k = len(self.terms) - 1
            if self.kernel_is_zero(k):
                break
            pk, d = kernel_cover(self.terms[k].module, self.spans[k])
            self.terms.append(pk)
            self.diffs.append(d)
        return self


def start_resolution(m: Module) -> Resolution:
    """The uncached start of m's resolution: its cover."""
    p0, epi = projective_cover(m)
    return Resolution(m, [p0], [], epi)


def _resolving(res: Resolution, m: Module) -> Resolution:
    """res, checked to be a resolution of m (of a module with m's key)."""
    if res.module is not m and res.module.key() != m.key():
        raise HomologyError(f"the resolution given is of {res.module.label}, not of {m.label}")
    return res


def min_resolution(m: Module, length: int) -> Resolution:
    """Minimal projective resolution of m out to terms[length] (cached)."""
    cache = m.algebra._resolutions
    key = m.key()
    if key not in cache:
        cache[key] = start_resolution(m)
    return cache[key].extend(length)


def proj_dim(m: Module, cap: int = 10):
    """Projective dimension, or None when it is at least cap."""
    if m.is_zero():
        return 0
    res = min_resolution(m, cap)
    if res.kernel_is_zero(len(res.terms) - 1):
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


def value_matrix(psum, verts, vecs, n: Module) -> Matrix:
    """The matrix taking the generator images of psi: psum -> N to the
    values psi(vecs[i]), stacked, where vecs[i] is a vector of the projective
    sum psum at vertex verts[i].  Its (i, alpha) block is sum_k c_k R_k,
    where the c_k are `psum.parts`[i][alpha] and R_k is the right action of
    the k-th basis element of e_v A e_w, v = v_alpha and w = verts[i], N at
    v -> N at w, read from `right_action`."""
    alg = n.algebra
    f = alg.field
    right = {}  # v -> w -> the R_k of the basis of e_v A e_w, built when first read
    data = []
    for w, parts in zip(verts, psum.parts(verts, vecs)):
        blocks = []
        for v, coeffs in zip(psum.verts, parts):
            if v not in right:
                acts = right_action(n, v)
                right[v] = [[acts[k] for k in ks] for ks in alg.between[v]]
            blocks.append(lincomb(f, n.dims[w], n.dims[v], zip(coeffs, right[v][w])))
        data += [[x for b in blocks for x in b.data[i]] for i in range(n.dims[w])]
    return Matrix.wrap(f, data, len(data), sum(n.dims[v] for v in psum.verts))


def hom_matrix(d: ModuleMap, src, tgt, n: Module) -> Matrix:
    """Hom(d, N) in generator coordinates, for d: src -> tgt between
    projective sums: the matrix taking the generator images of psi: tgt -> N
    to those of psi o d, which are psi's values at d's generator images."""
    return value_matrix(tgt, src.verts, src.generator_images(d), n)


@dataclass
class ExtGroup:
    """Ext^k(M, N), k >= 1, over a projective resolution of M.

    Hom(P_k, N) is taken in generator coordinates.  Cocycles are the maps
    that vanish on the kernel of d_k: P_k -> P_{k-1}, which is the image of
    d_{k+1}: the kernel of `value_matrix` at the resolution's kernel span,
    so no P_{k+1} is needed.  Coboundaries are the columns of
    `hom_matrix`(d_k).
    term is P_k (None past the resolution's end) and reps are the cocycles
    of the kernel basis that complete the coboundaries: their classes are a
    basis of Ext^k.  `classes_of` reads the classes of many cocycles, given
    in generator coordinates, at once.
    """

    term: object
    target: Module
    cocycles: list  # the generator coordinates of reps
    _basis: Matrix  # columns: independent coboundaries, then cocycles
    _n_boundary: int

    @cached_property
    def reps(self):
        """The cocycles as maps P_k -> N."""
        return [self.term.map_with_coordinates(self.target, v) for v in self.cocycles]

    def classes_of(self, images):
        """The coordinates over reps of the classes of the cocycles P_k -> N
        whose generator coordinates are images, from one elimination of
        [_basis | images]."""
        sol = solve_many(self._basis, images)
        if sol is None:
            raise HomologyError("not a cocycle out of the resolution term")
        return [x[self._n_boundary:] for x in sol]



def ext_group(m: Module, n: Module, k: int, resolution: Resolution = None) -> ExtGroup:
    """Ext^k(M, N) for k >= 1, over resolution (M's minimal one by default),
    extended out to P_k; a resolution of another module is refused."""
    if k < 1:
        raise HomologyError("ext_group needs a degree of at least 1")
    if m.algebra is not n.algebra:
        raise HomologyError("modules over different algebras")
    f = m.algebra.field
    res = _resolving(resolution, m).extend(k) if resolution else min_resolution(m, k)
    pk = res.terms[k] if k < len(res.terms) else None
    nh = sum(n.dims[v] for v in pk.verts) if pk is not None else 0  # dim Hom(P_k, N)
    if not nh:
        return ExtGroup(pk, n, [], Matrix.zeros(f, 0, 0), 0)
    # the kernel span of d_k; psi has no values to vanish at a vertex where
    # N is zero, so the rows there are skipped
    at = [(w, row) for w, (rows, _) in enumerate(res.span(k)) if n.dims[w] for row in rows]
    cocycles = kernel_basis(value_matrix(pk, [w for w, _ in at], [r for _, r in at], n))
    tracker = SpanTracker(f)
    bnd = hom_matrix(res.diffs[k - 1], pk, res.terms[k - 1], n)
    boundaries = [v for v in map(bnd.column, range(bnd.cols)) if tracker.add(v)]
    reps = [v for v in cocycles if tracker.add(v)]
    return ExtGroup(pk, n, reps, Matrix.from_columns(f, boundaries + reps, nh), len(boundaries))


def ext_dim(m: Module, n: Module, k: int, resolution: Resolution = None):
    """dim Ext^k(M, N) and cocycle representatives P_k -> N; for k = 0 the
    representatives are a basis of Hom(M, N) itself."""
    if k < 0:
        raise HomologyError("negative degree")
    if m.algebra is not n.algebra:
        raise HomologyError("modules over different algebras")
    reps = hom_basis(m, n) if k == 0 else ext_group(m, n, k, resolution).reps
    return len(reps), reps


# ---------------------------------------------------------------------------
# transpose and tau


def transpose(m: Module, res: Resolution = None) -> Module:
    """Tr(M) over the opposite algebra, from a minimal presentation (read
    from res, m's resolution, when the caller holds one; a resolution of
    another module is refused).

    Projective summands of M contribute nothing (their minimal presentation
    has no first term), so Tr of a projective is zero.
    """
    op = m.algebra.opposite()
    res = (_resolving(res, m) if res else start_resolution(m)).extend(1)
    if len(res.terms) < 2:
        return zero_module(op)
    p0, p1, d1 = res.terms[0], res.terms[1], res.diffs[0]
    # The alpha-th summand part of d1's beta-th generator image lies in
    # e_va A e_vb = e_vb A^op e_va, and op.between[vb][va] ==
    # a.between[va][vb]: the same basis, in the same order, is the beta-th
    # summand of q1 at va.  Hom(d1, A) sends the alpha-th generator of q0
    # to these parts, side by side.
    q0 = projective_sum(op, p0.verts)
    q1 = projective_sum(op, p1.verts)
    parts = p0.parts(p1.verts, p1.generator_images(d1))
    gen_images = [[x for part in parts for x in part[alpha]]
                  for alpha in range(len(p0.verts))]
    g = psum_map(q0, q1.module, gen_images)
    coker = cokernel_of(g, label=f"Tr {m.label}")
    return coker


def tau(m: Module, res: Resolution = None) -> Module:
    """Auslander-Reiten translate D Tr; projective summands map to zero."""
    t = transpose(m, res)
    out = dual_module(t)
    return Module(m.algebra, out.dims, out.mats, label=f"tau {m.label}")


def tau_inv(m: Module) -> Module:
    """Inverse translate Tr D; injective summands map to zero."""
    d = dual_module(m)
    t = transpose(d)
    return Module(m.algebra, t.dims, t.mats, label=f"tau- {m.label}")


# ---------------------------------------------------------------------------
# almost split sequences


def almost_split_middle(y: Module, ty: Module, res: Resolution) -> Module:
    """The middle term E of the almost split sequence 0 -> tau Y -> E -> Y -> 0.

    y is indecomposable and not projective, ty is tau(y) and res is y's
    resolution.  E is the pushout of P1 -> P0 along a cocycle xi: P1 ->
    tau Y, coker(P1 -> P0 + tau Y), whose class lies in the socle of
    Ext^1(Y, tau Y) as an End(tau Y)-module: the nonzero classes there are
    those of the almost split sequence (Auslander-Reiten-Smalo V.2).  Unless
    tau Y is a brick or Ext^1 a line, xi is a class that the trace-form
    radical, which contains rad End(tau Y), kills; when none is left (small
    characteristic) a HomologyError says so rather than guess.
    """
    a = y.algebra
    f = a.field
    ext = ext_group(y, ty, 1, resolution=res.extend(1))
    p0, p1 = res.terms[0], res.terms[1]
    coords = ext.cocycles[0]
    if len(ext.cocycles) > 1:
        # the rows of rho acting on the classes, for rho in rad End(tau Y):
        # rho o r has the generator images of r pushed through rho
        rad = end_radical_basis(hom_basis(ty, ty))
        rows = [row for rho in rad for row in Matrix.from_columns(
            f, ext.classes_of([p1.postcompose(rho.blocks, r) for r in ext.cocycles]),
            len(ext.cocycles)).data]
        socle = kernel_basis(Matrix(f, rows, len(rows), len(ext.cocycles)))
        if not socle:
            raise HomologyError(
                f"no almost split class ending at dimension vector {list(y.dims)} "
                f"over {f.name()}: the trace form misses rad End(tau) there")
        coords = Matrix.from_columns(f, ext.cocycles, len(coords)).apply(socle[0])
    xi = p1.map_with_coordinates(ty, coords)
    blocks = [Matrix(f, d.data + x.data, cols=d.cols)
              for d, x in zip(res.diffs[0].blocks, xi.blocks)]
    pushout = ModuleMap(p1.module, direct_sum(a, [p0.module, ty]), blocks)
    return cokernel_of(pushout, label=f"E({y.label})")


# ---------------------------------------------------------------------------
# chain lifting (used by the bimodule actions)


def lift_chain_map(g: ModuleMap, res_src: Resolution, res_tgt: Resolution, upto: int):
    """Chain maps Lambda_k: P_k(source of g) -> P_k(target of g) over g.

    Each Lambda_k is built from its generator images: for the generator of
    a summand at vertex v, the rref particular solution x (free coordinates
    zero) of post_v x = want, where want is the generator's image under the
    map to be lifted and post is the target's augmentation or differential.
    The generators at one vertex are solved together, by one `solve_many`
    of [post_v | wants].
    """
    lifts = []
    prev = None
    for k in range(upto + 1):
        pk_s = res_src.terms[k] if k < len(res_src.terms) else None
        pk_t = res_tgt.terms[k] if k < len(res_tgt.terms) else None
        if pk_s is None or pk_s.module.is_zero():
            lifts.append(None)
            prev = None
            continue
        first, outer = (res_src.diffs[k - 1], prev) if k else (res_src.aug, g)
        # the generator images of outer o first, read without composing; None
        # when the previous lift was forced zero, which happens only after
        # a resolution has ended, so this degree lacks a target term too
        wants = None if outer is None else [
            outer.blocks[v].apply(x) for v, x in zip(pk_s.verts, pk_s.generator_images(first))]
        if pk_t is None or pk_t.module.is_zero():
            # exactness of the shorter target resolution forces the
            # composite to vanish, so the zero component lifts
            if wants is not None and any(map(any, wants)):
                raise HomologyError("cannot lift through a shorter resolution")
            lifts.append(None)
            prev = None
            continue
        post = res_tgt.diffs[k - 1] if k else res_tgt.aug
        images = [None] * len(wants)
        for v in sorted(set(pk_s.verts)):
            at_v = [c for c, w in enumerate(pk_s.verts) if w == v]
            xs = solve_many(post.blocks[v], [wants[c] for c in at_v])
            if xs is None:
                raise HomologyError("lifting system is infeasible")
            for c, x in zip(at_v, xs):
                images[c] = x
        prev = psum_map(pk_s, pk_t.module, images)
        lifts.append(prev)
    return lifts
