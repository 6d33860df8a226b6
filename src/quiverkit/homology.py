"""Minimal projective resolutions, Ext groups, transpose, the
Auslander-Reiten translation tau = D Tr (with inverse Tr D), and the
almost split sequence ending at a module.

All Ext computations run over minimal projective resolutions; injective
arguments are converted through the standard duality D into projective
computations over the opposite algebra.  Resolutions are cached per
(algebra, module) key; a cache hit is indistinguishable from recomputing.
A syzygy is computed when the resolution is extended past it, or when
`proj_dim` asks whether the last one vanishes: a resolution out to P_k
holds the k syzygies its terms cover, not the one after.

Ext in each degree k >= 1 is one `ExtGroup`: the term P_k, cocycle
representatives of a basis in generator coordinates (and, on demand, as
maps), and the coordinates of any cocycle's class over them: `classes_of`
reads many cocycles given in generator coordinates with one elimination,
and `classes` reads one cocycle given as a map.  `ext_dim`, the almost
split class and the Ext^2 bimodule of `extensions` all read their classes
from it.

A map out of a resolution term, a sum of projectives e_v A, is handled by
its generator images: Hom(e_v A, N) = N e_v, so chain lifts and the
transpose are read from or built out of those images
(`ProjectiveSum.generator_images`, `ProjectiveSum.parts`, `psum_map`), with
no Hom system to solve.  A chain lift reads the generator images of each
composite it lifts without composing maps, and solves for all generators at
one vertex with one elimination.  Precomposition with a differential is
linear in them: `hom_matrix` is Hom(d, N) in generator coordinates, and Ext
cocycles and coboundaries are its kernel and its columns.  `hom_basis` serves Ext^0
and End(tau Y) only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import Matrix, SpanTracker, kernel_basis, lincomb, solve_many
from quiverkit.repmod import (
    Module,
    ModuleMap,
    cokernel_of,
    combine_maps,
    direct_sum,
    dual_module,
    end_radical_basis,
    hom_basis,
    kernel_of,
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
    """An initial segment of a minimal projective resolution.

    terms[k] is the k-th projective (a ProjectiveSum), diffs[k] the map
    terms[k+1] -> terms[k], and aug the augmentation terms[0] ->> module.
    Consecutive differentials compose to zero and every differential's
    image lies in the radical of its target (minimality by construction,
    each term being a projective cover).

    kernels[k] is the syzygy ker(terms[k] -> terms[k-1] or the module) with
    its inclusion into terms[k].  The last one is computed from cover, the
    map of terms[-1] onto its image, only when it is read: when the
    resolution is extended past it, or by `proj_dim`.  cover is None once
    that kernel is in kernels.
    """

    module: Module
    terms: list
    diffs: list
    aug: ModuleMap
    kernels: list  # (kernel module, inclusion into terms[k]), computed on read
    cover: ModuleMap = None  # terms[-1] ->> its image, until its kernel is read

    def term_module(self, k):
        if k < len(self.terms):
            return self.terms[k].module
        return None

    def last_kernel(self):
        """kernels[-1], the kernel of the last term's cover."""
        if self.cover is not None:
            self.kernels.append(kernel_of(self.cover, label="syzygy"))
            self.cover = None
        return self.kernels[-1]

    def extend(self, length):
        """Extend out to terms[length] or a vanishing kernel; returns self."""
        while len(self.terms) <= length and not self.last_kernel()[0].is_zero():
            ker, incl = self.kernels[-1]
            pk, self.cover = projective_cover(ker)
            self.terms.append(pk)
            self.diffs.append(incl.compose(self.cover))
        return self


def start_resolution(m: Module) -> Resolution:
    """The uncached start of m's resolution: its cover."""
    p0, epi = projective_cover(m)
    return Resolution(m, [p0], [], epi, [], epi)


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
    if res.last_kernel()[0].is_zero():
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


def hom_matrix(d: ModuleMap, src, tgt, n: Module) -> Matrix:
    """Hom(d, N) in generator coordinates, for d: src -> tgt between
    projective sums: the matrix taking the generator images of psi: tgt -> N
    to those of psi o d.  Its (beta, alpha) block is sum_k c_k R_k, where
    the c_k are `tgt.parts`[beta][alpha] and R_k is the right action of the
    k-th basis element from v_alpha to w_beta, N at v_alpha -> N at w_beta,
    read from `right_action`."""
    alg = n.algebra
    f = alg.field
    right = {v: right_action(n, v) for v in set(tgt.verts)}
    data = []
    for w, parts in zip(src.verts, tgt.parts(d, src)):
        blocks = []
        for v, coeffs in zip(tgt.verts, parts):
            into_w = [r for k, r in right[v].items() if alg.target[k] == w]
            blocks.append(lincomb(f, n.dims[w], n.dims[v], zip(coeffs, into_w)))
        data += [[x for b in blocks for x in b.data[i]] for i in range(n.dims[w])]
    return Matrix.wrap(f, data, len(data), sum(n.dims[v] for v in tgt.verts))


@dataclass
class ExtGroup:
    """Ext^k(M, N), k >= 1, over a projective resolution of M.

    Hom(P_k, N) is taken in generator coordinates: cocycles are the kernel
    of `hom_matrix`(d_{k+1}), precomposition with d_{k+1}, and coboundaries
    the columns of `hom_matrix`(d_k).  term is P_k (None past the
    resolution's end) and reps are the cocycles of the kernel basis that
    complete the coboundaries: their classes are a basis of Ext^k.
    `classes_of` reads the classes of many cocycles, given in generator
    coordinates, at once; `classes` reads one cocycle given as a map.
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

    def classes(self, cocycle: ModuleMap):
        """The coordinates over reps of the class of a cocycle P_k -> N."""
        coords = None
        if (self.term is not None and cocycle.source.dims == self.term.module.dims
                and cocycle.target.dims == self.target.dims):
            coords = self.term.coordinates(cocycle)
        if coords is None:
            raise HomologyError("not a cocycle out of the resolution term")
        return self.classes_of([coords])[0]


def ext_group(m: Module, n: Module, k: int, resolution: Resolution = None) -> ExtGroup:
    """Ext^k(M, N) for k >= 1, over resolution (M's minimal one by default)."""
    if k < 1:
        raise HomologyError("ext_group needs a degree of at least 1")
    if m.algebra is not n.algebra:
        raise HomologyError("modules over different algebras")
    f = m.algebra.field
    res = resolution or min_resolution(m, k + 1)
    pk = res.terms[k] if k < len(res.terms) else None
    nh = sum(n.dims[v] for v in pk.verts) if pk is not None else 0  # dim Hom(P_k, N)
    if not nh:
        return ExtGroup(pk, n, [], Matrix.zeros(f, 0, 0), 0)
    if k + 1 < len(res.terms):
        cocycles = kernel_basis(hom_matrix(res.diffs[k], res.terms[k + 1], pk, n))
    else:
        cocycles = kernel_basis(Matrix.zeros(f, 0, nh))
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
    from res, m's resolution, when the caller holds one).

    Projective summands of M contribute nothing (their minimal presentation
    has no first term), so Tr of a projective is zero.
    """
    op = m.algebra.opposite()
    res = (res or start_resolution(m)).extend(1)
    if len(res.terms) < 2:
        return zero_module(op)
    p0, p1, d1 = res.terms[0], res.terms[1], res.diffs[0]
    # The alpha-th summand part of d1's beta-th generator image lies in
    # e_va A e_vb = e_vb A^op e_va, whose basis, in the same order, is the
    # beta-th summand of q1 at va.  Hom(d1, A) sends the alpha-th generator
    # of q0 to these parts, side by side.
    q0 = projective_sum(op, p0.verts)
    q1 = projective_sum(op, p1.verts)
    parts = p0.parts(d1, p1)
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
    ext = ext_group(y, ty, 1, resolution=res.extend(2))
    reps = ext.reps
    xi = reps[0]
    p0, p1 = res.terms[0], res.terms[1]
    if len(reps) > 1:
        # the rows of rho acting on the classes, for rho in rad End(tau Y)
        rad = end_radical_basis(hom_basis(ty, ty))
        rows = [row for rho in rad for row in Matrix.from_columns(
            f, [ext.classes(rho.compose(r)) for r in reps], len(reps)).data]
        socle = kernel_basis(Matrix(f, rows, len(rows), len(reps)))
        if not socle:
            raise HomologyError(
                f"no almost split class ending at dimension vector {list(y.dims)} "
                f"over {f.name()}: the trace form misses rad End(tau) there")
        xi = combine_maps(socle[0], reps, p1.module, ty)
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
