"""Right modules over a BasedAlgebra in quiver-representation form.

A module assigns to each vertex a finite-dimensional space and to each
Gabriel-quiver arrow i -> j a matrix M_i -> M_j (right action, arrows
composed left to right).  Everything downstream -- Hom spaces, radical
series, projective covers, duality, decomposition -- is exact linear
algebra over the algebra's field.  Basis elements act through arrow words:
`right_multiples` pushes one vector, and `right_action` gives the matrix of
each basis element's action, the one table that validation, restriction,
annihilators and the extensions read.

Submodules and quotients take the reduced echelon basis of each span: a
vector of the span has its coordinates at the pivot columns, and a
quotient's basis is the classes of the unit vectors at the free columns.
"""

from __future__ import annotations

from dataclasses import dataclass

from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import (
    Matrix,
    echelon,
    kernel_basis,
    lincomb,
    matmul,
    rref,
    unit_complement,
)


class ModuleError(Exception):
    pass


class Module:
    """A right module in representation form over a BasedAlgebra."""

    __slots__ = ("algebra", "dims", "mats", "label", "_basis_action", "_key")

    def __init__(self, algebra: BasedAlgebra, dims, mats, label="M", validate=False):
        self.algebra = algebra
        self.dims = tuple(int(d) for d in dims)
        if len(self.dims) != len(algebra.vertices):
            raise ModuleError("one dimension per vertex required")
        self.mats = {}
        for rep in algebra.arrow_reps:
            m = mats.get(rep.name)
            expected = (self.dims[rep.target], self.dims[rep.source])
            if m is None:
                m = Matrix.zeros(algebra.field, *expected)
            if (m.rows, m.cols) != expected:
                raise ModuleError(
                    f"action for {rep.name} has shape {(m.rows, m.cols)}, expected {expected}"
                )
            self.mats[rep.name] = m
        self.label = label
        self._basis_action = None
        self._key = None
        if validate:
            _validate_action(self)

    @property
    def total_dim(self):
        return sum(self.dims)

    def offsets(self):
        off = []
        acc = 0
        for d in self.dims:
            off.append(acc)
            acc += d
        return off

    def key(self):
        if self._key is None:
            self._key = (
                self.dims,
                tuple(sorted(
                    (name, tuple(tuple(row) for row in m.data))
                    for name, m in self.mats.items()
                )),
            )
        return self._key

    def is_zero(self):
        return self.total_dim == 0

    def arrow_big_matrix(self, name):
        """Arrow action as a map on the total space (block at (target, source))."""
        a = self.algebra
        rep = next(r for r in a.arrow_reps if r.name == name)
        T = self.total_dim
        off = self.offsets()
        big = Matrix.zeros(a.field, T, T)
        m = self.mats[name]
        r0, c0 = off[rep.target], off[rep.source]
        for i in range(m.rows):
            for j in range(m.cols):
                big.data[r0 + i][c0 + j] = m.data[i][j]
        return big

    def basis_action(self):
        """Total-space action matrix of every algebra basis element.

        The package acts on modules through `right_multiples`; these dense
        T x T matrices are the reference that the tests check it against.
        """
        if self._basis_action is not None:
            return self._basis_action
        a = self.algebra
        f = a.field
        T = self.total_dim
        off = self.offsets()
        arrow_big = {r.name: self.arrow_big_matrix(r.name) for r in a.arrow_reps}
        proj = {}
        for vi in range(len(a.vertices)):
            p = Matrix.zeros(f, T, T)
            for i in range(self.dims[vi]):
                p.data[off[vi] + i][off[vi] + i] = f.one()
            proj[vi] = p
        out = []
        exprs = a.basis_expressions()
        for k in range(a.dim):
            acc = Matrix.zeros(f, T, T)
            for coeff, v0, word in exprs[k]:
                cur = proj[v0]
                for ai in word:
                    cur = matmul(arrow_big[a.arrow_reps[ai].name], cur)
                for i in range(T):
                    row = cur.data[i]
                    arow = acc.data[i]
                    for j in range(T):
                        if row[j]:
                            arow[j] = f.add(arow[j], f.mul(coeff, row[j]))
            out.append(acc)
        self._basis_action = out
        return out

    def __repr__(self):
        return f"Module({self.label}, dims={list(self.dims)})"


def _validate_action(m: Module):
    """Raise unless b_k -> R_k is multiplicative: (u.b_i).b_j = u.(b_i b_j)
    for every basis vector u of M.  The arrow action factors through the
    algebra exactly then, whether or not it came from a presentation."""
    a = m.algebra
    acts = [right_action(m, v) for v in range(len(m.dims))]
    for v, at_v in enumerate(acts):
        for i, ri in at_v.items():
            for j, rj in acts[a.target[i]].items():
                rhs = lincomb(a.field, rj.rows, ri.cols,
                              [(c, at_v[k]) for k, c in a.mult.get((i, j), ())])
                if matmul(rj, ri) != rhs:
                    raise ModuleError("module action violates the structure constants")


@dataclass
class ModuleMap:
    """A homomorphism of modules: one matrix per vertex, commuting with all
    arrow actions."""

    source: Module
    target: Module
    blocks: list  # Matrix per vertex: target.dims[v] x source.dims[v]

    def compose(self, first):
        """self after first (first: X -> source, result: X -> target)."""
        return ModuleMap(first.source, self.target,
                         [matmul(self.blocks[v], first.blocks[v])
                          for v in range(len(self.blocks))])

    def flatten(self):
        out = []
        for b in self.blocks:
            for row in b.data:
                out.extend(row)
        return out

    def is_invertible(self):
        if self.source.dims != self.target.dims:
            return False
        for b in self.blocks:
            if b.rows != b.cols:
                return False
            if b.rows and rref(b).rank != b.rows:
                return False
        return True

    def trace(self):
        f = self.source.algebra.field
        acc = f.zero()
        for b in self.blocks:
            for i in range(min(b.rows, b.cols)):
                acc = f.add(acc, b.data[i][i])
        return acc


def combine_maps(coords, basis, source, target):
    """The linear combination sum(coords[t] * basis[t]) as a ModuleMap."""
    f = source.algebra.field
    return ModuleMap(source, target, [
        lincomb(f, target.dims[v], source.dims[v],
                [(c, h.blocks[v]) for c, h in zip(coords, basis)])
        for v in range(len(source.dims))])


def identity_map(m: Module) -> ModuleMap:
    f = m.algebra.field
    return ModuleMap(m, m, [Matrix.identity(f, d) for d in m.dims])


# ---------------------------------------------------------------------------
# basic modules


def simple(a: BasedAlgebra, v) -> Module:
    i = a.vertex_index(v)
    dims = [0] * len(a.vertices)
    dims[i] = 1
    return Module(a, dims, {}, label=f"S({v})")


def projective_basis_indices(a: BasedAlgebra, v):
    """Basis indices of e_v * A grouped per target vertex (in basis order)."""
    vi = a.vertex_index(v)
    per_vertex = [[] for _ in a.vertices]
    for k in range(a.dim):
        if a.source[k] == vi:
            per_vertex[a.target[k]].append(k)
    return per_vertex


def projective(a: BasedAlgebra, v) -> Module:
    """P(v) = e_v A with action by right multiplication.

    Built once per algebra and vertex; modules are never mutated, so every
    caller shares the one instance.
    """
    vi = a.vertex_index(v)
    if vi not in a._projectives:
        a._projectives[vi] = _build_projective(a, v)
    return a._projectives[vi]


def _build_projective(a: BasedAlgebra, v) -> Module:
    f = a.field
    per_vertex = projective_basis_indices(a, v)
    dims = [len(lst) for lst in per_vertex]
    mats = {}
    for rep in a.arrow_reps:
        # the column of b_k is b_k . rho, read at the basis of the target
        rho, at_target = list(rep.vector), per_vertex[rep.target]
        products = [a.mul_vec(a.unit(k), rho) for k in per_vertex[rep.source]]
        mats[rep.name] = Matrix.wrap(f, [[p[k2] for p in products] for k2 in at_target],
                                     dims[rep.target], dims[rep.source])
    return Module(a, dims, mats, label=f"P({v})")


def dual_module(m: Module) -> Module:
    """D(M) over the opposite algebra: spaces dualised, actions transposed."""
    a = m.algebra
    op = a.opposite()
    mats = {}
    for rep in op.arrow_reps:
        # the op-arrow with the same name reverses the original arrow
        mats[rep.name] = m.mats[rep.name].transpose()
    return Module(op, list(m.dims), mats, label=f"D({m.label})")


def injective(a: BasedAlgebra, v) -> Module:
    """I(v) as the dual of the opposite algebra's projective at v."""
    m = dual_module(projective(a.opposite(), v))
    return Module(a, m.dims, m.mats, label=f"I({v})")


def direct_sum(a: BasedAlgebra, mods, label=None) -> Module:
    """The block-diagonal sum: each summand's rows, padded with zeros to the
    left and right of its columns."""
    f = a.field
    z = f.zero()
    n = len(a.vertices)
    dims = [sum(m.dims[v] for m in mods) for v in range(n)]
    mats = {}
    for rep in a.arrow_reps:
        cols = dims[rep.source]
        data, c0 = [], 0
        for m in mods:
            c1 = c0 + m.dims[rep.source]
            data += [[z] * c0 + row + [z] * (cols - c1) for row in m.mats[rep.name].data]
            c0 = c1
        mats[rep.name] = Matrix.wrap(f, data, dims[rep.target], cols)
    if label is None:
        label = "+".join(m.label for m in mods) if mods else "0"
    return Module(a, dims, mats, label=label)


def zero_module(a: BasedAlgebra) -> Module:
    return Module(a, [0] * len(a.vertices), {}, label="0")


# ---------------------------------------------------------------------------
# hom spaces


def hom_basis(m: Module, n: Module):
    """Basis of Hom(M, N): solutions of the arrow-commutation system."""
    if m.algebra is not n.algebra:
        raise ModuleError("modules over different algebras")
    a = m.algebra
    f = a.field
    if m.total_dim == 0 or n.total_dim == 0:
        return []
    offs, total = _unknown_layout(m, n)
    rows = []
    z = f.zero()
    for rep in a.arrow_reps:
        i, j = rep.source, rep.target
        A = m.mats[rep.name]   # m.dims[j] x m.dims[i]
        B = n.mats[rep.name]
        di, dj = m.dims[i], m.dims[j]
        ei, ej = n.dims[i], n.dims[j]
        if di == 0 or ej == 0:
            continue
        for r in range(ej):
            for c in range(di):
                row = [z] * total
                # + (F_j A)[r, c]
                for s in range(dj):
                    if A.data[s][c]:
                        row[offs[j] + r * dj + s] = f.add(row[offs[j] + r * dj + s], A.data[s][c])
                # - (B F_i)[r, c]
                for t in range(ei):
                    if B.data[r][t]:
                        idx = offs[i] + t * di + c
                        row[idx] = f.sub(row[idx], B.data[r][t])
                rows.append(row)
    # the system matrix owns the rows: one copy besides rref's own
    vecs = kernel_basis(Matrix.wrap(f, rows, len(rows), total))
    return [_unflatten_hom(m, n, v) for v in vecs]


def _unknown_layout(m, n):
    offs = []
    pos = 0
    for v in range(len(m.dims)):
        offs.append(pos)
        pos += n.dims[v] * m.dims[v]
    return offs, pos


def _unflatten_hom(m, n, flat):
    f = m.algebra.field
    blocks = []
    pos = 0
    for v in range(len(m.dims)):
        r, c = n.dims[v], m.dims[v]
        data = [list(flat[pos + i * c: pos + (i + 1) * c]) for i in range(r)]
        pos += r * c
        blocks.append(Matrix(f, data, r, c))
    return ModuleMap(m, n, blocks)


# ---------------------------------------------------------------------------
# submodules, quotients, kernels


def submodule_from_spans(m: Module, spans, label="U"):
    """Module on the given per-vertex spanning vectors, with the inclusion.

    spans[v] is a list of coordinate vectors in M_v whose span must be
    closed under all arrow actions.  The basis at v is the span's reduced
    echelon basis, so an arrow's block is its image read at the pivot
    columns of the target.
    """
    a = m.algebra
    f = a.field
    echelons = [echelon(f, spans[v], d) for v, d in enumerate(m.dims)]
    dims = [len(rows) for rows, _ in echelons]
    incl_blocks = [Matrix.from_columns(f, rows, d) for (rows, _), d in zip(echelons, m.dims)]
    mats = {}
    for rep in a.arrow_reps:
        src, tgt = rep.source, rep.target
        img = matmul(m.mats[rep.name], incl_blocks[src])
        pivots = echelons[tgt][1]
        block = Matrix.wrap(f, [img.data[p] for p in pivots], dims[tgt], dims[src])
        if img.cols and matmul(incl_blocks[tgt], block) != img:
            raise ModuleError("spans not closed under the arrow actions")
        mats[rep.name] = block
    sub = Module(a, dims, mats, label=label)
    return sub, ModuleMap(sub, m, incl_blocks)


def quotient_module(m: Module, spans, label="Q"):
    """Quotient of M by the submodule spanned per-vertex by spans.

    With rows r and pivots p of the span's echelon basis at v, the class of
    u is the free (non-pivot) entries of u - sum u[p_r] r; the quotient's
    basis is the classes of the unit vectors at the free positions.
    """
    a = m.algebra
    f = a.field
    z = f.zero()
    free, proj_blocks = [], []
    for v, d in enumerate(m.dims):
        rows, pivots = echelon(f, spans[v], d)
        row_at = dict(zip(pivots, rows))
        free.append([c for c in range(d) if c not in row_at])
        # column c is the class of the unit vector at c
        proj_blocks.append(Matrix.wrap(f, [
            [f.neg(row_at[c][fc]) if c in row_at else f.one() if c == fc else z
             for c in range(d)] for fc in free[v]], len(free[v]), d))
    mats = {}
    for rep in a.arrow_reps:
        src, tgt = rep.source, rep.target
        A = m.mats[rep.name]
        section = Matrix.wrap(f, [[row[c] for c in free[src]] for row in A.data],
                              A.rows, len(free[src]))
        mats[rep.name] = matmul(proj_blocks[tgt], section)
    return Module(a, [len(fr) for fr in free], mats, label=label)


def kernel_of(fmap: ModuleMap, label="ker"):
    spans = []
    m = fmap.source
    for v in range(len(m.dims)):
        vecs = kernel_basis(fmap.blocks[v])
        spans.append(vecs)
    return submodule_from_spans(m, spans, label=label)


def image_spans(fmap: ModuleMap):
    return [[fmap.blocks[v].column(j) for j in range(fmap.blocks[v].cols)]
            for v in range(len(fmap.source.dims))]


def cokernel_of(fmap: ModuleMap, label="coker"):
    return quotient_module(fmap.target, image_spans(fmap), label=label)


# ---------------------------------------------------------------------------
# radical series, socle


def radical_spans(m: Module):
    """Per-vertex spanning vectors of M . rad (images of all arrow actions)."""
    spans = [[] for _ in m.dims]
    for rep in m.algebra.arrow_reps:
        A = m.mats[rep.name]
        for j in range(A.cols):
            spans[rep.target].append(A.column(j))
    return spans


def radical_of(m: Module) -> Module:
    sub, _ = submodule_from_spans(m, radical_spans(m), label=f"rad {m.label}")
    return sub


def top_of(m: Module) -> Module:
    return quotient_module(m, radical_spans(m), label=f"top {m.label}")


def socle_spans(m: Module):
    """Per-vertex joint kernels of all arrow actions out of the vertex."""
    a = m.algebra
    spans = []
    for v in range(len(m.dims)):
        rows = [row for rep in a.arrow_reps if rep.source == v for row in m.mats[rep.name].data]
        spans.append(kernel_basis(Matrix(a.field, rows, len(rows), m.dims[v])))
    return spans


def socle_of(m: Module) -> Module:
    sub, _ = submodule_from_spans(m, socle_spans(m), label=f"soc {m.label}")
    return sub


def socle_quotient(m: Module) -> Module:
    return quotient_module(m, socle_spans(m), label=f"{m.label}/soc")


def loewy_label(m: Module) -> str:
    """Radical-layer label such as "1/2 3/4" (top layer first).

    M.rad^(k+1) is spanned by the arrow images of M.rad^k, so each layer is
    the echelon basis of the previous layer's images; no submodule is built.
    """
    if m.is_zero():
        return "0"
    a = m.algebra
    layers = []
    layer = [Matrix.identity(a.field, d).data for d in m.dims]
    while any(layer):
        images = [[] for _ in m.dims]
        for rep in a.arrow_reps:
            images[rep.target].extend(map(m.mats[rep.name].apply, layer[rep.source]))
        nxt = [echelon(a.field, vecs, d)[0] for vecs, d in zip(images, m.dims)]
        layers.append(" ".join(str(a.vertices[v]) for v in range(len(m.dims))
                               for _ in range(len(layer[v]) - len(nxt[v]))))
        layer = nxt
    return "/".join(layers)


# ---------------------------------------------------------------------------
# projective covers and presentations


@dataclass
class ProjectiveSum:
    """An explicit finite direct sum of indecomposable projectives.

    verts lists the defining vertex index of each summand; the module's
    vertex space at w concatenates the summands' spaces in order.  A map out
    of the sum is held by its generator images, the coordinates that
    `generator_images`, `coordinates` and `map_with_coordinates` read and
    build; `parts` splits the images of a map into the sum by its summands.
    """

    algebra: BasedAlgebra
    verts: list
    module: Module

    def summand_offsets(self, w):
        """(offset, dimension) of each summand's space at vertex w."""
        a = self.algebra
        per = []
        acc = 0
        for v in self.verts:
            d = projective(a, a.vertices[v]).dims[w]
            per.append((acc, d))
            acc += d
        return per

    def generator_images(self, fmap):
        """The images under fmap (a map out of this sum) of the summands'
        generators, the idempotent basis elements; the c-th is a vector in
        the target at the c-th summand's vertex.

        By Yoneda, Hom(e_v A, N) = N e_v: the images determine the map, and
        concatenated they are its coordinates.
        """
        a = self.algebra
        generator_cols = {}  # vertex -> (summand offsets, generator position)
        for v in set(self.verts):
            at_v = projective_basis_indices(a, a.vertices[v])[v]
            generator_cols[v] = (self.summand_offsets(v), at_v.index(a.idempotents[v]))
        out = []
        for c, v in enumerate(self.verts):
            offsets, pos = generator_cols[v]
            out.append(fmap.blocks[v].column(offsets[c][0] + pos))
        return out

    def parts(self, fmap, src):
        """parts[beta][alpha]: the alpha-th summand part of the beta-th
        generator image of fmap, a map from the projective sum src into this
        one.  It lies in e_{v_alpha} A e_{w_beta}, with v_alpha this sum's
        alpha-th vertex and w_beta src's beta-th, and holds the coefficients
        of that space's basis elements in basis order.
        """
        offsets = {w: self.summand_offsets(w) for w in set(src.verts)}
        return [[img[off:off + d] for off, d in offsets[w]]
                for w, img in zip(src.verts, src.generator_images(fmap))]

    def coordinates(self, fmap):
        """fmap's concatenated generator images, or None when fmap is not the
        module map that those images determine."""
        images = self.generator_images(fmap)
        if psum_map(self, fmap.target, images).blocks != fmap.blocks:
            return None
        return [x for img in images for x in img]

    def map_with_coordinates(self, target, coords):
        """The map into target whose concatenated generator images are coords."""
        images, pos = [], 0
        for v in self.verts:
            images.append(coords[pos:pos + target.dims[v]])
            pos += target.dims[v]
        return psum_map(self, target, images)


def projective_sum(a: BasedAlgebra, verts) -> ProjectiveSum:
    mods = [projective(a, a.vertices[v]) for v in verts]
    label = "+".join(f"P({a.vertices[v]})" for v in verts)
    return ProjectiveSum(a, list(verts), direct_sum(a, mods, label=label or "P"))


def right_multiples(m: Module, v, vec):
    """{k: vec . b_k}, in basis order, for every basis element b_k leaving
    vertex index v, where vec is a coordinate vector in M at v; vec . b_k
    lies in M at the target of b_k.

    vec is pushed through the arrow words of b_k's basis expression, one
    arrow matrix at a time, and the image of each word prefix is computed
    once.  Basis expressions are graded, so every word is a path from v to
    the target of b_k.
    """
    a = m.algebra
    f = a.field
    z = f.zero()
    reps = a.arrow_reps
    exprs = a.basis_expressions()
    images = {(): list(vec)}  # arrow word -> image of vec
    out = {}
    for k in range(a.dim):
        if a.source[k] != v:
            continue
        acc = [z] * m.dims[a.target[k]]
        for coeff, _, word in exprs[k]:
            if word not in images:
                # a loop, not a recursive closure: a closure that calls
                # itself is a reference cycle that outlives every call
                for n in range(1, len(word) + 1):
                    if word[:n] not in images:
                        images[word[:n]] = m.mats[reps[word[n - 1]].name].apply(
                            images[word[:n - 1]])
            for i, x in enumerate(images[word]):
                if x:
                    acc[i] = f.add(acc[i], f.mul(coeff, x))
        out[k] = acc
    return out


def right_action(m: Module, v):
    """{k: R_k}, in basis order, for every basis element b_k leaving vertex
    index v: R_k is the matrix of u -> u . b_k, from M at v to M at the
    target of b_k, and its i-th column is `right_multiples` of the i-th
    unit vector."""
    a = m.algebra
    f = a.field
    cols = [right_multiples(m, v, unit) for unit in Matrix.identity(f, m.dims[v]).data]
    return {k: Matrix.from_columns(f, [c[k] for c in cols], m.dims[a.target[k]])
            for k in range(a.dim) if a.source[k] == v}


def psum_map(psum: ProjectiveSum, target: Module, gen_images) -> ModuleMap:
    """The module map out of the projective sum sending the c-th summand's
    generator (the idempotent basis element) to gen_images[c] (a coordinate
    vector in target at the summand's vertex).

    The column of b_k in the c-th summand is gen_images[c] . b_k, read from
    `right_multiples` in basis order, the order of the summand's basis at
    each vertex; the summands' columns follow one another, so each vertex's
    block is its columns in the order they come.
    """
    a = psum.algebra
    columns = [[] for _ in a.vertices]
    for c, v in enumerate(psum.verts):
        for k, image in right_multiples(target, v, gen_images[c]).items():
            columns[a.target[k]].append(image)
    return ModuleMap(psum.module, target, [Matrix.from_columns(a.field, cols, d)
                                           for cols, d in zip(columns, target.dims)])


def top_generator_slots(m: Module):
    """(vertex, coordinate) of the unit vectors that complete the radical
    span at each vertex: their classes are a basis of top M, so they
    generate M minimally."""
    f = m.algebra.field
    rad = radical_spans(m)
    return [(v, c) for v, d in enumerate(m.dims) for c in unit_complement(f, rad[v], d)]


def projective_cover(m: Module):
    """(projective sum P, epi P ->> M) with superfluous kernel."""
    f = m.algebra.field
    slots = top_generator_slots(m)
    psum = projective_sum(m.algebra, [v for v, _ in slots])
    gens = [[f.one() if i == c else f.zero() for i in range(m.dims[v])]
            for v, c in slots]
    return psum, psum_map(psum, m, gens)


def min_proj_presentation(m: Module):
    """(P1, P0, d1: P1 -> P0, epi: P0 ->> M), both covers minimal."""
    p0, epi = projective_cover(m)
    ker, incl = kernel_of(epi, label="omega")
    p1, cover1 = projective_cover(ker)
    d1 = incl.compose(cover1)
    return p1, p0, d1, epi


# ---------------------------------------------------------------------------
# isomorphism and decomposition


def end_radical_basis(ends):
    """A basis of the Jacobson radical of End(M), given a basis `ends` of
    End(M): the kernel of the trace form (x, y) -> tr(xy) on M.  Valid in
    characteristic 0 and for p > dim M: an x in the kernel has tr(x^k) = 0
    for every k <= dim M, which by Newton's identities forces x to be
    nilpotent."""
    if not ends:
        return []
    m = ends[0].source
    n = len(ends)
    gram = Matrix.wrap(m.algebra.field, [[x.compose(y).trace() for y in ends] for x in ends],
                       n, n)
    return [combine_maps(coords, ends, m, m) for coords in kernel_basis(gram)]


def _indec_iso(m: Module, n: Module) -> bool:
    """Isomorphism test for modules known to be indecomposable: any basis
    of Hom between isomorphic indecomposables contains an isomorphism."""
    if m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    return any(h.is_invertible() for h in hom_basis(m, n))


def _fitting_split(m: Module, f: ModuleMap):
    """Split M along ker(f^N) + im(f^N); None when the split is trivial.

    f acts vertex by vertex, and on a space of dimension d the kernel and
    image of f^n are stable from n = d on; s squarings, with 2^s > max(dims),
    reach such a power N = 2^s.
    """
    power = f
    for _ in range(max(m.dims).bit_length()):
        power = power.compose(power)
    ker, _ = kernel_of(power, label=f"{m.label}'")
    if ker.total_dim == 0 or ker.total_dim == m.total_dim:
        return None
    img, _ = submodule_from_spans(m, image_spans(power), label=f"{m.label}''")
    if ker.total_dim + img.total_dim != m.total_dim:
        return None
    return ker, img


class DecompositionError(Exception):
    pass


def _indecomposable_pieces(m: Module):
    if m.total_dim == 0:
        return []
    ends = hom_basis(m, m)
    if len(ends) == 1:
        return [m]
    f = m.algebra.field
    one = f.one()
    candidates = list(ends)
    for i in range(len(ends)):
        for j in range(i + 1, len(ends)):
            for c in (one, f.neg(one)):
                candidates.append(combine_maps((one, c), (ends[i], ends[j]), m, m))
    for cand in candidates:
        split = _fitting_split(m, cand)
        if split is not None:
            a, b = split
            return _indecomposable_pieces(a) + _indecomposable_pieces(b)
    # a module with a simple top is local, so indecomposable in every
    # characteristic; otherwise the trace form decides
    if len(top_generator_slots(m)) == 1 or len(ends) - len(end_radical_basis(ends)) == 1:
        return [m]
    raise DecompositionError(
        "could not certify indecomposability: End/rad has dimension > 1 "
        "and no Fitting split was found"
    )


def decompose(m: Module):
    """Indecomposable summands with multiplicities, [(module, mult), ...]."""
    pieces = _indecomposable_pieces(m)
    out = []
    for p in pieces:
        for i, (q, mult) in enumerate(out):
            if _indec_iso(p, q):
                out[i] = (q, mult + 1)
                break
        else:
            out.append((p, 1))
    return out


def is_isomorphic(m: Module, n: Module) -> bool:
    if m.algebra is not n.algebra:
        raise ModuleError("modules over different algebras")
    if _indec_iso(m, n):
        return True
    if m.dims != n.dims:
        return False
    dm = decompose(m)
    dn = decompose(n)
    if len(dm) != len(dn):
        return False
    used = [False] * len(dn)
    for p, mult in dm:
        for i, (q, mult2) in enumerate(dn):
            if not used[i] and mult == mult2 and _indec_iso(p, q):
                used[i] = True
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# transport between related algebras


def restrict_along_quotient(m: Module, quot: BasedAlgebra, label=None) -> Module:
    """View a module annihilated by the quotient ideal as a module over the
    quotient algebra (whose basis is a subset of the parent's); raises
    ModuleError when the ideal does not annihilate it."""
    a = m.algebra
    if quot.parent is not a:
        raise ModuleError("not a quotient of the module's algebra")
    f = a.field
    acts = [right_action(m, v) for v in range(len(a.vertices))]
    # sum_k x_k R_k = 0 at every pair of vertices, for x in a basis of the ideal
    for v, at_v in enumerate(acts):
        for x in quot.ideal.basis:
            for w in range(len(a.vertices)):
                if not lincomb(f, m.dims[w], m.dims[v], [
                        (x[k], r) for k, r in at_v.items() if a.target[k] == w]).is_zero():
                    raise ModuleError("the quotient's ideal does not annihilate the module")
    dims = [m.dims[a.vertex_index(v)] for v in quot.vertices]
    mats = {}
    for rep in quot.arrow_reps:
        src = a.vertex_index(quot.vertices[rep.source])
        tgt = a.vertex_index(quot.vertices[rep.target])
        mats[rep.name] = lincomb(f, m.dims[tgt], m.dims[src], [
            (c, acts[src][quot.parent_basis[pos]]) for pos, c in enumerate(rep.vector) if c])
    return Module(quot, dims, mats, label=label or m.label)


def transport_module(m: Module, target: BasedAlgebra) -> Module:
    """Re-express a module over an algebra with matching vertex ids.

    Arrows are matched by name when possible, otherwise by being the unique
    arrow with the same (source, target); arrows of the target with no match
    act as zero.  Raises when a nonzero action cannot be matched or the
    match is ambiguous.
    """
    f = target.field
    src_alg = m.algebra
    old_index = {src_alg.vertices[i]: i for i in range(len(src_alg.vertices))}
    dims = []
    for v in target.vertices:
        dims.append(m.dims[old_index[v]] if v in old_index else 0)
    by_name = {r.name: r for r in src_alg.arrow_reps}
    mats = {}
    used = set()
    for rep in target.arrow_reps:
        sv = target.vertices[rep.source]
        tv = target.vertices[rep.target]
        blk = None
        if rep.name in by_name:
            old = by_name[rep.name]
            if (src_alg.vertices[old.source], src_alg.vertices[old.target]) == (sv, tv):
                blk = m.mats[rep.name]
                used.add(rep.name)
        if blk is None and sv in old_index and tv in old_index:
            cands = [r for r in src_alg.arrow_reps
                     if (src_alg.vertices[r.source], src_alg.vertices[r.target]) == (sv, tv)
                     and r.name not in used]
            if len(cands) == 1:
                blk = m.mats[cands[0].name]
                used.add(cands[0].name)
            elif len(cands) > 1:
                raise ModuleError(f"ambiguous arrow match for {rep.name}")
        if blk is None:
            blk = Matrix.zeros(f, dims[rep.target], dims[rep.source])
        mats[rep.name] = blk
    # every nonzero action of the source must have been carried over
    for r in src_alg.arrow_reps:
        if r.name not in used and not m.mats[r.name].is_zero():
            raise ModuleError(f"arrow {r.name} with nonzero action has no counterpart")
    return Module(target, dims, mats, label=m.label)


# ---------------------------------------------------------------------------
# JSON


def module_to_json(m: Module) -> dict:
    f = m.algebra.field
    return {
        "dims": {str(m.algebra.vertices[v]): m.dims[v] for v in range(len(m.dims))},
        "actions": {
            name: [[f.scalar_to_str(x) for x in row] for row in mat.data]
            for name, mat in sorted(m.mats.items())
        },
        "label": m.label,
    }


def module_from_json(a: BasedAlgebra, data: dict) -> Module:
    f = a.field
    dims = [int(data["dims"].get(str(v), 0)) for v in a.vertices]
    mats = {}
    for rep in a.arrow_reps:
        rows = data["actions"].get(rep.name)
        if rows is not None:
            mats[rep.name] = Matrix(
                f, [[f.scalar_from_str(x) for x in row] for row in rows],
                dims[rep.target], dims[rep.source])
    return Module(a, dims, mats, label=data.get("label", "M"), validate=True)
