"""Right modules over a BasedAlgebra in quiver-representation form.

A module assigns to each vertex a finite-dimensional space and to each
Gabriel-quiver arrow i -> j a matrix M_i -> M_j (right action, arrows
composed left to right).  Everything downstream -- Hom spaces, radical
series, projective covers, duality, decomposition -- is exact linear
algebra over the algebra's field.  Basis elements act through arrow words:
`right_multiples` pushes one vector, and `right_action` gives the matrix of
each basis element's action, the one table that validation, restriction,
annihilators, Hom(d, N) in `homology.hom_matrix` and the extensions read.

Submodules and quotients take the reduced echelon basis of each span: a
vector of the span has its coordinates at the pivot columns, and a
quotient's basis is the classes of the unit vectors at the free columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, chain, combinations

from quiverkit.algebra import BasedAlgebra
from quiverkit.linalg import (
    LinalgError,
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
        return [0, *accumulate(self.dims)][:-1]

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
        # equal dimension vectors make every block square
        for b in self.blocks:
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
    # the unknowns are the entries of each F_v, row by row, vertex after vertex
    offs = [0, *accumulate(x * y for x, y in zip(m.dims, n.dims))]
    rows = []
    z = f.zero()
    for rep in a.arrow_reps:
        i, j = rep.source, rep.target
        A = m.mats[rep.name]   # m.dims[j] x m.dims[i]
        B = n.mats[rep.name]
        di, dj = m.dims[i], m.dims[j]
        ei = n.dims[i]
        for r in range(n.dims[j]):
            for c in range(di):
                row = [z] * offs[-1]
                # + (F_j A)[r, c]: row r of F_j times column c of A
                row[offs[j] + r * dj: offs[j] + r * dj + dj] = A.column(c)
                # - (B F_i)[r, c]
                for t in range(ei):
                    if B.data[r][t]:
                        idx = offs[i] + t * di + c
                        row[idx] = f.sub(row[idx], B.data[r][t])
                rows.append(row)
    # the system matrix owns the rows: one copy besides the elimination's own
    vecs = kernel_basis(Matrix.wrap(f, rows, len(rows), offs[-1]))
    return [_unflatten_hom(m, n, v) for v in vecs]


def _unflatten_hom(m, n, flat):
    f = m.algebra.field
    blocks = []
    pos = 0
    for v in range(len(m.dims)):
        r, c = n.dims[v], m.dims[v]
        data = [flat[pos + i * c: pos + (i + 1) * c] for i in range(r)]
        pos += r * c
        blocks.append(Matrix.wrap(f, data, r, c))
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
    return submodule_from_spans(fmap.source, list(map(kernel_basis, fmap.blocks)), label=label)


def image_spans(fmap: ModuleMap):
    return [[b.column(j) for j in range(b.cols)] for b in fmap.blocks]


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
    `generator_images` reads and `map_with_coordinates` builds, and that
    `postcompose` pushes through a map; `parts` splits vectors of the sum by
    its summands.
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

    def parts(self, verts, vecs):
        """parts[i][alpha]: the alpha-th summand part of vecs[i], a vector of
        this sum at vertex verts[i].  It lies in e_{v_alpha} A e_w, with
        v_alpha this sum's alpha-th vertex and w = verts[i], and holds the
        coefficients of that space's basis elements in basis order.
        """
        offsets = {w: self.summand_offsets(w) for w in set(verts)}
        return [[vec[off:off + d] for off, d in offsets[w]] for w, vec in zip(verts, vecs)]

    def postcompose(self, blocks, coords):
        """The generator coordinates of g o psi, for psi out of this sum with
        generator coordinates coords and g the map whose block at each
        vertex is blocks[v]: g applied to each generator image."""
        out, pos = [], 0
        for v in self.verts:
            out += blocks[v].apply(coords[pos:pos + blocks[v].cols])
            pos += blocks[v].cols
        return out

    def map_with_coordinates(self, target, coords):
        """The map into target whose concatenated generator images are coords."""
        images, pos = [], 0
        for v in self.verts:
            images.append(coords[pos:pos + target.dims[v]])
            pos += target.dims[v]
        return psum_map(self, target, images)


def projective_sum(a: BasedAlgebra, verts) -> ProjectiveSum:
    """The sum of the P(v), v in verts; one summand is the shared P(v)."""
    mods = [projective(a, a.vertices[v]) for v in verts]
    if len(mods) == 1:
        return ProjectiveSum(a, list(verts), mods[0])
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


def kernel_span(fmap: ModuleMap):
    """The reduced echelon basis of ker fmap at each vertex, with its pivot
    columns, as `echelon` returns them."""
    f = fmap.source.algebra.field
    return [echelon(f, kernel_basis(b), d) for b, d in zip(fmap.blocks, fmap.source.dims)]


def kernel_cover(m: Module, span):
    """(P, d): the projective cover of the submodule K of m spanned by span
    (a `kernel_span`, or None for K = m), composed with K's inclusion, so
    that d: P -> m has image K and P ->> K is a projective cover.

    K's basis at v is the rows of span[v], so the radical of K at w is
    spanned by the rows' arrow images, read at w's pivot columns.  The rows
    at the positions that `unit_complement` picks there complete it, so
    they generate K minimally, and d sends each generator to its row.  No
    module is built for K.  For K = m the rows are the unit vectors, and
    their arrow images are the arrow matrices' columns.
    """
    a = m.algebra
    f = a.field
    if span is None:
        rad, dims = radical_spans(m), m.dims
    else:
        rad = [[] for _ in m.dims]
        for rep in a.arrow_reps:
            pivots = span[rep.target][1]
            for row in span[rep.source][0]:
                img = m.mats[rep.name].apply(row)
                rad[rep.target].append([img[p] for p in pivots])
        dims = [len(rows) for rows, _ in span]
    slots = [(v, c) for v, d in enumerate(dims) for c in unit_complement(f, rad[v], d)]
    psum = projective_sum(a, [v for v, _ in slots])
    z = f.zero()
    gens = [[z] * c + [f.one()] + [z] * (dims[v] - 1 - c) if span is None else span[v][0][c]
            for v, c in slots]
    return psum, psum_map(psum, m, gens)


def projective_cover(m: Module):
    """(projective sum P, epi P ->> M) with superfluous kernel: the cover of
    the whole of M."""
    return kernel_cover(m, None)


def min_proj_presentation(m: Module):
    """(P1, P0, d1: P1 -> P0, epi: P0 ->> M), both covers minimal."""
    p0, epi = projective_cover(m)
    p1, d1 = kernel_cover(p0.module, kernel_span(epi))
    return p1, p0, d1, epi


# ---------------------------------------------------------------------------
# isomorphism and decomposition


def end_radical_basis(ends):
    """A basis of the Jacobson radical of End(M), given a basis `ends` of
    End(M): the kernel of the trace form (x, y) -> tr(xy) on M.  Valid in
    characteristic 0 and for p > dim M: an x in the kernel has tr(x^k) = 0
    for every k <= dim M, which by Newton's identities forces x to be
    nilpotent.  End(M) = k.id, a brick, has radical 0 in every field."""
    if len(ends) < 2:
        return []
    m = ends[0].source
    n = len(ends)
    gram = Matrix.wrap(m.algebra.field, [[x.compose(y).trace() for y in ends] for x in ends],
                       n, n)
    return [combine_maps(coords, ends, m, m) for coords in kernel_basis(gram)]


def find_isomorphic(mods, m: Module) -> int:
    """The index of the first of mods isomorphic to the indecomposable m, or
    -1: any basis of Hom between isomorphic indecomposables contains an
    isomorphism.  m itself is found without a Hom solve."""
    for i, x in enumerate(mods):
        if x is m or x.dims == m.dims and any(h.is_invertible() for h in hom_basis(x, m)):
            return i
    return -1


def _fitting_split(m: Module, f: ModuleMap):
    """Split M along ker(f^N) + im(f^N); None when the split is trivial.

    f acts vertex by vertex, and on a space of dimension d the kernel and
    image of f^n are stable from n = d on; s squarings, with 2^s > max(dims),
    reach such a power N = 2^s.  There ker and im meet in 0, so by
    rank-nullity M is their direct sum.
    """
    power = f
    for _ in range(max(m.dims).bit_length()):
        power = power.compose(power)
    ker, _ = kernel_of(power, label=f"{m.label}'")
    if ker.total_dim == 0 or ker.total_dim == m.total_dim:
        return None
    img, _ = submodule_from_spans(m, image_spans(power), label=f"{m.label}''")
    return ker, img


class DecompositionError(Exception):
    pass


def _indecomposable_pieces(m: Module, known):
    if m.total_dim == 0:
        return []
    # an isomorphism to an indecomposable certifies m; a sum never has one
    i = find_isomorphic(known, m)
    if i >= 0:
        return [known[i]]
    ends = hom_basis(m, m)
    if len(ends) == 1:
        return [m]
    f = m.algebra.field
    one = f.one()
    # Fitting candidates: the basis, then each e_i +- e_j, built as reached
    pairs = (combine_maps((one, c), pair, m, m)
             for pair in combinations(ends, 2) for c in (one, f.neg(one)))
    for cand in chain(ends, pairs):
        split = _fitting_split(m, cand)
        if split is not None:
            a, b = split
            return _indecomposable_pieces(a, known) + _indecomposable_pieces(b, known)
    # the trace form decides in characteristic 0 and above dim M; a module
    # with a simple top is local, so indecomposable in every characteristic
    if len(ends) - len(end_radical_basis(ends)) == 1 or len(projective_cover(m)[0].verts) == 1:
        return [m]
    raise DecompositionError(
        "could not certify indecomposability: End/rad has dimension > 1 "
        "and no Fitting split was found"
    )


def decompose(m: Module, known=()):
    """Indecomposable summands with multiplicities, [(module, mult), ...].

    known lists indecomposable modules, such as the nodes of a knit.  A
    summand isomorphic to one of them is that module object, and the
    isomorphism is its certificate: no End is computed for it.
    """
    classes, mults = [], []
    for p in _indecomposable_pieces(m, known):
        # a known module may come back more than once: one class, by identity
        i = next((j for j, q in enumerate(classes) if q is p), None)
        if i is None:
            i = find_isomorphic(classes, p)
        if i >= 0:
            mults[i] += 1
        else:
            classes.append(p)
            mults.append(1)
    return list(zip(classes, mults))


def is_isomorphic(m: Module, n: Module) -> bool:
    if m.algebra is not n.algebra:
        raise ModuleError("modules over different algebras")
    # an isomorphism in the Hom basis decides it, decomposable or not
    if find_isomorphic([m], n) == 0:
        return True
    if m.dims != n.dims:
        return False
    dm = decompose(m)
    dn = decompose(n)
    if len(dm) != len(dn):
        return False
    # the classes of one decomposition are pairwise non-isomorphic, so the
    # match of each class of dm is unique
    classes = [q for q, _ in dn]
    for p, mult in dm:
        i = find_isomorphic(classes, p)
        if i < 0 or dn[i][1] != mult:
            return False
    return True


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
    """The module that `module_to_json` writes.  Anything else, such as a key
    that names no vertex or arrow of a, is a ModuleError, never dropped."""
    f = a.field
    if not (isinstance(data, dict) and data.keys() - {"label"} == {"dims", "actions"}
            and isinstance(data["dims"], dict) and isinstance(data["actions"], dict)):
        raise ModuleError('a module is an object of "dims", "actions" and an optional "label"')
    names = [str(v) for v in a.vertices]
    dims = [data["dims"].get(v, 0) for v in names]
    if data["dims"].keys() - set(names) or any(type(d) is not int or d < 0 for d in dims):
        raise ModuleError(f"dims must map vertices {names} to nonnegative integers")
    sources = {r.name: r.source for r in a.arrow_reps}
    mats = {}
    for name, rows in data["actions"].items():
        if name not in sources or type(rows) is not list or any(type(r) is not list for r in rows):
            raise ModuleError(f"actions must map arrows {list(sources)} to lists of rows, "
                              f"not {name!r}")
        try:
            mats[name] = Matrix(f, [[f.scalar_from_str(str(x)) for x in row] for row in rows],
                                cols=dims[sources[name]])
        except (ValueError, ZeroDivisionError, LinalgError) as exc:
            raise ModuleError(f"bad action for {name}: {exc}") from None
    return Module(a, dims, mats, label=data.get("label", "M"), validate=True)
