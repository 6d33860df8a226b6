"""Extension constructions on based algebras.

* one-point extension A[M]: triangular matrix algebra on A and a module M,
  with one new source vertex whose indecomposable projective has radical M;
* one-point coextension: the dual construction, the new vertex is a sink;
* the bimodule of degree-2 self-extensions Ext^2(D A, A) with its exact
  left and right actions: its blocks Ext^2(I(j), P(i)) are read from
  `homology.ext_group` over minimal resolutions of the indecomposable
  injectives; the actions of the arrow representatives are computed in
  generator coordinates, one chain lift per arrow, and every basis element
  acts through the arrow words of its basis expression (`ext2_bimodule`);
* the trivial (relation) extension A x Ext^2(D A, A) for algebras of
  global dimension at most 2;
* an instance checker for commutation of the two constructions along a
  projective module, at the level of dimension, quiver and Cartan data.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

from quiverkit.algebra import (
    ArrowRep,
    BasedAlgebra,
    cartan_matrix,
    gabriel_quiver,
    opposite_algebra,
)
from quiverkit.homology import (
    ext_group,
    global_dim,
    hom_matrix,
    lift_chain_map,
    min_resolution,
)
from quiverkit.linalg import Matrix, unit_complement
from quiverkit.quiver import quiver_isomorphism
from quiverkit.repmod import (
    Module,
    ModuleMap,
    direct_sum,
    dual_module,
    injective,
    projective,
    projective_cover,
    right_action,
    top_generator_slots,
)


class ExtensionError(Exception):
    pass


def _fresh_names(base, count, taken):
    out = []
    k = 1
    while len(out) < count:
        cand = f"{base}{k}"
        if cand not in taken:
            out.append(cand)
            taken.add(cand)
        k += 1
    return out


def _fresh_vertex_id(vertices):
    try:
        return str(max(int(v) for v in vertices) + 1)
    except ValueError:
        k = 1
        while f"x{k}" in vertices:
            k += 1
        return f"x{k}"


def _padded_reps(a: BasedAlgebra, dim):
    """a's arrow representatives in an algebra of dimension dim whose first
    a.dim basis elements are a's."""
    pad = (a.field.zero(),) * (dim - a.dim)
    return [ArrowRep(r.name, r.source, r.target, tuple(r.vector) + pad)
            for r in a.arrow_reps]


def _column_terms(mat, t, offset):
    """The nonzero entries of column t of mat, as terms from position offset."""
    return tuple((offset + u, x) for u, x in enumerate(mat.column(t)) if x)


def one_point_extension(a: BasedAlgebra, m: Module) -> BasedAlgebra:
    """The triangular matrix algebra on (a, m); the extension vertex is a
    source and the radical of its indecomposable projective is m."""
    if m.algebra is not a:
        raise ExtensionError("module is not over the algebra being extended")
    f = a.field
    nverts = len(a.vertices)
    new_id = _fresh_vertex_id(a.vertices)
    vertices = a.vertices + (new_id,)
    new_vi = nverts

    # basis: a-part, the new idempotent, then m-part grouped by vertex; the
    # m-part element of coordinate i at vertex v is na + 1 + moff[v] + i
    na = a.dim
    moff = m.offsets()
    dim = na + 1 + m.total_dim
    taken = set(a.labels)
    e_label = f"e{new_id}"
    if e_label in taken:
        e_label = _fresh_names("e_ext", 1, taken)[0]
    taken.add(e_label)
    m_labels = _fresh_names("m", m.total_dim, taken)
    labels = list(a.labels) + [e_label] + m_labels
    source = list(a.source) + [new_vi] * (1 + m.total_dim)
    target = (list(a.target) + [new_vi]
              + [v for v in range(nverts) for _ in range(m.dims[v])])
    idempotents = list(a.idempotents) + [na]
    radical = list(a.radical) + list(range(na + 1, dim))

    z = f.zero()
    reps = _padded_reps(a, dim)
    # a's products stay; a times the new part is zero
    mult = dict(a.mult)
    # the new idempotent is a left identity on itself and the m-part
    for k in range(na, dim):
        mult[(na, k)] = ((k, f.one()),)
    # a acts on the m-part from the right as on m: m_i . b_j is column i of R_j
    for v in range(nverts):
        for j, r in right_action(m, v).items():
            for i in range(m.dims[v]):
                terms = _column_terms(r, i, na + 1 + moff[a.target[j]])
                if terms:
                    mult[(na + 1 + moff[v] + i, j)] = terms

    # extension arrows: one per top(m) generator
    new_arrow_slots = top_generator_slots(m)
    arrow_names = _fresh_names("x", len(new_arrow_slots), set(r.name for r in reps))
    for nm, (v, i) in zip(arrow_names, new_arrow_slots):
        vec = [z] * dim
        vec[na + 1 + moff[v] + i] = f.one()
        reps.append(ArrowRep(nm, new_vi, v, tuple(vec)))

    return BasedAlgebra(f, vertices, labels, source, target, idempotents,
                        radical, mult, reps)


def one_point_coextension(a: BasedAlgebra, n: Module) -> BasedAlgebra:
    """Dual construction through the opposite algebra; the extension vertex
    is a sink (no outgoing arrows)."""
    op = a.opposite()
    dn = dual_module(n)
    ext = one_point_extension(op, Module(op, dn.dims, dn.mats, label=dn.label))
    return opposite_algebra(ext)


# ---------------------------------------------------------------------------
# the Ext^2 bimodule


@dataclass
class Bimodule:
    """Ext^2(D A, A) with its left and right A-actions.

    Basis vector t lives in the block (i, j) = blocks[t], meaning it is a
    degree-2 extension of the injective at j by the projective at i; under
    the actions these blocks behave like elements of e_i E e_j.
    """

    algebra: BasedAlgebra
    blocks: list  # (source vertex index, target vertex index) per basis vector
    left: list    # Matrix E -> E per algebra basis element
    right: list

    @property
    def dim(self):
        return len(self.blocks)

    def block_dims(self):
        out = {}
        for i, j in self.blocks:
            out[(i, j)] = out.get((i, j), 0) + 1
        return out

    def arrow_positions(self):
        """Basis positions, earliest first, whose unit vectors complete
        rad.E + E.rad to E (`linalg.unit_complement` of the columns of the
        radical's left and right actions): a basis of E/(rad.E + E.rad), the
        new arrows of the trivial extension."""
        a = self.algebra
        images = [col for r in a.radical for mat in (self.left[r], self.right[r])
                  for col in mat.transpose().data]
        return unit_complement(a.field, images, self.dim)

    def arrow_block_dims(self):
        """Dimensions per block of E modulo (rad.E + E.rad): the new-arrow
        counts of the trivial extension."""
        out = {}
        for t in self.arrow_positions():
            out[self.blocks[t]] = out.get(self.blocks[t], 0) + 1
        return out

    def act_left(self, algebra_vec, evec):
        return _act(self.left, algebra_vec, evec)

    def act_right(self, algebra_vec, evec):
        return _act(self.right, algebra_vec, evec)


def _act(mats, algebra_vec, evec):
    """The action on evec of an algebra element, given the matrices of the
    basis elements' actions."""
    f = mats[0].field
    out = [f.zero()] * len(evec)
    for k, c in enumerate(algebra_vec):
        if not c:
            continue
        img = mats[k].apply(evec)
        out = [f.add(x, f.mul(c, y)) for x, y in zip(out, img)]
    return out


def ext2_bimodule(c: BasedAlgebra) -> Bimodule:
    """Ext^2(D C, C) with its bimodule structure (global dimension <= 2).

    The actions are built for each arrow representative rho, from s to t.
    Its left action post-composes cocycles with rho . - : P(t) -> P(s),
    whose block at a generator's vertex is applied to the generator's
    image.  Its right action precomposes with the degree-2 map of one chain
    lift of D(- . rho) : I(t) -> I(s), as that map's `hom_matrix`.  At each
    vertex v, rho . - is the transposed action of rho on I(v), and
    D(- . rho) the transposed action of rho on P(v).  The images that land
    in one block are reduced together by its `ExtGroup.classes_of`.

    The arrows' actions make each row e_i E a right C-module and each column
    E e_j a right module over the opposite algebra, and every basis element
    b acts on them as on any module, by `right_action`: through the arrow
    words of b's basis expression, left(b) = L(rho_1)...L(rho_n) and
    right(b) = R(rho_n)...R(rho_1), each word prefix once.
    """
    gd = global_dim(c, cap=3)
    if gd is None or gd > 2:
        raise ExtensionError("relation extension needs global dimension <= 2")
    f = c.field
    nverts = len(c.vertices)
    projs = [projective(c, v) for v in c.vertices]
    injs = [injective(c, v) for v in c.vertices]
    resolutions = [min_resolution(injs[j], 3) for j in range(nverts)]
    for res in resolutions:
        t3 = res.term_module(3)
        if t3 is not None and not t3.is_zero():
            raise ExtensionError("resolution longer than the global dimension bound")

    blocks = {}
    start = {}  # block -> position of its first basis vector
    block_of = []
    for j in range(nverts):
        for i in range(nverts):
            blocks[(i, j)] = ext_group(injs[j], projs[i], 2, resolutions[j])
            start[(i, j)] = len(block_of)
            block_of += [(i, j)] * len(blocks[(i, j)].cocycles)
    dimE = len(block_of)

    def action(source, target, images):
        """The block source -> target of an arrow's action, from the images
        of the cocycles of source."""
        return Matrix.from_columns(f, blocks[target].classes_of(images),
                                   len(blocks[target].cocycles))

    columns = [{} for _ in range(nverts)]  # E e_j: arrow name -> L(rho) on it
    rows = [{} for _ in range(nverts)]     # e_i E: arrow name -> R(rho) on it
    for rep in c.arrow_reps:
        s, t = rep.source, rep.target
        lam = [m.mats[rep.name].transpose() for m in injs]  # rho . - : P(t) -> P(s)
        for j in range(nverts):
            src = blocks[(t, j)]
            if src.cocycles:
                ends = list(accumulate((projs[t].dims[v] for v in src.term.verts), initial=0))
                columns[j][rep.name] = action((t, j), (s, j), [
                    [y for v, a, b in zip(src.term.verts, ends, ends[1:])
                     for y in lam[v].apply(coords[a:b])] for coords in src.cocycles])
        p2 = resolutions[t].term_module(2)
        if not dimE or p2 is None or p2.is_zero():
            continue
        mu = ModuleMap(injs[t], injs[s], [m.mats[rep.name].transpose() for m in projs])
        lam2 = lift_chain_map(mu, resolutions[t], resolutions[s], 2)[2]
        if lam2 is None:
            continue
        for i in range(nverts):
            src = blocks[(i, s)]
            if src.cocycles:
                h = hom_matrix(lam2, resolutions[t].terms[2], src.term, projs[i])
                rows[i][rep.name] = action((i, s), (i, t), [h.apply(x) for x in src.cocycles])

    left = [Matrix.zeros(f, dimE, dimE) for _ in range(c.dim)]
    right = [Matrix.zeros(f, dimE, dimE) for _ in range(c.dim)]
    op = c.opposite()
    for j in range(nverts):
        col = Module(op, [len(blocks[(i, j)].cocycles) for i in range(nverts)], columns[j])
        for v in range(nverts):
            for k, mat in right_action(col, v).items():  # (v, j) -> (source(b_k), j)
                _place(left[k], mat, start[(c.source[k], j)], start[(v, j)])
    for i in range(nverts):
        row = Module(c, [len(blocks[(i, j)].cocycles) for j in range(nverts)], rows[i])
        for v in range(nverts):
            for k, mat in right_action(row, v).items():  # (i, v) -> (i, target(b_k))
                _place(right[k], mat, start[(i, c.target[k])], start[(i, v)])
    return Bimodule(c, block_of, left, right)


def _place(big, mat, row, col):
    """Write mat into big with its top left entry at (row, col)."""
    for big_row, mat_row in zip(big.data[row:], mat.data):
        big_row[col:col + mat.cols] = mat_row


# ---------------------------------------------------------------------------
# trivial (relation) extension


def relation_extension(c: BasedAlgebra) -> BasedAlgebra:
    """The trivial extension of c by Ext^2(D c, c).

    Multiplication is (x, e)(x', e') = (x x', x.e' + e.x'); the second
    summand squares to zero and the radical is rad(c) plus the whole
    second summand.
    """
    ext2 = ext2_bimodule(c)
    f = c.field
    na = c.dim
    ne = ext2.dim
    dim = na + ne
    taken = set(c.labels)
    e_labels = _fresh_names("n", ne, taken)
    labels = list(c.labels) + e_labels
    source = list(c.source) + [i for (i, j) in ext2.blocks]
    target = list(c.target) + [j for (i, j) in ext2.blocks]
    idempotents = list(c.idempotents)
    radical = list(c.radical) + [na + t for t in range(ne)]

    reps = _padded_reps(c, dim)
    # x . e and e . x are the columns of the actions; E * E = 0
    mult = dict(c.mult)
    for i in range(na):
        for t in range(ne):
            for key, mat in (((i, na + t), ext2.left[i]), ((na + t, i), ext2.right[i])):
                terms = _column_terms(mat, t, na)
                if terms:
                    mult[key] = terms

    for t in ext2.arrow_positions():
        i, j = ext2.blocks[t]
        vec = [f.zero()] * dim
        vec[na + t] = f.one()
        reps.append(ArrowRep(e_labels[t], i, j, tuple(vec)))

    out = BasedAlgebra(f, c.vertices, labels, source, target, idempotents,
                       radical, mult, reps)
    out._ext2 = ext2  # kept for tests
    return out


def restrict_to_base(m: Module, c: BasedAlgebra) -> Module:
    """Restrict a module over the trivial extension of c along the canonical
    embedding of c (same vertices; the base arrows keep their names)."""
    r = m.algebra
    if r.vertices != c.vertices:
        raise ExtensionError("vertex mismatch with the base algebra")
    mats = {}
    for rep in c.arrow_reps:
        if rep.name not in m.mats:
            raise ExtensionError(f"arrow {rep.name} missing from the extension")
        mats[rep.name] = m.mats[rep.name]
    return Module(c, m.dims, mats, label=f"{m.label}|base")


def ext2_row_module(ext2: Bimodule, vertex_index: int) -> Module:
    """The right-module slice e_v . Ext^2(D c, c) of the bimodule."""
    c = ext2.algebra
    f = c.field
    nverts = len(c.vertices)
    positions = [[] for _ in range(nverts)]
    for t, (i, j) in enumerate(ext2.blocks):
        if i == vertex_index:
            positions[j].append(t)
    dims = [len(p) for p in positions]
    units = Matrix.identity(f, ext2.dim).data
    mats = {}
    for rep in c.arrow_reps:
        rho, at_target = list(rep.vector), positions[rep.target]
        mats[rep.name] = Matrix.from_columns(f, [
            [img[u2] for u2 in at_target]
            for img in (ext2.act_right(rho, units[u]) for u in positions[rep.source])],
            dims[rep.target])
    return Module(c, dims, mats, label=f"ext2 row {c.vertices[vertex_index]}")


def lift_projective(c: BasedAlgebra, p: Module, r: BasedAlgebra) -> Module:
    """The projective over the trivial extension r with the same summand
    multiplicities as the projective p over c."""
    if p.algebra is not c:
        raise ExtensionError("module is not over the given algebra")
    # an epi onto p of p's dimension is an iso: p is projective exactly then
    cover, _ = projective_cover(p)
    if cover.module.dims != p.dims:
        raise ExtensionError("module is not projective")
    mods = [projective(r, v) for vi, v in enumerate(r.vertices)
            for _ in range(cover.verts.count(vi))]
    return direct_sum(r, mods, label=f"lift {p.label}")


# ---------------------------------------------------------------------------
# instance verification of the commutation of the two constructions


@dataclass
class CommutationReport:
    """Invariant-level comparison of the two composite extensions.

    A failed invariant disproves the isomorphism; all invariants passing is
    strong evidence, recorded as "consistent with isomorphism", not proof.
    """

    dimension_left: int
    dimension_right: int
    quiver_iso: object  # vertex map or None
    cartan_equal: bool
    verdict: str

    def to_json(self):
        return {
            "dimensions": [self.dimension_left, self.dimension_right],
            "quiver_iso": self.quiver_iso,
            "cartan_equal": self.cartan_equal,
            "verdict": self.verdict,
        }


def verify_extension_commutes(c: BasedAlgebra, p: Module) -> CommutationReport:
    """Compare the relation extension of the one-point extension with the
    one-point extension of the relation extension by the lifted projective."""
    left = relation_extension(one_point_extension(c, p))
    rc = relation_extension(c)
    pbar = lift_projective(c, p, rc)
    right = one_point_extension(rc, pbar)

    dim_l, dim_r = left.dim, right.dim
    gq_l, gq_r = gabriel_quiver(left), gabriel_quiver(right)
    ct_l, ct_r = cartan_matrix(left), cartan_matrix(right)
    perm = quiver_isomorphism(gq_l, gq_r, extra_matrices=([ct_l], [ct_r]))
    cartan_equal = perm is not None
    if perm is None:
        perm = quiver_isomorphism(gq_l, gq_r)
    ok = dim_l == dim_r and perm is not None and cartan_equal
    return CommutationReport(
        dimension_left=dim_l,
        dimension_right=dim_r,
        quiver_iso=perm,
        cartan_equal=cartan_equal,
        verdict="consistent with isomorphism" if ok else "NOT isomorphic",
    )
