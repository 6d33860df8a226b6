"""Extension constructions on based algebras.

Both of the paper's constructions are square-zero extensions A x E by a
bimodule E, built by one constructor (`_square_zero_extension`):

* one-point extension A[M] = (A x k) x M: the triangular matrix algebra
  on A and a module M, with one new source vertex whose indecomposable
  projective has radical M;
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
from quiverkit.linalg import Matrix, lincomb, unit_complement
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


def _square_zero_extension(a: BasedAlgebra, e: Bimodule, e_labels, arrows):
    """The square-zero extension a x E of a by the bimodule e.

    Its basis is a's, then e's, labelled e_labels.  Multiplication is
    (x, u)(x', u') = (x x', x.u' + u.x'), with x.u and u.x the columns of
    e's left and right actions; E.E = 0 and E lies in the radical.  For
    each (name, t) in arrows, e's basis vector t becomes a new arrow
    representative of that name, from block e.blocks[t].
    """
    f = a.field
    na = a.dim
    dim = na + e.dim
    mult = dict(a.mult)
    for k in range(na):
        for t in range(e.dim):
            for key, mat in (((k, na + t), e.left[k]), ((na + t, k), e.right[k])):
                terms = _column_terms(mat, t, na)
                if terms:
                    mult[key] = terms
    reps = _padded_reps(a, dim)
    for name, t in arrows:
        vec = [f.zero()] * dim
        vec[na + t] = f.one()
        reps.append(ArrowRep(name, *e.blocks[t], tuple(vec)))
    return BasedAlgebra(f, a.vertices, list(a.labels) + list(e_labels),
                        list(a.source) + [i for i, _ in e.blocks],
                        list(a.target) + [j for _, j in e.blocks],
                        list(a.idempotents), list(a.radical) + list(range(na, dim)),
                        mult, reps)


def one_point_extension(a: BasedAlgebra, m: Module) -> BasedAlgebra:
    """(a x k) x m, the triangular matrix algebra on (a, m): the new vertex
    is a source and the radical of its indecomposable projective is m."""
    if m.algebra is not a:
        raise ExtensionError("module is not over the algebra being extended")
    f = a.field
    na, nverts, n = a.dim, len(a.vertices), m.total_dim
    new_id = _fresh_vertex_id(a.vertices)
    taken = set(a.labels)
    e_label = f"e{new_id}"
    if e_label in taken:
        e_label = _fresh_names("e_ext", 1, taken)[0]
    taken.add(e_label)
    # a x k: a's data, then the new vertex and its idempotent
    ak = BasedAlgebra(f, a.vertices + (new_id,), list(a.labels) + [e_label],
                      list(a.source) + [nverts], list(a.target) + [nverts],
                      list(a.idempotents) + [na], list(a.radical),
                      {**a.mult, (na, na): ((na, f.one()),)}, _padded_reps(a, na + 1))
    # m, grouped by vertex, as a bimodule: the new idempotent is the left
    # identity, a acts on the right as on m
    moff = m.offsets()
    right = [Matrix.zeros(f, n, n) for _ in range(na + 1)]
    for v in range(nverts):
        for k, mat in right_action(m, v).items():  # v -> target(b_k)
            _place(right[k], mat, moff[a.target[k]], moff[v])
    e = Bimodule(ak, [(nverts, v) for v in range(nverts) for _ in range(m.dims[v])],
                 [Matrix.zeros(f, n, n)] * na + [Matrix.identity(f, n)], right)
    slots = e.arrow_positions()
    names = _fresh_names("x", len(slots), {r.name for r in a.arrow_reps})
    return _square_zero_extension(ak, e, _fresh_names("m", n, taken), zip(names, slots))


def one_point_coextension(a: BasedAlgebra, n: Module) -> BasedAlgebra:
    """Dual construction through the opposite algebra; the extension vertex
    is a sink (no outgoing arrows)."""
    return opposite_algebra(one_point_extension(a.opposite(), dual_module(n)))


# ---------------------------------------------------------------------------
# bimodules and the Ext^2 bimodule


@dataclass
class Bimodule:
    """A bimodule E with its left and right A-actions: Ext^2(D A, A), or M
    of a one-point extension.  Basis vector t lies in e_i E e_j for the
    block (i, j) = blocks[t]; in Ext^2 it is a degree-2 extension of the
    injective at j by the projective at i.
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
        new arrows of the square-zero extension."""
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
        return lincomb(self.algebra.field, self.dim, self.dim,
                       zip(algebra_vec, self.left)).apply(evec)

    def act_right(self, algebra_vec, evec):
        return lincomb(self.algebra.field, self.dim, self.dim,
                       zip(algebra_vec, self.right)).apply(evec)


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
    """The trivial extension c x Ext^2(D c, c): the square-zero extension
    by the bimodule, with one new arrow per basis vector of its top."""
    ext2 = ext2_bimodule(c)
    e_labels = _fresh_names("n", ext2.dim, set(c.labels))
    out = _square_zero_extension(c, ext2, e_labels,
                                 [(e_labels[t], t) for t in ext2.arrow_positions()])
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
