"""Finite-dimensional based algebras from quiver presentations.

A BasedAlgebra is a basis with structure constants, a complete set of
primitive orthogonal idempotents (one per vertex), and a radical spanned
by a subset of the basis.  Every construction in this package (path
algebras modulo admissible relations, vertex quotients, opposites,
one-point extensions, trivial extensions) produces this one carrier type.

Conventions, used consistently everywhere:

* paths compose left to right: in ``a*b`` first ``a`` acts, then ``b``;
* each basis element b is graded, e_source * b * e_target = b;
* modules are right modules, so an arrow i -> j acts on vertex spaces
  as a map M_i -> M_j.

Structure constants are sparse and graded: ``mult[(i, j)]`` holds the
nonzero terms ``(k, c)`` of b_i * b_j, in basis order, and a pair is stored
only when its product is nonzero, so only pairs with target(b_i) =
source(b_j) can appear.  Products are read through `BasedAlgebra.mul_vec`;
only the JSON form spells the table out densely.

The grading is indexed once, when the algebra is built: ``between[v][w]``
lists the basis indices of e_v A e_w and ``leaving[v]`` those of e_v A,
each in basis order.  Projectives, actions on modules, covers and
annihilators read which basis elements span e_v A e_w from this table.

Basis representatives of a built algebra are paths in degree-lexicographic
order (length first, then arrow order from the presentation); a relation
rewrites its deglex-largest path into smaller ones, so the deglex-smallest
representative of each class survives in the basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from quiverkit.linalg import Matrix, SpanTracker, echelon, rref, unit_complement
from quiverkit.quiver import Arrow, Presentation, Quiver


class BuildError(Exception):
    pass


@dataclass(frozen=True)
class ArrowRep:
    """A chosen radical element representing one Gabriel-quiver arrow."""

    name: str
    source: int  # vertex index
    target: int
    vector: tuple  # coordinates over the algebra basis


class BasedAlgebra:
    """Finite-dimensional basic algebra given by basis and structure constants."""

    def __init__(self, field, vertices, labels, source, target, idempotents,
                 radical, mult, arrow_reps, parent=None,
                 parent_basis=None, ideal=None):
        self.field = field
        self.vertices = tuple(vertices)
        self.labels = list(labels)
        self.source = list(source)
        self.target = list(target)
        self.idempotents = list(idempotents)
        self.radical = list(radical)
        self.mult = mult  # {(i, j): ((k, c), ...)}: nonzero terms of b_i b_j
        self.arrow_reps = list(arrow_reps)
        self.parent = parent
        self.parent_basis = parent_basis
        self.ideal = ideal  # the ideal of the parent that this is the quotient by
        self.dim = len(self.labels)
        self._expressions = None
        self._opposite = None
        self._resolutions = {}
        self._projectives = {}
        if len(self.idempotents) != len(self.vertices):
            raise BuildError("one idempotent per vertex required")
        if sorted(set(self.labels)) != sorted(self.labels):
            raise BuildError("duplicate basis labels")
        self.leaving = [[] for _ in self.vertices]  # v -> basis of e_v A
        self.between = [[[] for _ in self.vertices] for _ in self.vertices]  # of e_v A e_w
        for k, (v, w) in enumerate(zip(self.source, self.target)):
            self.leaving[v].append(k)
            self.between[v][w].append(k)

    # -- small helpers ------------------------------------------------------

    def vertex_index(self, v) -> int:
        return self.vertices.index(v)

    def unit(self, k):
        z = self.field.zero()
        v = [z] * self.dim
        v[k] = self.field.one()
        return v

    def one_vector(self):
        z = self.field.zero()
        v = [z] * self.dim
        for k in self.idempotents:
            v[k] = self.field.one()
        return v

    def mul_vec(self, v, w):
        f = self.field
        out = [f.zero()] * self.dim
        wsupp = [(j, y) for j, y in enumerate(w) if y]
        for i, x in enumerate(v):
            if not x:
                continue
            for j, y in wsupp:
                terms = self.mult.get((i, j))
                if terms:
                    c = f.mul(x, y)
                    for k, p in terms:
                        out[k] = f.add(out[k], f.mul(c, p))
        return out

    def basis_expressions(self):
        """For each basis element, terms (coeff, vertex_index, arrow_rep indices)
        expressing it as a combination of arrow products."""
        if self._expressions is None:
            self._expressions = _compute_expressions(self)
        return self._expressions

    def opposite(self):
        if self._opposite is None:
            op = opposite_algebra(self)
            self._opposite = op
            op._opposite = self
        return self._opposite

    def to_json(self) -> dict:
        f = self.field
        return {
            "field": f.name(),
            "vertices": list(self.vertices),
            "dimension": self.dim,
            "basis": [
                {"label": self.labels[k],
                 "source": self.vertices[self.source[k]],
                 "target": self.vertices[self.target[k]]}
                for k in range(self.dim)
            ],
            "idempotents": list(self.idempotents),
            "radical": list(self.radical),
            "multiplication": [
                [[f.scalar_to_str(c) for c in self.mul_vec(self.unit(i), self.unit(j))]
                 for j in range(self.dim)]
                for i in range(self.dim)
            ],
        }

    def __repr__(self):
        return f"BasedAlgebra(dim={self.dim}, vertices={list(self.vertices)})"


def _compute_expressions(a: BasedAlgebra):
    f = a.field
    tracker = SpanTracker(f)
    kept = []  # ((vertex_index, arrow index tuple), vector)
    for vi, bidx in enumerate(a.idempotents):
        v = a.unit(bidx)
        if tracker.add(v):
            kept.append(((vi, ()), v))
    frontier = list(kept)
    while frontier and tracker.dim < a.dim:
        nxt = []
        for (v0, word), vec in frontier:
            for ai, rep in enumerate(a.arrow_reps):
                w = a.mul_vec(vec, list(rep.vector))
                if any(w) and tracker.add(w):
                    item = ((v0, word + (ai,)), w)
                    kept.append(item)
                    nxt.append(item)
        frontier = nxt
    if tracker.dim != a.dim:
        raise BuildError("idempotents and arrow representatives do not span the algebra")
    # the kept products are a basis: one rref of [P | 1] leaves P^-1 on the
    # right, whose column k holds the coordinates of b_k
    n = a.dim
    inverse = rref(Matrix.wrap(f, [[vec[i] for _, vec in kept] + a.unit(i) for i in range(n)],
                               n, 2 * n)).reduced.data
    return [tuple((inverse[t][n + k], v0, word) for t, ((v0, word), _) in enumerate(kept)
                  if inverse[t][n + k]) for k in range(n)]


# ---------------------------------------------------------------------------
# building an algebra from a presentation


MAX_PATHS = 20000  # paths enumerated before a presentation is rejected


def build_algebra(pres: Presentation, cap: int = 30) -> BasedAlgebra:
    """Path algebra of the presentation quiver modulo its relations.

    Paths are enumerated by increasing length while the two-sided span of
    the relations is saturated by arrow multiplication on both sides; the
    enumeration stops at the first length where every path lies in that
    span.  A presentation needing paths longer than `cap` is rejected, and
    the error names the cap: an acyclic quiver whose longest path reaches
    the cap, such as linear A31, needs a larger one.
    """
    q = pres.quiver
    f = pres.field
    nverts = len(q.vertices)
    vidx = {v: i for i, v in enumerate(q.vertices)}
    arrows = list(q.arrows)
    aidx = {a.name: i for i, a in enumerate(arrows)}
    asrc = [vidx[a.source] for a in arrows]
    atgt = [vidx[a.target] for a in arrows]

    gens = []  # list of (terms: list[(coeff, arrow index tuple)])
    for rel in pres.relations:
        gens.append([(c, tuple(aidx[n] for n in names)) for c, names in rel.terms])
    _reject_unbounded_paths(arrows, asrc, atgt, {w for g in gens for _, w in g})
    gen_minlen = [min(len(w) for _, w in g) for g in gens]
    gen_maxlen = [max(len(w) for _, w in g) for g in gens]
    margin = max((gen_maxlen[i] - gen_minlen[i] for i in range(len(gens))), default=0)
    max_gen_len = max(gen_maxlen, default=2)

    # paths[(length)] = list of (source, target, word); path_index[word key]
    paths_by_len = {0: [(i, i, ()) for i in range(nverts)],
                    1: [(asrc[i], atgt[i], (i,)) for i in range(len(arrows))]}
    path_list = list(paths_by_len[0]) + list(paths_by_len[1])
    path_index = {}
    for idx, (s, t, w) in enumerate(path_list):
        path_index[(s, w)] = idx

    def extend_paths(to_len):
        while max(paths_by_len) < to_len:
            cur = max(paths_by_len)
            new = []
            for (s, t, w) in paths_by_len[cur]:
                for ai in range(len(arrows)):
                    if asrc[ai] == t:
                        new.append((s, atgt[ai], w + (ai,)))
            paths_by_len[cur + 1] = new
            for item in new:
                path_index[(item[0], item[2])] = len(path_list)
                path_list.append(item)
            if len(path_list) > MAX_PATHS:
                raise BuildError(
                    f"path count exceeded {MAX_PATHS}; presentation is not finite dimensional"
                )

    L_stop = None
    N = max(2, max_gen_len)
    while True:
        if N > cap:
            raise BuildError(
                f"path-length cap {cap} tripped before the relations closed: the "
                "presentation is not finite dimensional, or the ideal is not "
                f"admissible, or it needs a cap above {cap} (build_algebra's cap)"
            )
        extend_paths(N)
        npaths = len(path_list)
        tracker = SpanTracker(f)
        z = f.zero()
        # all products x * g * y fully supported in length <= N
        for gi, g in enumerate(gens):
            if gen_maxlen[gi] > N:
                continue
            budget = N - gen_maxlen[gi]
            g_source = None
            for _, w in g:
                g_source = asrc[w[0]]
                g_target = atgt[w[-1]]
            for lx in range(0, budget + 1):
                for (xs, xt, xw) in paths_by_len[lx]:
                    if xt != g_source:
                        continue
                    for ly in range(0, budget - lx + 1):
                        for (ys, yt, yw) in paths_by_len[ly]:
                            if ys != g_target:
                                continue
                            vec = [z] * npaths
                            for coeff, w in g:
                                k = path_index[(xs, xw + w + yw)]
                                vec[k] = f.add(vec[k], coeff)
                            tracker.add(vec)
        # smallest L such that every path of each length in [L, N] is in the span
        allin = {}
        for ell in range(2, N + 1):
            ok = True
            for (s, t, w) in paths_by_len[ell]:
                unit = [z] * npaths
                unit[path_index[(s, w)]] = f.one()
                if not tracker.contains(unit):
                    ok = False
                    break
            allin[ell] = ok
        L = None
        for cand in range(2, N + 1):
            if all(allin[ell] for ell in range(cand, N + 1)):
                L = cand
                break
        if L is not None and N >= L - 1 + margin and N >= max_gen_len:
            L_stop = L
            break
        N += 1

    # pivot on deglex-largest paths so deglex-smallest representatives
    # survive; every path of length L_stop..N lies in the span, so it is a
    # pivot that rewrites to zero
    basis_paths, reduce = _normal_forms(f, len(path_list), tracker.rows)
    basis_pos = {p: i for i, p in enumerate(basis_paths)}
    dim = len(basis_paths)
    z = f.zero()

    labels = []
    source = []
    target = []
    for p in basis_paths:
        s, t, w = path_list[p]
        source.append(s)
        target.append(t)
        if not w:
            labels.append(f"e{q.vertices[s]}")
        else:
            labels.append("*".join(arrows[ai].name for ai in w))

    mult = {}
    for i, pi in enumerate(basis_paths):
        si, ti, wi = path_list[pi]
        for j, pj in enumerate(basis_paths):
            sj, _, wj = path_list[pj]
            # products of length L_stop or more are zero
            if ti == sj and len(wi) + len(wj) < L_stop:
                terms = reduce([(path_index[(si, wi + wj)], f.one())])
                if terms:
                    mult[(i, j)] = terms

    idempotents = []
    for vi in range(nverts):
        p = path_index[(vi, ())]
        if p not in basis_pos:
            raise BuildError("relations are not admissible: an idempotent was eliminated")
        idempotents.append(basis_pos[p])
    radical = [i for i, p in enumerate(basis_paths) if len(path_list[p][2]) >= 1]
    reps = []
    for ai, a in enumerate(arrows):
        p = path_index[(asrc[ai], (ai,))]
        if p not in basis_pos:
            raise BuildError("relations are not admissible: an arrow was eliminated")
        vec = [z] * dim
        vec[basis_pos[p]] = f.one()
        reps.append(ArrowRep(a.name, asrc[ai], atgt[ai], tuple(vec)))

    alg = BasedAlgebra(f, q.vertices, labels, source, target, idempotents,
                       radical, mult, reps)
    # expressions of a path basis are the paths themselves
    exprs = []
    for p in basis_paths:
        s, t, w = path_list[p]
        exprs.append(((f.one(), s, tuple(w)),))
    alg._expressions = exprs
    return alg


def _reject_unbounded_paths(arrows, asrc, atgt, terms):
    """Raise BuildError when arbitrarily long paths avoid every relation term.

    Every element of the ideal is a sum of paths that each contain a term as
    a subword, so paths containing none are independent modulo the ideal:
    infinitely many of them mean the algebra is infinite dimensional.  They
    exist exactly when the graph of windows has a cycle, which a depth-first
    search finds.  A window is the last `width` arrows of such a path, one
    fewer than the longest term, so a window and the next arrow hold every
    term that could end at that arrow.  Finite-dimensional inputs always
    pass.
    """
    width = max(1, max(map(len, terms), default=0) - 1)

    def successors(window):
        out = []
        for ai in range(len(arrows)):
            word = window + (ai,)
            if asrc[ai] == atgt[window[-1]] and not any(
                    word[-n:] in terms for n in range(1, len(word) + 1)):
                out.append(word[-width:])
        return out

    windows = [(ai,) for ai in range(len(arrows)) if (ai,) not in terms]
    for _ in range(width - 1):
        windows = [w for window in windows for w in successors(window)]
    state = {}  # window -> True while on the search path, False when done
    for start in windows:
        if start in state:
            continue
        state[start] = True
        path = [(start, iter(successors(start)))]
        while path:
            nxt = next(path[-1][1], None)
            if nxt is None:
                state[path.pop()[0]] = False
            elif state.get(nxt):
                on_path = [w for w, _ in path]
                cycle = on_path[on_path.index(nxt):]
                witness = "*".join(arrows[w[-1]].name for w in cycle)
                raise BuildError(f"presentation is not finite dimensional: the "
                                 f"cycle {witness} contains no relation term")
            elif nxt not in state:
                state[nxt] = True
                path.append((nxt, iter(successors(nxt))))


# ---------------------------------------------------------------------------
# derived invariants


def radical_square_vectors(a: BasedAlgebra):
    return [a.mul_vec(a.unit(i), a.unit(j)) for i in a.radical for j in a.radical]


def _derive_arrow_reps(a: BasedAlgebra):
    """The radical basis elements among the unit vectors, earliest first,
    that complete rad^2 (`linalg.unit_complement`): a basis of rad/rad^2,
    graded."""
    free = set(unit_complement(a.field, radical_square_vectors(a), a.dim))
    return [ArrowRep(a.labels[k], a.source[k], a.target[k], tuple(a.unit(k)))
            for k in a.radical if k in free]


def gabriel_quiver(a: BasedAlgebra) -> Quiver:
    """The quiver with one arrow per chosen radical generator (a basis of
    rad/rad^2 by construction)."""
    arrows = tuple(
        Arrow(r.name, a.vertices[r.source], a.vertices[r.target]) for r in a.arrow_reps
    )
    return Quiver(a.vertices, arrows)


def cartan_matrix(a: BasedAlgebra):
    """Integer matrix counting basis elements from vertex i to vertex j."""
    return np.array([[len(ks) for ks in row] for row in a.between], dtype=np.int64)


def opposite_algebra(a: BasedAlgebra) -> BasedAlgebra:
    """Same basis, reversed multiplication, swapped grading.

    A product of arrows read backwards is the same element of the opposite
    algebra, so its basis expressions are a's with every word reversed and
    starting at the other end.
    """
    mult = {(j, i): terms for (i, j), terms in a.mult.items()}
    reps = [ArrowRep(r.name, r.target, r.source, r.vector) for r in a.arrow_reps]
    op = BasedAlgebra(
        a.field, a.vertices, list(a.labels), list(a.target), list(a.source),
        list(a.idempotents), list(a.radical), mult, reps,
    )
    op._expressions = [tuple((c, a.target[k], word[::-1]) for c, _, word in terms)
                       for k, terms in enumerate(a.basis_expressions())]
    return op


# ---------------------------------------------------------------------------
# ideals and quotients


@dataclass
class Ideal:
    parent: BasedAlgebra
    basis: list  # vectors over parent basis, in echelon form

    @property
    def dim(self):
        return len(self.basis)

    def is_two_sided(self) -> bool:
        """Whether the span is closed under multiplication on both sides by
        the idempotents and the arrow representatives, which generate the
        parent; `two_sided_ideal` saturates under the whole basis and is
        the reference check."""
        a = self.parent
        t = SpanTracker(a.field)
        for v in self.basis:
            t.add(v)
        gens = [a.unit(e) for e in a.idempotents] + [list(r.vector) for r in a.arrow_reps]
        return all(t.contains(a.mul_vec(g, v)) and t.contains(a.mul_vec(v, g))
                   for v in self.basis for g in gens)


def two_sided_ideal(a: BasedAlgebra, generators) -> Ideal:
    """Saturate the span of the generators under multiplication by basis
    elements on both sides: the reference check of `quotient_by_vertex` and
    of `Ideal.is_two_sided`."""
    t = SpanTracker(a.field)
    work = []
    for g in generators:
        if t.add(g):
            work.append(t.rows[-1])
    while work:
        v = work.pop()
        for k in range(a.dim):
            for prod in (a.mul_vec(a.unit(k), v), a.mul_vec(v, a.unit(k))):
                if t.add(prod):
                    work.append(t.rows[-1])
    return Ideal(a, [list(r) for r in t.rows])


def _normal_forms(f, n, rows):
    """Normal forms modulo the span of rows, vectors over n positions.

    Pivoting happens on the latest positions, so earlier positions survive
    as representatives.  Returns (surviving positions, reduce), where
    reduce(terms) takes sparse (position, coefficient) terms and returns the
    nonzero terms of their class, indexed by the surviving positions in
    order.
    """
    z = f.zero()
    rev = list(range(n - 1, -1, -1))
    res = rref(Matrix(f, [[row[c] for c in rev] for row in rows], len(rows), n))
    # each pivot row is the pivot position minus its rewriting, which holds
    # surviving positions only
    rewrite = {}
    for r, c in enumerate(res.pivot_columns):
        rewrite[rev[c]] = [(rev[c2], f.neg(x))
                           for c2, x in enumerate(res.reduced.data[r]) if c2 > c and x]
    surviving = [k for k in range(n) if k not in rewrite]
    pos = {k: i for i, k in enumerate(surviving)}

    def reduce(terms):
        out = {}
        for k, c in terms:
            for k2, c2 in rewrite.get(k, ((k, f.one()),)):
                out[pos[k2]] = f.add(out.get(pos[k2], z), f.mul(c, c2))
        return tuple((i, x) for i, x in sorted(out.items()) if x)

    return surviving, reduce


def quotient_algebra(a: BasedAlgebra, ideal: Ideal) -> BasedAlgebra:
    """Quotient by a two-sided ideal; surviving basis elements represent it.

    Pivoting happens on the latest basis positions, so earlier elements
    (idempotents, then earlier radical elements) survive as representatives.
    """
    f = a.field
    if not ideal.basis:
        return a
    surviving, reduce = _normal_forms(f, a.dim, ideal.basis)
    if not surviving:
        raise BuildError("quotient is the zero algebra")
    surv_pos = {k: i for i, k in enumerate(surviving)}
    # an idempotent may only disappear if it lies in the ideal outright,
    # that is if its normal form is zero
    for e in a.idempotents:
        if e not in surv_pos and reduce(((e, f.one()),)):
            raise BuildError("ideal eliminates an idempotent without containing it")

    keep_vertices = [vi for vi, e in enumerate(a.idempotents) if e in surv_pos]
    vertices = tuple(a.vertices[vi] for vi in keep_vertices)
    vmap = {vi: i for i, vi in enumerate(keep_vertices)}
    labels = [a.labels[k] for k in surviving]
    source = []
    target = []
    for k in surviving:
        if a.source[k] not in vmap or a.target[k] not in vmap:
            raise BuildError("surviving basis element graded at a removed vertex")
        source.append(vmap[a.source[k]])
        target.append(vmap[a.target[k]])
    idempotents = [surv_pos[a.idempotents[vi]] for vi in keep_vertices]
    radical = [surv_pos[k] for k in a.radical if k in surv_pos]
    mult = {}
    for (i, j), terms in a.mult.items():
        if i in surv_pos and j in surv_pos:
            reduced = reduce(terms)
            if reduced:
                mult[(surv_pos[i], surv_pos[j])] = reduced
    out = BasedAlgebra(
        f, vertices, labels, source, target, idempotents, radical, mult,
        arrow_reps=[], parent=a, parent_basis=list(surviving), ideal=ideal,
    )
    out.arrow_reps = _derive_arrow_reps(out)
    return out


def quotient_by_vertex(a: BasedAlgebra, x) -> BasedAlgebra:
    """Quotient by the two-sided ideal A e_x A generated by the idempotent
    at x.  A basis is graded, so A e_x A is spanned by the products b_i b_j
    with target(b_i) = x = source(b_j); `two_sided_ideal` is its check."""
    if x not in a.vertices:
        raise BuildError(f"unknown vertex {x!r}")
    if len(a.vertices) == 1:
        raise BuildError("quotient by the only vertex is the zero algebra")
    xi = a.vertex_index(x)
    products = [a.mul_vec(a.unit(i), a.unit(j)) for row in a.between for i in row[xi]
                for j in a.leaving[xi]]
    return quotient_algebra(a, Ideal(a, echelon(a.field, products, a.dim)[0]))


# ---------------------------------------------------------------------------
# validation (used by the test suites)


def check_associativity(a: BasedAlgebra) -> bool:
    """(b_i b_j) b_k == b_i (b_j b_k) on all basis triples."""
    n = a.dim
    prod = [[a.mul_vec(a.unit(i), a.unit(j)) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if a.mul_vec(prod[i][j], a.unit(k)) != a.mul_vec(a.unit(i), prod[j][k]):
                    return False
    return True


def check_idempotents(a: BasedAlgebra) -> bool:
    f = a.field
    z, one = f.zero(), f.one()
    for vi, e in enumerate(a.idempotents):
        for wj, e2 in enumerate(a.idempotents):
            prod = a.mul_vec(a.unit(e), a.unit(e2))
            expect = a.unit(e) if vi == wj else [z] * a.dim
            if prod != expect:
                return False
    one_vec = a.one_vector()
    for k in range(a.dim):
        if a.mul_vec(one_vec, a.unit(k)) != a.unit(k):
            return False
        if a.mul_vec(a.unit(k), one_vec) != a.unit(k):
            return False
        es = a.idempotents[a.source[k]]
        et = a.idempotents[a.target[k]]
        if (a.mul_vec(a.unit(es), a.unit(k)) != a.unit(k)
                or a.mul_vec(a.unit(k), a.unit(et)) != a.unit(k)):
            return False
    return True


def radical_nilpotency_degree(a: BasedAlgebra):
    """Smallest L with rad^L = 0, or None when there is none up to dim + 2
    (rad is not nilpotent)."""
    cap = a.dim + 1
    f = a.field
    current = [a.unit(k) for k in a.radical]
    power = 1
    while current and power <= cap:
        t = SpanTracker(f)
        for v in current:
            for k in a.radical:
                t.add(a.mul_vec(v, a.unit(k)))
        current = [list(r) for r in t.rows]
        power += 1
        if not current:
            return power
    if not current:
        return power
    return None


def check_gabriel_counts(a: BasedAlgebra) -> bool:
    """arrow_reps sizes agree with dim e_i (rad/rad^2) e_j per vertex pair."""
    sq = radical_square_vectors(a)
    rad = set(a.radical)
    base = len(echelon(a.field, sq, a.dim)[0])
    for i, row in enumerate(a.between):
        for j, ks in enumerate(row):
            units = [a.unit(k) for k in ks if k in rad]
            expected = len(echelon(a.field, sq + units, a.dim)[0]) - base
            if expected != sum(1 for r in a.arrow_reps if (r.source, r.target) == (i, j)):
                return False
    return True
