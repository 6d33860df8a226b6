"""Auslander-Reiten quiver fragments and slice machinery.

knit() builds the AR quiver by almost split sequences.  Seeded with the
projectives, injectives and simples, it adds breadth first the summands of
rad P(v) (arrows into P(v)) and I(v)/soc (arrows out of I(v)) and the
translates tau and tau^-1 of every node.  Whenever that queue drains, the
almost split sequence 0 -> tau Y -> E -> Y -> 0 ending at the next
non-projective node Y gives the arrows into Y, and the new summands of E
go back into the queue.  So one construction gives the nodes, translates
and arrows, and a capped fragment carries only arrows read off modules.
An arrow out of an injective is also found from its target's rad P or
almost split sequence; the two multiplicities must agree.

The axiom checkers evaluate slice, local-slice and (left-)section
conditions literally on a complete fragment and report every violated
axiom with witnesses; they refuse incomplete fragments rather than ever
reporting a false positive.

The cluster-tilted extension pipeline moves modules between B, the
quotient of B by a local slice's annihilator and the extended algebra B',
with `restrict_along_quotient` and `transport_module`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from itertools import combinations

from quiverkit.algebra import (
    BasedAlgebra,
    Ideal,
    gabriel_quiver,
    quotient_algebra,
    quotient_by_vertex,
)
from quiverkit.extensions import one_point_extension, relation_extension
from quiverkit.homology import almost_split_middle, start_resolution, tau, tau_inv
from quiverkit.linalg import Matrix, echelon, kernel_basis, lincomb
from quiverkit.repmod import (
    Module,
    ModuleError,
    decompose,
    find_isomorphic,
    hom_basis,
    injective,
    is_isomorphic,
    loewy_label,
    projective,
    radical_of,
    right_action,
    simple,
    socle_of,
    socle_quotient,
    top_of,
)


class ARQuiverError(Exception):
    pass


@dataclass
class ARFragment:
    """A finite piece of the AR quiver.

    nodes hold indecomposable representatives (first found wins).  labels
    are computed on first read: each node's `loewy_label`, with "#k" added
    to the k-th node (k >= 2, in node order) that has the same Loewy label.
    arrows[(i, j)] is the multiplicity, at least 1, of node i in rad P when
    node j is P, of node j in I/soc when node i is I, and otherwise of node i
    in the middle of the almost split sequence ending at node j; a capped
    fragment carries fewer arrows, never guessed ones.  knit lists the
    arrows in (i, j) order, and the checkers report witnesses in that order.
    tau_links[i] is the index of the translate of node i (absent for
    projectives).
    incomplete_reason is None when the knit drained every queue under its
    caps, else the cap that tripped: "node_cap", or "dim_cap" with the
    module's dimension.
    """

    algebra: BasedAlgebra
    nodes: list
    arrows: dict
    tau_links: dict
    projective_at: dict   # node index -> vertex id
    injective_at: dict
    incomplete_reason: str
    _labels: list = dataclass_field(default=None, repr=False)
    _reach: list = dataclass_field(default=None, repr=False)
    _sectional: list = dataclass_field(default=None, repr=False)

    @property
    def labels(self):
        if self._labels is None:
            self._labels = _node_labels(self.nodes)
        return self._labels

    @property
    def complete(self):
        return self.incomplete_reason is None

    def find(self, module) -> int:
        return find_isomorphic(self.nodes, module)

    def node_by_label(self, label) -> int:
        for i, lab in enumerate(self.labels):
            if lab == label:
                return i
        return -1

    def successors(self, i):
        return sorted(j for (x, j) in self.arrows if x == i)

    def tau_inverse_of(self, i):
        for src, tgt in self.tau_links.items():
            if tgt == i:
                return src
        return None

    def reachability(self):
        """reach[i][j]: a path of length >= 1 from i to j exists (cached)."""
        if self._reach is not None:
            return self._reach
        n = len(self.nodes)
        adj = [[False] * n for _ in range(n)]
        for i, j in self.arrows:
            adj[i][j] = True
        reach = [row[:] for row in adj]
        for k in range(n):
            for i in range(n):
                if reach[i][k]:
                    for j in range(n):
                        if reach[k][j]:
                            reach[i][j] = True
        self._reach = reach
        return reach

    def sectional_paths(self):
        """All sectional paths as (start, end, interior nodes), cached.

        A path is sectional when no node is the translate of the node two
        steps later; enumeration cuts a branch when it would repeat an
        (edge) state, which no genuine sectional path does.
        """
        if self._sectional is not None:
            return self._sectional
        succ = {}
        for i, j in self.arrows:
            succ.setdefault(i, []).append(j)
        for s in succ:
            succ[s] = sorted(succ[s])
        out = []

        def walk(path, states):
            cur = path[-1]
            prev = path[-2] if len(path) >= 2 else None
            for nxt in succ.get(cur, []):
                if prev is not None and self.tau_links.get(nxt) == prev:
                    continue
                state = (cur, nxt)
                if state in states:
                    continue
                out.append((path[0], nxt, tuple(path[1:])))
                walk(path + [nxt], states | {state})

        for x in range(len(self.nodes)):
            walk([x], frozenset())
        self._sectional = out
        return out

    def to_json(self):
        return {
            "nodes": [
                {"label": self.labels[i],
                 "dims": list(self.nodes[i].dims),
                 "projective_at": self.projective_at.get(i),
                 "injective_at": self.injective_at.get(i)}
                for i in range(len(self.nodes))
            ],
            "arrows": [
                {"source": i, "target": j, "multiplicity": m}
                for (i, j), m in sorted(self.arrows.items())
            ],
            "tau_links": {str(i): j for i, j in sorted(self.tau_links.items())},
            "complete": self.complete,
            "incomplete_reason": self.incomplete_reason,
        }

    def to_dot(self):
        lines = ["digraph ar_quiver {"]
        for i in range(len(self.nodes)):
            dims = ",".join(str(d) for d in self.nodes[i].dims)
            lines.append(f'  n{i} [label="{self.labels[i]}\\n({dims})"];')
        for (i, j), m in sorted(self.arrows.items()):
            for _ in range(m):
                lines.append(f"  n{i} -> n{j};")
        for i, j in sorted(self.tau_links.items()):
            lines.append(f"  n{i} -> n{j} [style=dashed, constraint=false];")
        lines.append("}")
        return "\n".join(lines) + "\n"


def _node_labels(nodes):
    """The Loewy label of each node, "#k" added to its k-th repeat."""
    labels, count = [], {}
    for m in nodes:
        lab = loewy_label(m)
        count[lab] = count.get(lab, 0) + 1
        labels.append(lab if count[lab] == 1 else f"{lab}#{count[lab]}")
    return labels


def knit(a: BasedAlgebra, node_cap: int = 60, dim_cap: int = 120) -> ARFragment:
    """Gather AR-quiver components touching the projectives, up to node_cap.

    Every module found is decomposed against the nodes so far
    (`decompose(m, nodes)`): being isomorphic to a known node is the first
    certificate that a summand is indecomposable.  The summand comes back
    as that node object, so finding its node solves no Hom against the node
    itself.

    Build order.  When the queue drains, every sequence
    0 -> tau Y -> E -> Y -> 0 that is ready is built first: Y is
    non-projective, and the known arrows out of tau Y have targets whose
    dimension vectors, by multiplicity, sum to dim Y + dim tau Y.  Its
    middle term is exactly those targets, so no E is built and nothing is
    decomposed.  Only when no sequence is ready is the lowest-index
    remaining one built from E: `almost_split_middle`, then
    `decompose(E, nodes)`, then the balance check.  This is classical
    knitting (Auslander, Reiten and Smalo, Representation Theory of Artin
    Algebras, V.5 and VII.1; Bongartz and Gabriel, Invent. Math. 65 (1982)).

    It is exact because every node the knit certifies has End/rad = k: a
    seed P(v), I(v) or S(v), a brick, a module with simple top, a trace-form
    line, a known node, or a translate of one of these.  So valuations are
    symmetric: the multiplicity of X in E is the multiplicity of tau Y at
    X's minimal right almost split map, recorded as the arrow tau Y -> X,
    and an arrow not yet recorded would add a nonzero dimension vector.  A
    ready sequence adds no node, so the nodes come in the order of building
    every sequence from E in index order.  The knits of k[x]/(x^4) over
    GF(2) and of cyclic Nakayama (2,6) over GF(3) close this way: each
    sequence whose class needs rad End(tau Y), which the trace form cannot
    find there, is ready.

    Cap exhaustion (too many nodes, or a module larger than dim_cap, the
    signature of a representation-infinite component) is reported through
    incomplete_reason, never an error.
    """
    if node_cap < len(a.vertices):
        raise ARQuiverError("node_cap smaller than the number of vertices")
    nv = len(a.vertices)
    nodes = []
    projective_at = {}
    injective_at = {}
    reason = None  # the first cap that tripped

    def add_node(m):
        nonlocal reason
        if m.is_zero():
            return None
        i = find_isomorphic(nodes, m)
        if i >= 0:
            return i
        if len(nodes) >= node_cap or m.total_dim > dim_cap:
            reason = reason or ("node_cap" if len(nodes) >= node_cap
                                else f"dim_cap (a module of dimension {m.total_dim})")
            return -1
        nodes.append(m)
        return len(nodes) - 1

    # the seeds come first, so a later module isomorphic to P(v) or I(v) is
    # found as the seed's node: marking the seeds marks every node
    queue = []
    for marks, seed in ((projective_at, projective), (injective_at, injective),
                        ({}, simple)):
        for v in a.vertices:
            idx = add_node(seed(a, v))
            if idx is not None and idx >= 0:
                marks[idx] = v
                if idx == len(nodes) - 1:
                    queue.append(idx)

    arrows = {}
    out_arrows = {}  # node -> [(target, multiplicity)] of its known arrows
    out_dims = {}    # node -> their targets' dims summed by multiplicity
    tau_of = {}
    resolutions = {}  # node -> its resolution, held until its sequence is built
    processed = set()
    waiting = {}  # non-projective node, sequence not built -> dim Y + dim tau Y
    listed = 0    # the nodes below this index are projective or were waiting

    def add_arrow(x, y, mult):
        if (x, y) in arrows:
            # an arrow found from both ends must have one multiplicity
            if arrows[x, y] != mult:
                labels = _node_labels(nodes)
                raise ARQuiverError(f"the arrow {labels[x]} -> {labels[y]} "
                                    "has two multiplicities")
            return
        arrows[x, y] = mult
        out_arrows.setdefault(x, []).append((y, mult))
        out_dims[x] = tuple(s + mult * d for s, d in
                            zip(out_dims.get(x, (0,) * nv), nodes[y].dims))

    while reason is None:
        if queue:
            # breadth first: rad P, I/soc, tau and tau^-1 of every node; a
            # link found from the other end is not computed again
            i = queue.pop(0)
            if i in processed:
                continue
            processed.add(i)
            m = nodes[i]
            found = []  # (kind, module, multiplicity)
            if i in projective_at:
                found += [("in", s, mult) for s, mult in decompose(radical_of(m), nodes)]
            if i in injective_at:
                found += [("out", s, mult) for s, mult in decompose(socle_quotient(m), nodes)]
            if i not in projective_at and i not in tau_of:
                resolutions[i] = start_resolution(m)
                found.append(("tau", tau(m, resolutions[i]), 1))
            if i not in injective_at and i not in tau_of.values():
                found.append(("tauinv", tau_inv(m), 1))
        else:
            # the queue drained, so every node has its translates
            for j in range(listed, len(nodes)):
                if j not in projective_at:
                    waiting[j] = tuple(p + q for p, q in zip(nodes[j].dims,
                                                             nodes[tau_of[j]].dims))
            listed = len(nodes)
            if not waiting:
                break
            # the ready sequences, built from the known arrows out of tau Y
            ready = False
            for y, need in list(waiting.items()):
                if out_dims.get(tau_of[y]) == need:
                    del waiting[y]
                    resolutions.pop(y, None)
                    for x, mult in out_arrows[tau_of[y]]:
                        add_arrow(x, y, mult)
                    ready = True
            if ready:
                continue
            # none is ready: build the lowest-index one from its middle term
            i = next(iter(waiting))
            need = waiting.pop(i)
            y, ty = nodes[i], nodes[tau_of[i]]
            res = resolutions.pop(i, None) or start_resolution(y)
            middle = almost_split_middle(y, ty, res)
            found = [("in", s, mult) for s, mult in decompose(middle, nodes)]
            if tuple(sum(mult * s.dims[v] for _, s, mult in found) for v in range(nv)) != need:
                raise ARQuiverError("the almost split sequence ending at "
                                    f"{_node_labels(nodes)[i]} does not balance")
        for kind, mod, mult in found:
            idx = add_node(mod)
            if idx == -1:
                break
            if idx is None:
                continue
            if kind == "in":
                add_arrow(idx, i, mult)
            elif kind == "out":
                add_arrow(i, idx, mult)
            elif kind == "tau":
                tau_of[i] = idx
            else:
                tau_of[idx] = i
            if idx not in processed:
                queue.append(idx)

    return ARFragment(a, nodes, dict(sorted(arrows.items())), tau_of,
                      projective_at, injective_at, reason)


# ---------------------------------------------------------------------------
# axiom checkers


@dataclass
class SliceVerdict:
    holds: bool
    violations: list  # (axiom tag, witness description)

    def tags(self):
        return sorted({t for t, _ in self.violations})

    def to_json(self):
        return {"holds": self.holds,
                "violations": [{"axiom": t, "witness": w} for t, w in self.violations]}


def _require_nodes(frag, sigma):
    sigma = sorted(set(sigma))
    for i in sigma:
        if not (0 <= i < len(frag.nodes)):
            raise ARQuiverError(f"node index {i} outside the fragment")
    return sigma


def _connected_full_subquiver(frag, sigma):
    if not sigma:
        return False
    sset = set(sigma)
    seen = {sigma[0]}
    stack = [sigma[0]]
    while stack:
        x = stack.pop()
        for i, j in frag.arrows:
            nxt = None
            if i == x and j in sset:
                nxt = j
            elif j == x and i in sset:
                nxt = i
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen == sset


def _convexity_violations(frag, sset, tag):
    """Path convexity under tag: no path between members of the set passes
    through a non-member."""
    reach = frag.reachability()
    return [(tag, f"path through {frag.labels[z]}") for z in range(len(frag.nodes))
            if z not in sset and any(reach[x][z] for x in sset)
            and any(reach[z][y] for y in sset)]


def check_slice(a, frag: ARFragment, sigma) -> SliceVerdict:
    """Sincerity, path convexity, translation disjointness, and the
    predecessor condition for irreducible maps into the set."""
    if not frag.complete:
        raise ARQuiverError("slice check needs a complete fragment")
    sigma = _require_nodes(frag, sigma)
    sset = set(sigma)
    violations = []
    # sincere: the dimension vectors of the set cover every vertex
    support = [0] * len(a.vertices)
    for i in sigma:
        for v in range(len(support)):
            support[v] += frag.nodes[i].dims[v]
    if any(s == 0 for s in support):
        missing = [str(a.vertices[v]) for v, s in enumerate(support) if s == 0]
        violations.append(("S1", f"not sincere, vertices {missing} unsupported"))
    violations += _convexity_violations(frag, sset, "S2")
    # at most one of M, tau M
    for i, t in frag.tau_links.items():
        if i in sset and t in sset:
            violations.append(("S3", f"{frag.labels[i]} and its translate both in the set"))
    # irreducible X -> S with S in the set: X in it, or X non-injective with
    # its inverse translate in it
    for x, s in frag.arrows:
        if s not in sset or x in sset:
            continue
        ti = frag.tau_inverse_of(x)
        if x in frag.injective_at or ti is None or ti not in sset:
            violations.append(("S4", f"irreducible map {frag.labels[x]} -> {frag.labels[s]}"))
    return SliceVerdict(not violations, violations)


def check_local_slice(a, frag: ARFragment, sigma) -> SliceVerdict:
    """Local-slice axioms on a complete fragment, plus connectedness of the
    induced full subquiver (reported under the tag "connected")."""
    if not frag.complete:
        raise ARQuiverError("local-slice check needs the neighbourhood closed "
                            "(complete fragment)")
    sigma = _require_nodes(frag, sigma)
    sset = set(sigma)
    violations = []
    if not _connected_full_subquiver(frag, sigma):
        violations.append(("connected", "induced subquiver is not connected"))
    # LS1: arrows out of the set land in it or have their translate in it
    for x, y in frag.arrows:
        if x not in sset or y in sset:
            continue
        t = frag.tau_links.get(y)
        if t is None or t not in sset:
            violations.append(("LS1", f"arrow {frag.labels[x]} -> {frag.labels[y]}"))
    # LS2: arrows into the set come from it or have their inverse translate in it
    for x, y in frag.arrows:
        if y not in sset or x in sset:
            continue
        ti = frag.tau_inverse_of(x)
        if ti is None or ti not in sset:
            violations.append(("LS2", f"arrow {frag.labels[x]} -> {frag.labels[y]}"))
    # LS3: sectional paths between members stay inside
    for bad in _sectional_violations(frag, sset):
        violations.append(("LS3", bad))
    # LS4: as many members as simple modules
    if len(sigma) != len(a.vertices):
        violations.append(("LS4", f"{len(sigma)} members, {len(a.vertices)} simples"))
    return SliceVerdict(not violations, violations)


def _sectional_violations(frag, sset):
    """Sectional paths with both ends in the set leaving the set."""
    out = set()
    for start, end, interior in frag.sectional_paths():
        if start in sset and end in sset:
            bad = [z for z in interior if z not in sset]
            if bad:
                out.add("sectional path through "
                        + ", ".join(frag.labels[z] for z in bad))
    return sorted(out)


def check_left_section(a, frag: ARFragment, sigma) -> SliceVerdict:
    """Acyclicity, path convexity and the unique-translate condition for
    everything admitting a path into the set."""
    if not frag.complete:
        raise ARQuiverError("left-section check needs all predecessors "
                            "(complete fragment)")
    sigma = _require_nodes(frag, sigma)
    sset = set(sigma)
    violations = []
    if not _connected_full_subquiver(frag, sigma):
        violations.append(("connected", "induced subquiver is not connected"))
    # s1: no oriented cycles inside the induced subquiver
    adj = {i: [j for j in frag.successors(i) if j in sset] for i in sigma}
    state = {}

    def has_cycle(x):
        state[x] = 1
        for y in adj[x]:
            if state.get(y) == 1:
                return True
            if state.get(y) is None and has_cycle(y):
                return True
        state[x] = 2
        return False

    if any(state.get(x) is None and has_cycle(x) for x in sigma):
        violations.append(("s1", "oriented cycle inside the set"))
    violations += _convexity_violations(frag, sset, "s3")
    reach = frag.reachability()
    # s2': everything with a path into the set meets it in exactly one
    # inverse-translate step count
    for x in range(len(frag.nodes)):
        if x not in sset and not any(reach[x][y] for y in sigma):
            continue
        hits = 0
        cur = x
        seen = set()
        while cur is not None and cur not in seen:
            seen.add(cur)
            if cur in sset:
                hits += 1
            cur = frag.tau_inverse_of(cur)
        if hits != 1:
            violations.append(("s2'", f"{frag.labels[x]} meets the set {hits} times"))
    return SliceVerdict(not violations, violations)


# ---------------------------------------------------------------------------
# annihilator quotient


@dataclass
class TiltedQuotient:
    criterion_holds: bool
    annihilator: Ideal
    quotient: BasedAlgebra


def tilted_quotient(a: BasedAlgebra, sigma_modules) -> TiltedQuotient:
    """Check the hom-vanishing criterion Hom(tau^{-1} E', E'') = 0 over the
    given modules and quotient by their annihilator.

    When the criterion holds the quotient is a tilted algebra with the
    given modules forming a slice.
    """
    if not sigma_modules:
        raise ARQuiverError("empty module set")
    f = a.field
    criterion = True
    for e1 in sigma_modules:
        t = tau_inv(e1)
        if t.is_zero():
            continue
        for e2 in sigma_modules:
            if hom_basis(t, e2):
                criterion = False
                break
        if not criterion:
            break
    # one row per entry (i, j) of the action of a module from vertex v to
    # vertex w: the (i, j) entry of R_k over k; the annihilator is their kernel
    z = f.zero()
    rows = []
    for m in sigma_modules:
        for v in range(len(a.vertices)):
            acts = right_action(m, v)
            for w, ks in enumerate(a.between[v]):
                for i in range(m.dims[w]):
                    for j in range(m.dims[v]):
                        row = [z] * a.dim
                        for k in ks:
                            row[k] = acts[k].data[i][j]
                        rows.append(row)
    ann_vectors = []
    if rows:
        ann_vectors = kernel_basis(Matrix(f, rows, len(rows), a.dim))
    ideal = Ideal(a, echelon(f, ann_vectors, a.dim)[0])
    if not ideal.is_two_sided():
        raise ARQuiverError("annihilator failed the two-sided check")
    quotient = quotient_algebra(a, ideal) if ideal.basis else a
    return TiltedQuotient(criterion, ideal, quotient)


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
            for w, ks in enumerate(a.between[v]):
                if not lincomb(f, m.dims[w], m.dims[v],
                               [(x[k], at_v[k]) for k in ks]).is_zero():
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
# local-slice search and the cluster-tilted extension pipeline


def find_local_slices_through(a: BasedAlgebra, frag: ARFragment, node: int):
    """All node sets of slice size containing the node that pass the
    local-slice axioms; exhaustive over the complete fragment."""
    if not frag.complete:
        raise ARQuiverError("component incomplete: no exhaustive local-slice "
                            "search is possible")
    if not (0 <= node < len(frag.nodes)):
        raise ARQuiverError("node outside the fragment")
    n = len(a.vertices)
    others = [i for i in range(len(frag.nodes)) if i != node]
    out = []
    for combo in combinations(others, n - 1):
        cand = sorted((node,) + combo)
        if check_local_slice(a, frag, cand).holds:
            out.append(tuple(cand))
    return out


@dataclass
class ExtensionReport:
    """Checks on the output of the cluster-tilted extension pipeline."""

    new_vertex: str
    quiver_extends: bool        # old quiver a full subquiver, one new vertex
    local_slice_passes: object  # enlarged set a local slice again; None when
                                # the extension is representation-infinite and
                                # the fragment cannot close (unverifiable)
    deletion_recovers: bool     # deleting the new vertex gives the old quiver
    radical_matches: bool       # rad of the new projective is the module
    socle_factor_matches: bool  # I(new)/S(new) is the translate of the module
    arrow_rule_holds: bool      # new arrows counted by top / socle factor
    details: dict

    @property
    def all_hold(self):
        return all([self.quiver_extends, self.local_slice_passes is not False,
                    self.deletion_recovers, self.radical_matches,
                    self.socle_factor_matches, self.arrow_rule_holds])

    def to_json(self):
        return {
            "new_vertex": self.new_vertex,
            "quiver_extends": self.quiver_extends,
            "local_slice_passes": self.local_slice_passes,
            "deletion_recovers": self.deletion_recovers,
            "radical_matches": self.radical_matches,
            "socle_factor_matches": self.socle_factor_matches,
            "arrow_rule_holds": self.arrow_rule_holds,
            "details": self.details,
        }


def extend_cluster_tilted(b: BasedAlgebra, sigma_modules, m: Module,
                          frag: ARFragment, node_cap: int = 80):
    """Extend a cluster-tilted algebra along a module on a local slice.

    Pipeline: quotient by the annihilator of the local slice, one-point
    extend the quotient by the module, take the relation extension.  frag
    is a knit of b holding the slice's modules; node_cap caps only the knit
    of the extension B'.  Returns (extended algebra, report).
    """
    sigma_idx = []
    for mod in sigma_modules:
        i = frag.find(mod)
        if i < 0:
            raise ARQuiverError("a slice module is not a fragment node")
        sigma_idx.append(i)
    verdict = check_local_slice(b, frag, sigma_idx)
    if not verdict.holds:
        raise ARQuiverError(f"the given set is not a local slice: {verdict.tags()}")
    # a summand on the slice comes back as the slice's node object
    for summand, _ in decompose(m, frag.nodes):
        if not any(summand is frag.nodes[i] for i in sigma_idx):
            raise ARQuiverError("a summand of the module is not on the local slice")

    tq = tilted_quotient(b, sigma_modules)
    if not tq.criterion_holds:
        raise ARQuiverError("hom-vanishing criterion failed on the local slice")
    c = tq.quotient
    m_c = restrict_along_quotient(m, c, label=m.label)
    cm = one_point_extension(c, m_c)
    new_vertex = cm.vertices[-1]
    bprime = relation_extension(cm)

    # (a) the old quiver is a full subquiver, one new vertex
    qb = gabriel_quiver(b)
    qbp = gabriel_quiver(bprime)
    old_positions = [bprime.vertices.index(v) for v in b.vertices]
    cb = qb.count_matrix()
    cbp = qbp.count_matrix()
    quiver_extends = (
        len(bprime.vertices) == len(b.vertices) + 1
        and all(
            cbp[old_positions[i], old_positions[j]] == cb[i, j]
            for i in range(len(b.vertices))
            for j in range(len(b.vertices))
        )
    )

    # (b) the enlarged set is a local slice over the extension; when the
    # extension is representation-infinite the fragment cannot close and the
    # axioms are reported unverified rather than approximated
    frag2 = knit(bprime, node_cap=node_cap)
    pn = projective(bprime, new_vertex)
    if not frag2.complete:
        local_slice_passes = None
    else:
        sigma2 = []
        ok_embed = True
        for mod in sigma_modules:
            emb = transport_module(restrict_along_quotient(mod, c), bprime)
            i = frag2.find(emb)
            if i < 0:
                ok_embed = False
                break
            sigma2.append(i)
        i = frag2.find(pn)
        local_slice_passes = False
        if ok_embed and i >= 0:
            sigma2.append(i)
            local_slice_passes = check_local_slice(bprime, frag2, sigma2).holds

    # (c) deleting the new vertex recovers the old quiver
    deleted = quotient_by_vertex(bprime, new_vertex)
    qd = gabriel_quiver(deleted)
    deletion_recovers = bool(
        qd.vertices == qb.vertices
        and (qd.count_matrix() == cb).all()
    )

    # (d) radical of the new projective, and the socle factor of the new
    # injective against the translate of the module
    rad_pn = radical_of(pn)
    m_emb = transport_module(m_c, bprime)
    radical_matches = is_isomorphic(rad_pn, m_emb)
    in_new = injective(bprime, new_vertex)
    socle_factor = socle_quotient(in_new)
    tau_m = tau(m)  # over b
    if tau_m.is_zero():
        socle_factor_matches = socle_factor.is_zero()
    else:
        tau_emb = transport_module(tau_m, bprime)
        socle_factor_matches = is_isomorphic(socle_factor, tau_emb)

    # new arrows out of the new vertex are counted by top(M); new arrows in,
    # by the socle of the socle factor of the new injective
    top_m = top_of(m)
    new_pos = bprime.vertices.index(new_vertex)
    arrows_out_ok = all(
        cbp[new_pos, old_positions[i]] == top_m.dims[i]
        for i in range(len(b.vertices))
    )
    soc_factor_socle = socle_of(socle_factor)
    arrows_in_ok = all(
        cbp[old_positions[i], new_pos]
        == soc_factor_socle.dims[bprime.vertices.index(b.vertices[i])]
        for i in range(len(b.vertices))
    )
    arrow_rule_holds = arrows_out_ok and arrows_in_ok

    report = ExtensionReport(
        new_vertex=new_vertex,
        quiver_extends=quiver_extends,
        local_slice_passes=local_slice_passes,
        deletion_recovers=deletion_recovers,
        radical_matches=radical_matches,
        socle_factor_matches=socle_factor_matches,
        arrow_rule_holds=arrow_rule_holds,
        details={
            "dimension": bprime.dim,
            "tilted_quotient_dimension": c.dim,
            "annihilator_dimension": tq.annihilator.dim,
        },
    )
    return bprime, report
