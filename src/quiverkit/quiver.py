"""Quivers, paths, relation elements, the presentation file format, and
Fomin-Zelevinsky quiver mutation with a bounded mutation-class search.

Presentation file format (UTF-8 text, ``#`` starts a comment)::

    field: rational            # or: field: gf(32003)
    vertices: 1 2 3 4
    arrows: a: 1 -> 2, b: 2 -> 4, g: 1 -> 3, d: 3 -> 4, e: 4 -> 1
    relations: a*b + g*d, e*a, e*g, b*e, d*e

``*`` composes arrows left to right, so ``a*b`` means "a, then b" and
needs target(a) = source(b).  A term may carry an integer or fractional
coefficient, as in ``2*a*b``, ``-a*b`` or ``1/2*a*b``; in GF(p) a fraction
n/q is n times the inverse of q, and q = 0 in the field is an error.  All
terms of one relation must be parallel paths of length at least 2.  The
relations line may be omitted.

Integer matrices (``Quiver.count_matrix``, exchange matrices) are lists of
int rows, the layout of ``linalg.Matrix.data``.

Quivers are compared up to isomorphism (``canonical_form``,
``quiver_isomorphism`` and the visited set of the mutation-class search)
through one enumeration of vertex orders that permutes vertices only within
colour classes; a vertex's colour is its sorted rows and sorted columns of
the compared matrices.  Every isomorphism keeps colours, so the results are
those of a loop over all n! permutations.  A canonical key is the tuple of
a permuted count matrix's entries, row by row.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from operator import index

from quiverkit.linalg import LinalgError, PrimeField, RationalField, field_from_name


class ParseError(Exception):
    """Syntax or semantic error in a presentation, with position info."""

    def __init__(self, msg, line=None, col=None):
        self.msg = msg
        self.line = line
        self.col = col
        loc = ""
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            loc += ": "
        super().__init__(loc + msg)


class MutationError(Exception):
    pass


@dataclass(frozen=True)
class Arrow:
    name: str
    source: str
    target: str


@dataclass(frozen=True)
class Quiver:
    vertices: tuple
    arrows: tuple

    def __post_init__(self):
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise ParseError("duplicate vertex id")
        names = set()
        for a in self.arrows:
            if a.source not in vset or a.target not in vset:
                raise ParseError(f"arrow {a.name} has undeclared endpoint")
            if a.name in names:
                raise ParseError(f"duplicate arrow name {a.name}")
            names.add(a.name)

    def arrow_by_name(self, name):
        for a in self.arrows:
            if a.name == name:
                return a
        raise KeyError(name)

    def vertex_index(self, v):
        return self.vertices.index(v)

    def count_matrix(self):
        """The n x n matrix of arrow multiplicities, as a list of int rows."""
        n = len(self.vertices)
        idx = {v: i for i, v in enumerate(self.vertices)}
        m = [[0] * n for _ in range(n)]
        for a in self.arrows:
            m[idx[a.source]][idx[a.target]] += 1
        return m


@dataclass(frozen=True)
class Path:
    """A path in a quiver: a constant path at a vertex, or arrows composed
    left to right."""

    quiver: Quiver
    vertex: str = None
    arrows: tuple = ()

    def __post_init__(self):
        if self.vertex is None:
            if not self.arrows:
                raise ParseError("empty non-constant path")
            prev = None
            for name in self.arrows:
                a = self.quiver.arrow_by_name(name)
                if prev is not None and prev != a.source:
                    raise ParseError(f"non-composable path at arrow {name}")
                prev = a.target

    @property
    def length(self):
        return len(self.arrows)

    @property
    def source(self):
        if self.vertex is not None:
            return self.vertex
        return self.quiver.arrow_by_name(self.arrows[0]).source

    @property
    def target(self):
        if self.vertex is not None:
            return self.vertex
        return self.quiver.arrow_by_name(self.arrows[-1]).target


@dataclass(frozen=True)
class RelationElement:
    """A linear combination of parallel paths of length >= 2."""

    quiver: Quiver
    terms: tuple  # of (coefficient, tuple of arrow names)

    def __post_init__(self):
        if not self.terms:
            raise ParseError("empty relation")
        src = tgt = None
        for _, names in self.terms:
            p = Path(self.quiver, arrows=tuple(names))
            if p.length < 2:
                raise ParseError("relation path of length < 2")
            if src is None:
                src, tgt = p.source, p.target
            elif (p.source, p.target) != (src, tgt):
                raise ParseError("non-parallel summands in a relation")

    @property
    def source(self):
        return Path(self.quiver, arrows=tuple(self.terms[0][1])).source

    @property
    def target(self):
        return Path(self.quiver, arrows=tuple(self.terms[0][1])).target


@dataclass(frozen=True)
class Presentation:
    quiver: Quiver
    relations: tuple
    field: object


# ---------------------------------------------------------------------------
# parsing


_ARROW_RE = re.compile(r"^\s*(\w+)\s*:\s*(\S+)\s*->\s*(\S+)\s*$")


def parse_presentation(text: str) -> Presentation:
    """Parse the presentation file format into a Presentation."""
    field = None
    vertices = None
    arrows = []
    relation_specs = []  # (line_no, col, expr text)
    seen = set()

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if ":" not in line:
            raise ParseError("expected '<keyword>: ...'", line_no, 1)
        keyword, rest = line.split(":", 1)
        keyword = keyword.strip().lower()
        if keyword == "field":
            if "field" in seen:
                raise ParseError("duplicate field line", line_no, 1)
            seen.add("field")
            try:
                field = field_from_name(rest)
            except Exception as exc:
                raise ParseError(str(exc), line_no, len(keyword) + 2)
        elif keyword == "vertices":
            if "vertices" in seen:
                raise ParseError("duplicate vertices line", line_no, 1)
            seen.add("vertices")
            vertices = tuple(rest.split())
            if not vertices:
                raise ParseError("no vertices declared", line_no, 1)
        elif keyword == "arrows":
            seen.add("arrows")
            if not rest.strip():
                continue
            col = len(keyword) + 2
            for part in rest.split(","):
                m = _ARROW_RE.match(part)
                if not m:
                    raise ParseError(f"bad arrow spec {part.strip()!r}", line_no, col)
                arrows.append(Arrow(m.group(1), m.group(2), m.group(3)))
                col += len(part) + 1
        elif keyword == "relations":
            if not rest.strip():
                continue
            col = len(keyword) + 2
            for part in rest.split(","):
                if part.strip():
                    relation_specs.append((line_no, col, part))
                col += len(part) + 1
        else:
            raise ParseError(f"unknown keyword {keyword!r}", line_no, 1)

    if field is None:
        raise ParseError("missing field line")
    if vertices is None:
        raise ParseError("missing vertices line")

    try:
        quiver = Quiver(vertices, tuple(arrows))
    except ParseError as exc:
        raise ParseError(exc.msg)

    relations = []
    for line_no, col, expr in relation_specs:
        relations.append(_parse_relation(quiver, field, expr, line_no, col))
    return Presentation(quiver, tuple(relations), field)


def _parse_relation(quiver, field, expr, line_no, col0):
    # split into signed terms at top-level + and -
    sign = 1
    token = ""
    pieces = []  # (sign, text, col)
    i = 0
    stripped_offset = 0
    while i < len(expr) and expr[i] == " ":
        i += 1
        stripped_offset += 1
    token_col = col0 + stripped_offset
    while i < len(expr):
        ch = expr[i]
        if ch in "+-":
            if token.strip():
                pieces.append((sign, token, token_col))
            elif pieces:
                raise ParseError("empty relation term", line_no, col0 + i)
            sign = 1 if ch == "+" else -1
            token = ""
            token_col = col0 + i + 1
        else:
            token += ch
        i += 1
    if token.strip():
        pieces.append((sign, token, token_col))
    if not pieces:
        raise ParseError("empty relation", line_no, col0)

    parsed_terms = []
    cols = {}  # path -> the column of its first term
    for sign, text, col in pieces:
        factors = [f.strip() for f in text.split("*")]
        if any(not f for f in factors):
            raise ParseError(f"bad term {text.strip()!r}", line_no, col)
        coeff = field.from_int(sign)
        number = _coefficient(field, factors[0], line_no, col)
        if number is not None:
            coeff = field.mul(coeff, number)
        names = factors if number is None else factors[1:]
        if not names:
            raise ParseError("relation term with no arrows", line_no, col)
        prev = None
        for name in names:
            try:
                a = quiver.arrow_by_name(name)
            except KeyError:
                raise ParseError(f"unknown arrow name {name!r}", line_no, col)
            if prev is not None and prev != a.source:
                raise ParseError(
                    f"non-composable path: {name!r} does not start where the previous arrow ends",
                    line_no,
                    col,
                )
            prev = a.target
        if len(names) < 2:
            raise ParseError("relation path of length < 2", line_no, col)
        path = tuple(names)
        parsed_terms.append((coeff, path))
        cols.setdefault(path, col)
    _check_totals(field, parsed_terms, line_no, cols)

    first = Path(quiver, arrows=parsed_terms[0][1])
    for _, names in parsed_terms[1:]:
        p = Path(quiver, arrows=names)
        if (p.source, p.target) != (first.source, first.target):
            raise ParseError("non-parallel summands in a relation", line_no, col0)
    return RelationElement(quiver, tuple(parsed_terms))


def _coefficient(field, text, line=None, col=None):
    """The scalar that text spells as a coefficient, or None when it spells
    none: n, or n/q for n times the inverse of q, after an optional minus
    sign.  A q that is 0 in the field is a ParseError."""
    number = re.fullmatch(r"(-?)(\d+)(?:/(\d+))?", text)
    if number:
        q = field.from_int(int(number[3] or 1))
        if q == field.zero():
            raise ParseError(f"{text} divides by zero in {field.name()}", line, col)
        c = field.mul(field.from_int(int(number[2])), field.inv(q))
        return field.neg(c) if number[1] else c


def _check_totals(field, terms, line=None, cols=None):
    """Raise unless each path's coefficients in terms sum to a nonzero
    scalar: a path whose sum is 0 in the field would silently drop out of
    the relation (say 3*a*b over gf(3)), unlike over the rationals."""
    totals = {}
    for coeff, names in terms:
        totals[names] = field.add(totals.get(names, field.zero()), coeff)
    for names, total in totals.items():
        if total == field.zero():
            raise ParseError(f"coefficient of {'*'.join(names)} is zero in {field.name()}",
                             line, cols and cols[names])


def serialize_presentation(pres: Presentation) -> str:
    lines = [f"field: {pres.field.name()}"]
    lines.append("vertices: " + " ".join(pres.quiver.vertices))
    if pres.quiver.arrows:
        lines.append(
            "arrows: "
            + ", ".join(f"{a.name}: {a.source} -> {a.target}" for a in pres.quiver.arrows)
        )
    if pres.relations:
        parts = []
        for rel in pres.relations:
            chunks = []
            for idx, (coeff, names) in enumerate(rel.terms):
                body = "*".join(names)
                cs = pres.field.scalar_to_str(coeff)
                neg = cs.startswith("-")
                mag = cs[1:] if neg else cs
                prefix = "" if mag == "1" else f"{mag}*"
                if idx == 0:
                    chunks.append(("-" if neg else "") + prefix + body)
                else:
                    chunks.append(("- " if neg else "+ ") + prefix + body)
            parts.append(" ".join(chunks))
        lines.append("relations: " + ", ".join(parts))
    return "\n".join(lines) + "\n"


def presentation_to_json(pres: Presentation) -> dict:
    f = pres.field
    return {
        "field": {"kind": "rational"} if isinstance(f, RationalField) else {"kind": "gf", "p": f.p},
        "vertices": list(pres.quiver.vertices),
        "arrows": [
            {"name": a.name, "source": a.source, "target": a.target}
            for a in pres.quiver.arrows
        ],
        "relations": [
            [{"coeff": f.scalar_to_str(c), "path": list(names)} for c, names in rel.terms]
            for rel in pres.relations
        ],
    }


def presentation_from_json(data: dict) -> Presentation:
    """The presentation that `presentation_to_json` writes.  A field kind
    other than its two, a top-level or arrow key that it does not write, a
    missing key and a bad coefficient are each a one-line ParseError.  A
    coefficient is read by the text format's rule, so a fraction, a zero
    denominator and a path whose coefficients sum to 0 read as they do in
    `parse_presentation`."""
    if not (isinstance(data, dict)
            and data.keys() == {"field", "vertices", "arrows", "relations"}):
        raise ParseError('a presentation is an object of "field", "vertices", '
                         '"arrows" and "relations"')
    fd = data["field"]
    try:
        if fd == {"kind": "rational"}:
            field = RationalField()
        elif isinstance(fd, dict) and fd.keys() == {"kind", "p"} and fd["kind"] == "gf":
            field = PrimeField(index(fd["p"]))
        else:
            raise ParseError('field must be {"kind": "rational"} or {"kind": "gf", "p": <prime>}')
        quiver = Quiver(
            tuple(data["vertices"]),
            tuple(Arrow(**a) for a in data["arrows"]),
        )
        relations = []
        for rel in data["relations"]:
            terms = []
            for t in rel:
                coeff = _coefficient(field, t["coeff"])
                if coeff is None:
                    raise ParseError(f"bad coefficient {t['coeff']!r}: not n or n/q")
                terms.append((coeff, tuple(t["path"])))
            _check_totals(field, terms)
            relations.append(RelationElement(quiver, tuple(terms)))
    except (KeyError, TypeError, ValueError, ZeroDivisionError, LinalgError) as exc:
        raise ParseError(f"bad presentation: {type(exc).__name__} {exc}") from None
    return Presentation(quiver, tuple(relations), field)


# ---------------------------------------------------------------------------
# DOT export


def to_dot(q: Quiver) -> str:
    lines = ["digraph quiver {"]
    for v in q.vertices:
        lines.append(f'  "{v}";')
    for a in q.arrows:
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{a.name}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# acyclicity, isomorphism


def _acyclic(m) -> bool:
    """True when the arrow-count matrix m has no oriented cycle (topological
    sort)."""
    indeg = [sum(col) for col in zip(*m)]
    ready = [i for i in range(len(m)) if indeg[i] == 0]
    seen = 0
    while ready:
        i = ready.pop()
        seen += 1
        for j, c in enumerate(m[i]):
            if c:
                indeg[j] -= c
                if indeg[j] == 0:
                    ready.append(j)
    return seen == len(m)


def is_acyclic(q: Quiver) -> bool:
    """True when the quiver has no oriented cycle."""
    return _acyclic(q.count_matrix())


def _colours(matrices):
    """Each vertex's colour: its sorted rows and sorted columns across the
    stacked square matrices.  A vertex permutation that carries one stack
    onto another keeps colours."""
    stacks = list(matrices) + [list(zip(*m)) for m in matrices]
    return [tuple(x for rows in stacks for x in sorted(rows[i])) for i in range(len(stacks[0]))]


def _vertex_orders(colours, wanted):
    """The vertex orders p with colours[p[i]] == wanted[i] for every i, in
    lexicographic order."""
    return _extend_order([[v for v, c in enumerate(colours) if c == w] for w in wanted], ())


def _extend_order(candidates, order):
    # depth first: position len(order) takes each unused candidate in turn
    if len(order) == len(candidates):
        yield order
        return
    for v in candidates[len(order)]:
        if v not in order:
            yield from _extend_order(candidates, order + (v,))


def _canonical_key(m) -> tuple:
    """The least, as a flat tuple of entries, of the permuted matrices
    m[p][:, p] over the vertex orders p that list the vertices in sorted
    colour order.  Isomorphic matrices give the same set of these, and equal
    keys are permuted copies of each other, so keys are equal exactly for
    isomorphic matrices."""
    colours = _colours([m])
    return min(tuple(m[i][j] for i in p for j in p)
               for p in _vertex_orders(colours, sorted(colours)))


def canonical_form(q: Quiver) -> tuple:
    """A key of the quiver that is equal exactly for isomorphic quivers."""
    return _canonical_key(q.count_matrix())


def quiver_isomorphism(q1: Quiver, q2: Quiver, extra_matrices=None):
    """A vertex bijection making arrow-multiplicity matrices equal, or None.

    When extra_matrices = (list1, list2) is given, the same permutation must
    also transport each matrix of list1 onto the matching one of list2
    (used to require a common quiver/Cartan isomorphism).  The bijection
    returned is the first in the lexicographic order of vertex orders.
    """
    if len(q1.vertices) != len(q2.vertices) or len(q1.arrows) != len(q2.arrows):
        return None
    s1, s2 = [q1.count_matrix()], [q2.count_matrix()]
    if extra_matrices is not None:
        if len(extra_matrices[0]) != len(extra_matrices[1]):
            return None
        s1 += extra_matrices[0]
        s2 += extra_matrices[1]
    for p in _vertex_orders(_colours(s1), _colours(s2)):
        if all([[a[i][j] for j in p] for i in p] == b for a, b in zip(s1, s2)):
            # p maps position p[i] of q1 to position i of q2
            return {q1.vertices[v]: q2.vertices[i] for i, v in enumerate(p)}
    return None


# ---------------------------------------------------------------------------
# Fomin-Zelevinsky mutation (on skew-symmetric integer exchange matrices)


def _quiver_from_b(b, vertices):
    arrows = []
    k = 1
    n = len(vertices)
    for i in range(n):
        for j in range(n):
            for _ in range(max(b[i][j], 0)):
                arrows.append(Arrow(f"m{k}", vertices[i], vertices[j]))
                k += 1
    return Quiver(tuple(vertices), tuple(arrows))


def _exchange_matrix(q: Quiver, checked):
    """The skew-symmetric exchange matrix of q, which cancels 2-cycles.  A
    loop anywhere, or a 2-cycle through a vertex index in checked, is a
    MutationError."""
    counts = q.count_matrix()
    n = len(counts)
    for i in range(n):
        if counts[i][i]:
            raise MutationError(f"loop at vertex {q.vertices[i]}")
    for k in checked:
        if any(counts[k][j] and counts[j][k] for j in range(n)):
            raise MutationError(f"2-cycle at vertex {q.vertices[k]}")
    return [[counts[i][j] - counts[j][i] for j in range(n)] for i in range(n)]


def mutate_b_matrix(b, k):
    """Exchange-matrix mutation at index k: b'[i][j] is -b[i][j] when i or j
    is k, and b[i][j] + (|b[i][k]| b[k][j] + b[i][k] |b[k][j]|) / 2 else."""
    row = b[k]
    out = []
    for i, bi in enumerate(b):
        if i == k:
            out.append([-x for x in bi])
            continue
        c = bi[k]
        out.append([x + (abs(c) * r + c * abs(r)) // 2 for x, r in zip(bi, row)])
        out[i][k] = -c
    return out


def mutate(q: Quiver, k) -> Quiver:
    """Mutate the quiver at vertex k.

    The quiver is converted to its skew-symmetric exchange matrix, so any
    2-cycles are cancelled; a loop anywhere or a 2-cycle at k is an error.
    Arrow names of the result are machine generated (m1, m2, ...).
    """
    if k not in q.vertices:
        raise MutationError(f"unknown vertex {k!r}")
    ki = q.vertex_index(k)
    return _quiver_from_b(mutate_b_matrix(_exchange_matrix(q, [ki]), ki), list(q.vertices))


def find_acyclic_in_mutation_class(q: Quiver, max_depth: int):
    """Breadth-first search for an acyclic quiver within max_depth mutations.

    Visited quivers are deduplicated up to isomorphism by the key of
    canonical_form.  Returns the mutation sequence (list of vertex ids,
    shortest first in BFS order) or None when the bounded search exhausts.
    A negative max_depth raises MutationError.
    """
    if max_depth < 0:
        raise MutationError(f"the mutation depth must be at least 0, got {max_depth}")
    n = len(q.vertices)
    start = _exchange_matrix(q, range(n))
    if is_acyclic(q):
        return []
    visited = {_canonical_key(start)}
    queue = deque([(start, [])])
    while queue:
        b, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for ki in range(n):
            nb = mutate_b_matrix(b, ki)
            key = _canonical_key(nb)
            if key in visited:
                continue
            visited.add(key)
            npath = path + [q.vertices[ki]]
            if _acyclic([[max(x, 0) for x in row] for row in nb]):
                return npath
            queue.append((nb, npath))
    return None
