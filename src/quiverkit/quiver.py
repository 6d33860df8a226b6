"""Quivers, paths, relation elements, the presentation file format, and
Fomin-Zelevinsky quiver mutation with a bounded mutation-class search.

Presentation file format (UTF-8 text, ``#`` starts a comment)::

    field: rational            # or: field: gf(32003)
    vertices: 1 2 3 4
    arrows: a: 1 -> 2, b: 2 -> 4, g: 1 -> 3, d: 3 -> 4, e: 4 -> 1
    relations: a*b + g*d, e*a, e*g, b*e, d*e

``*`` composes arrows left to right, so ``a*b`` means "a, then b" and
needs target(a) = source(b).  A term may carry an integer coefficient,
as in ``2*a*b`` or ``-a*b``; all terms of one relation must be parallel
paths of length at least 2.  The relations line may be omitted.
"""

from __future__ import annotations

import itertools
import re
from collections import deque
from dataclasses import dataclass

import numpy as np

from quiverkit.linalg import PrimeField, RationalField, field_from_name


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
        """n x n integer matrix of arrow multiplicities."""
        n = len(self.vertices)
        idx = {v: i for i, v in enumerate(self.vertices)}
        m = np.zeros((n, n), dtype=np.int64)
        for a in self.arrows:
            m[idx[a.source], idx[a.target]] += 1
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


def _split_top(text):
    return [part for part in text.split(",")]


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
            for part in _split_top(rest):
                m = _ARROW_RE.match(part)
                if not m:
                    raise ParseError(f"bad arrow spec {part.strip()!r}", line_no, col)
                arrows.append(Arrow(m.group(1), m.group(2), m.group(3)))
                col += len(part) + 1
        elif keyword == "relations":
            if not rest.strip():
                continue
            col = len(keyword) + 2
            for part in _split_top(rest):
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
    terms = []
    sign = 1
    token = ""
    token_col = col0
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
    totals = {}  # path -> (summed coefficient, column of its first term)
    for sign, text, col in pieces:
        factors = [f.strip() for f in text.split("*")]
        if any(not f for f in factors):
            raise ParseError(f"bad term {text.strip()!r}", line_no, col)
        coeff = field.from_int(sign)
        start = 0
        if re.fullmatch(r"\d+", factors[0]):
            coeff = field.mul(coeff, field.from_int(int(factors[0])))
            start = 1
        names = factors[start:]
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
        total, first_col = totals.get(path, (field.zero(), col))
        totals[path] = (field.add(total, coeff), first_col)

    # a path whose coefficients sum to 0 in the field would silently drop
    # out of the relation (say 3*a*b over gf(3)), unlike over the rationals
    for names, (total, col) in totals.items():
        if total == field.zero():
            raise ParseError(
                f"coefficient of {'*'.join(names)} is zero in {field.name()}", line_no, col)

    first = Path(quiver, arrows=parsed_terms[0][1])
    for _, names in parsed_terms[1:]:
        p = Path(quiver, arrows=names)
        if (p.source, p.target) != (first.source, first.target):
            raise ParseError("non-parallel summands in a relation", line_no, col0)
    return RelationElement(quiver, tuple(parsed_terms))


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
    fd = data["field"]
    field = RationalField() if fd["kind"] == "rational" else PrimeField(fd["p"])
    quiver = Quiver(
        tuple(data["vertices"]),
        tuple(Arrow(a["name"], a["source"], a["target"]) for a in data["arrows"]),
    )
    relations = tuple(
        RelationElement(
            quiver,
            tuple((field.scalar_from_str(t["coeff"]), tuple(t["path"])) for t in rel),
        )
        for rel in data["relations"]
    )
    return Presentation(quiver, relations, field)


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


def is_acyclic(q: Quiver) -> bool:
    """True when the quiver has no oriented cycle (topological sort)."""
    n = len(q.vertices)
    m = q.count_matrix()
    indeg = m.sum(axis=0).copy()
    ready = deque(i for i in range(n) if indeg[i] == 0)
    seen = 0
    while ready:
        i = ready.popleft()
        seen += 1
        for j in range(n):
            if m[i, j]:
                indeg[j] -= m[i, j]
                if indeg[j] == 0:
                    ready.append(j)
    return seen == n


def quiver_isomorphism(q1: Quiver, q2: Quiver, extra_matrices=None):
    """A vertex bijection making arrow-multiplicity matrices equal, or None.

    When extra_matrices = (list1, list2) is given, the same permutation must
    also transport each matrix of list1 onto the matching one of list2
    (used to require a common quiver/Cartan isomorphism).
    """
    n1, n2 = len(q1.vertices), len(q2.vertices)
    if n1 != n2 or len(q1.arrows) != len(q2.arrows):
        return None
    m1 = q1.count_matrix()
    m2 = q2.count_matrix()
    e1, e2 = ([], [])
    if extra_matrices is not None:
        e1 = [np.asarray(m) for m in extra_matrices[0]]
        e2 = [np.asarray(m) for m in extra_matrices[1]]
        if len(e1) != len(e2):
            return None
    for perm in itertools.permutations(range(n1)):
        p = list(perm)
        if not np.array_equal(m1[np.ix_(p, p)], m2):
            continue
        if all(np.array_equal(a[np.ix_(p, p)], b) for a, b in zip(e1, e2)):
            # perm maps position p[i] of q1 to position i of q2
            return {q1.vertices[p[i]]: q2.vertices[i] for i in range(n1)}
    return None


# ---------------------------------------------------------------------------
# Fomin-Zelevinsky mutation (on skew-symmetric integer exchange matrices)


def _quiver_from_b(b, vertices):
    arrows = []
    k = 1
    n = len(vertices)
    for i in range(n):
        for j in range(n):
            for _ in range(int(max(b[i, j], 0))):
                arrows.append(Arrow(f"m{k}", vertices[i], vertices[j]))
                k += 1
    return Quiver(tuple(vertices), tuple(arrows))


def mutate_b_matrix(b, k):
    """Exchange-matrix mutation at index k."""
    b = np.asarray(b, dtype=np.int64)
    n = b.shape[0]
    out = b.copy()
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i, j] = -b[i, j]
            else:
                out[i, j] = b[i, j] + (abs(b[i, k]) * b[k, j] + b[i, k] * abs(b[k, j])) // 2
    return out


def mutate(q: Quiver, k) -> Quiver:
    """Mutate the quiver at vertex k.

    The quiver is converted to its skew-symmetric exchange matrix, so any
    2-cycles are cancelled; a loop anywhere or a 2-cycle at k is an error.
    Arrow names of the result are machine generated (m1, m2, ...).
    """
    if k not in q.vertices:
        raise MutationError(f"unknown vertex {k!r}")
    counts = q.count_matrix()
    ki = q.vertex_index(k)
    n = len(q.vertices)
    for i in range(n):
        if counts[i, i]:
            raise MutationError(f"loop at vertex {q.vertices[i]}")
    for i in range(n):
        if counts[i, ki] and counts[ki, i]:
            raise MutationError(f"2-cycle at vertex {k}")
    b = counts - counts.T
    return _quiver_from_b(mutate_b_matrix(b, ki), list(q.vertices))


def canonical_form(q: Quiver) -> bytes:
    """Lexicographically minimal arrow-count matrix over vertex permutations."""
    m = q.count_matrix()
    n = m.shape[0]
    best = None
    for perm in itertools.permutations(range(n)):
        p = list(perm)
        cand = m[np.ix_(p, p)].tobytes()
        if best is None or cand < best:
            best = cand
    return best


def find_acyclic_in_mutation_class(q: Quiver, max_depth: int):
    """Breadth-first search for an acyclic quiver within max_depth mutations.

    Visited quivers are deduplicated up to isomorphism via canonical_form.
    Returns the mutation sequence (list of vertex ids, shortest first in
    BFS order) or None when the bounded search exhausts.
    """
    counts = q.count_matrix()
    n = len(q.vertices)
    for i in range(n):
        if counts[i, i]:
            raise MutationError(f"loop at vertex {q.vertices[i]}")
        for j in range(i):
            if counts[i, j] and counts[j, i]:
                raise MutationError("2-cycle in input quiver")
    if is_acyclic(q):
        return []
    start = counts - counts.T

    def canon(b):
        best = None
        for perm in itertools.permutations(range(n)):
            p = list(perm)
            cand = b[np.ix_(p, p)].tobytes()
            if best is None or cand < best:
                best = cand
        return best

    def acyclic_b(b):
        pos = np.maximum(b, 0)
        indeg = pos.sum(axis=0).copy()
        ready = deque(i for i in range(n) if indeg[i] == 0)
        seen = 0
        while ready:
            i = ready.popleft()
            seen += 1
            for j in range(n):
                if pos[i, j]:
                    indeg[j] -= pos[i, j]
                    if indeg[j] == 0:
                        ready.append(j)
        return seen == n

    visited = {canon(start)}
    queue = deque([(start, [])])
    while queue:
        b, path = queue.popleft()
        if len(path) >= max_depth:
            continue
        for ki in range(n):
            nb = mutate_b_matrix(b, ki)
            key = canon(nb)
            if key in visited:
                continue
            visited.add(key)
            npath = path + [q.vertices[ki]]
            if acyclic_b(nb):
                return npath
            queue.append((nb, npath))
    return None
