import itertools
import json
import random
from fractions import Fraction

import numpy as np
import pytest

from quiverkit.corpus import load_fixture
from quiverkit.quiver import (
    Arrow,
    MutationError,
    ParseError,
    Quiver,
    canonical_form,
    find_acyclic_in_mutation_class,
    is_acyclic,
    mutate,
    mutate_b_matrix,
    parse_presentation,
    presentation_from_json,
    presentation_to_json,
    quiver_isomorphism,
    serialize_presentation,
    to_dot,
)


def test_parse_square_with_return():
    pres = load_fixture("d4_clustertilted.q")
    assert len(pres.quiver.vertices) == 4
    assert len(pres.quiver.arrows) == 5
    assert len(pres.relations) == 5
    rel = pres.relations[0]
    assert len(rel.terms) == 2  # a*b + g*d


def test_parse_single_vertex():
    pres = parse_presentation("field: rational\nvertices: 1\n")
    assert pres.quiver.vertices == ("1",)
    assert pres.quiver.arrows == ()
    assert pres.relations == ()


def test_parse_two_term_relation_coefficients():
    pres = parse_presentation(
        "field: rational\nvertices: 1 2 3 4\n"
        "arrows: a: 1 -> 2, b: 2 -> 4, g: 1 -> 3, d: 3 -> 4\n"
        "relations: a*b + g*d\n")
    (c1, p1), (c2, p2) = pres.relations[0].terms
    assert c1 == c2 == pres.field.one()
    assert p1 == ("a", "b") and p2 == ("g", "d")


def test_parse_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_presentation("field: rational\nvertices: 1 2\nnonsense line\n")
    assert exc.value.line == 3
    with pytest.raises(ParseError, match="unknown arrow"):
        parse_presentation(
            "field: rational\nvertices: 1 2\narrows: a: 1 -> 2\nrelations: a*zz\n")
    with pytest.raises(ParseError, match="non-composable"):
        parse_presentation(
            "field: rational\nvertices: 1 2\narrows: a: 1 -> 2\nrelations: a*a\n")
    with pytest.raises(ParseError, match="non-parallel"):
        parse_presentation(
            "field: rational\nvertices: 1 2 3\n"
            "arrows: a: 1 -> 2, b: 2 -> 3, c: 2 -> 2\nrelations: a*b + a*c\n")
    with pytest.raises(ParseError, match="length"):
        parse_presentation(
            "field: rational\nvertices: 1 2\narrows: a: 1 -> 2\nrelations: a\n")


def test_coefficient_zero_in_field_rejected():
    text = ("field: {}\nvertices: 1 2 3\narrows: a: 1 -> 2, b: 2 -> 3\n"
            "relations: 3*a*b\n")
    with pytest.raises(ParseError, match="a\\*b is zero in gf\\(3\\)") as exc:
        parse_presentation(text.format("gf(3)"))
    assert (exc.value.line, exc.value.col) == (4, 12)
    for zero in ["0*a*b", "a*b + 2*a*b", "2*a*b - a*b - a*b"]:
        with pytest.raises(ParseError, match="zero"):
            parse_presentation(text.format("gf(3)").replace("3*a*b", zero))
    with pytest.raises(ParseError, match="zero in rational"):
        parse_presentation(text.format("rational").replace("3*a*b", "a*b - a*b"))
    (coeff, names), = parse_presentation(text.format("gf(5)")).relations[0].terms
    assert coeff == 3 and names == ("a", "b")


def test_roundtrip_fixtures():
    for name in ["d4_clustertilted.q", "d4_tilted.q", "d4_tilted_ext_s2.q",
                 "d5_clustertilted.q", "a31_clustertilted.q",
                 "a31_onepoint_ext.q"]:
        pres = load_fixture(name)
        assert parse_presentation(serialize_presentation(pres)) == pres


def test_fractional_coefficients_round_trip():
    square = {"field": {"kind": "rational"}, "vertices": ["1", "2", "3", "4"],
              "arrows": [{"name": n, "source": s, "target": t} for n, s, t in
                         [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]]}
    for coeff in ("1/2", "-3/4"):
        pres = presentation_from_json({**square, "relations": [
            [{"coeff": coeff, "path": ["a", "b"]}, {"coeff": "1", "path": ["c", "d"]}]]})
        text = serialize_presentation(pres)
        assert f"{coeff.lstrip('-')}*a*b" in text
        assert parse_presentation(text) == pres


def test_fractional_coefficient_in_a_prime_field():
    text = ("field: gf(7)\nvertices: 1 2 3\narrows: a: 1 -> 2, b: 2 -> 3\n"
            "relations: {}\n")
    (coeff, _), = parse_presentation(text.format("2/3*a*b")).relations[0].terms
    assert coeff == 3  # 2 * 3^-1 = 2 * 5 in GF(7)
    with pytest.raises(ParseError, match="1/7 divides by zero in gf\\(7\\)") as exc:
        parse_presentation(text.format("1/7*a*b"))
    assert (exc.value.line, exc.value.col) == (4, 12)


@pytest.mark.parametrize("field", [{"kind": "rational"}, {"kind": "gf", "p": 7}])
def test_json_coefficients_read_as_in_the_text_format(field):
    # JSON -> text -> parse: a JSON coefficient is what the text reader reads
    square = {"field": field, "vertices": ["1", "2", "3", "4"],
              "arrows": [{"name": n, "source": s, "target": t} for n, s, t in
                         [("a", "1", "2"), ("b", "2", "4"), ("c", "1", "3"), ("d", "3", "4")]]}

    def relation(c):
        return {**square, "relations": [[{"coeff": c, "path": ["a", "b"]},
                                         {"coeff": "1", "path": ["c", "d"]}]]}

    pres = presentation_from_json(relation("1/2"))
    text = serialize_presentation(pres)
    assert parse_presentation(text) == pres
    (half, _), (one, _) = pres.relations[0].terms
    assert (half, one) == ((Fraction(1, 2), 1) if field["kind"] == "rational" else (4, 1))
    # the same coefficient written as text reads the same
    assert parse_presentation(text.split("relations: ")[0]
                              + "relations: 1/2*a*b + c*d\n") == pres
    name = "rational" if field["kind"] == "rational" else "gf\\(7\\)"
    with pytest.raises(ParseError, match=f"coefficient of a\\*b is zero in {name}$"):
        presentation_from_json(relation("0"))
    with pytest.raises(ParseError, match=f"coefficient of a\\*b is zero in {name}$"):
        presentation_from_json({**relation("1"), "relations": [[
            {"coeff": "1/2", "path": ["a", "b"]}, {"coeff": "-1/2", "path": ["a", "b"]},
            {"coeff": "1", "path": ["c", "d"]}]]})


def test_json_roundtrip():
    pres = load_fixture("d4_clustertilted.q")
    data = json.loads(json.dumps(presentation_to_json(pres)))
    assert presentation_from_json(data) == pres


def _set(key, value):
    return lambda d: d.__setitem__(key, value)


_BAD_JSON = {
    "misspelt kind": _set("field", {"kind": "rationl", "p": 7}),
    "unknown kind": _set("field", {"kind": "gf2", "p": 2}),
    "rational with p": _set("field", {"kind": "rational", "p": 7}),
    "gf without p": _set("field", {"kind": "gf"}),
    "gf of a non-prime": _set("field", {"kind": "gf", "p": 8}),
    "gf of a string": _set("field", {"kind": "gf", "p": "7"}),
    "unknown top-level key": _set("comment", "extra"),
    "missing vertices": lambda d: d.pop("vertices"),
    "missing relations": lambda d: d.pop("relations"),
    "arrow without a name": lambda d: d["arrows"][0].pop("name"),
    "arrow with an unknown key": lambda d: d["arrows"][0].__setitem__("colour", "red"),
    "term without a path": lambda d: d["relations"][0][0].pop("path"),
    "letters as a coefficient": lambda d: d["relations"][0][0].__setitem__("coeff", "x"),
    "a denominator divisible by p":
        lambda d: d["relations"][0][0].__setitem__("coeff", "1/32003"),
    "a zero coefficient": lambda d: d["relations"][0][0].__setitem__("coeff", "0"),
    "a list as a coefficient": lambda d: d["relations"][0][0].__setitem__("coeff", [1]),
    "not an object": lambda d: d.clear(),
}


@pytest.mark.parametrize("case", list(_BAD_JSON))
def test_malformed_presentation_json_is_a_parse_error(case):
    # presentation_to_json writes exactly these keys and field kinds; any
    # other input is refused in one line, never read as something else
    data = json.loads(json.dumps(presentation_to_json(load_fixture("d4_tilted.q"))))
    _BAD_JSON[case](data)
    with pytest.raises(ParseError) as err:
        presentation_from_json(data)
    assert "\n" not in str(err.value)


def test_rational_presentation_json_roundtrip():
    text = "field: rational\nvertices: 1 2 3\narrows: a: 1 -> 2, b: 2 -> 3\nrelations: 2*a*b\n"
    pres = parse_presentation(text)
    data = json.loads(json.dumps(presentation_to_json(pres)))
    assert data["field"] == {"kind": "rational"}
    assert presentation_from_json(data) == pres
    data["relations"][0][0]["coeff"] = "1/0"
    with pytest.raises(ParseError):
        presentation_from_json(data)


def test_to_dot_single_edge():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    dot = to_dot(q)
    assert dot.count("->") == 1
    assert 'label="a"' in dot


def test_is_acyclic():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert is_acyclic(q)
    assert is_acyclic(Quiver(("1",), ()))
    assert not is_acyclic(load_fixture("d4_clustertilted.q").quiver)


def test_mutate_a2_reverses():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    m = mutate(q, "1")
    assert [(a.source, a.target) for a in m.arrows] == [("2", "1")]


def test_mutate_involution_on_square_with_return():
    q = load_fixture("d4_clustertilted.q").quiver
    for v in q.vertices:
        twice = mutate(mutate(q, v), v)
        assert (twice.count_matrix() == q.count_matrix()).all()


def test_mutate_errors():
    loop = Quiver(("1",), (Arrow("a", "1", "1"),))
    with pytest.raises(MutationError, match="loop"):
        mutate(loop, "1")
    two_cycle = Quiver(("1", "2"), (Arrow("a", "1", "2"), Arrow("b", "2", "1")))
    with pytest.raises(MutationError, match="2-cycle"):
        mutate(two_cycle, "1")
    with pytest.raises(MutationError, match="unknown"):
        mutate(Quiver(("1",), ()), "9")


def _random_quiver(rng, n):
    b = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            b[i, j] = rng.randrange(-2, 3)
            b[j, i] = -b[i, j]
    vertices = tuple(str(i + 1) for i in range(n))
    arrows = []
    k = 1
    for i in range(n):
        for j in range(n):
            for _ in range(int(max(b[i, j], 0))):
                arrows.append(Arrow(f"m{k}", vertices[i], vertices[j]))
                k += 1
    return Quiver(vertices, tuple(arrows))


def test_mutation_involution_random():
    rng = random.Random(31)
    for _ in range(150):
        n = rng.randrange(2, 7)
        q = _random_quiver(rng, n)
        v = rng.choice(q.vertices)
        twice = mutate(mutate(q, v), v)
        assert (twice.count_matrix() == q.count_matrix()).all()
        assert len(twice.vertices) == n


def _mutate_reference(b, k):
    # textbook form with sign and positive part, as an independent oracle
    n = b.shape[0]
    out = b.copy()
    for i in range(n):
        for j in range(n):
            if i == k or j == k:
                out[i, j] = -b[i, j]
            else:
                sign = 1 if b[i, k] > 0 else (-1 if b[i, k] < 0 else 0)
                out[i, j] = b[i, j] + sign * max(b[i, k] * b[k, j], 0)
    return out


def test_mutation_matches_reference_formula():
    rng = random.Random(77)
    for _ in range(200):
        n = rng.randrange(2, 7)
        b = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for j in range(i + 1, n):
                b[i, j] = rng.randrange(-3, 4)
                b[j, i] = -b[i, j]
        k = rng.randrange(n)
        got = mutate_b_matrix(b, k)
        assert (got == _mutate_reference(b, k)).all()
        assert (got == -got.T).all()  # stays skew-symmetric


def test_search_acyclic_trivial():
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert find_acyclic_in_mutation_class(q, 3) == []


def test_search_acyclic_two_steps():
    q = load_fixture("a31_clustertilted.q").quiver
    assert not is_acyclic(q)
    assert is_acyclic(mutate(mutate(q, "3"), "4"))
    seq = find_acyclic_in_mutation_class(q, 8)
    assert seq is not None and len(seq) <= 2
    out = q
    for v in seq:
        out = mutate(out, v)
    assert is_acyclic(out)


def test_search_acyclic_absent_small_depth():
    q = load_fixture("a31_onepoint_ext.q").quiver
    assert find_acyclic_in_mutation_class(q, 3) is None


def test_search_rejects_a_negative_depth():
    # acyclic already, so the depth is checked before the search starts
    q = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    assert find_acyclic_in_mutation_class(q, 0) == []
    for name in ("a31_clustertilted.q", None):
        quiver = load_fixture(name).quiver if name else q
        with pytest.raises(MutationError, match="depth must be at least 0, got -1"):
            find_acyclic_in_mutation_class(quiver, -1)


def test_canonical_form_invariant_under_relabelling():
    q1 = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3")))
    q2 = Quiver(("1", "2", "3"), (Arrow("a", "3", "1"), Arrow("b", "1", "2")))
    assert canonical_form(q1) == canonical_form(q2)


def test_quiver_isomorphism():
    q1 = Quiver(("1", "2"), (Arrow("a", "1", "2"),))
    q2 = Quiver(("x", "y"), (Arrow("z", "y", "x"),))
    perm = quiver_isomorphism(q1, q2)
    assert perm == {"1": "y", "2": "x"}
    q3 = Quiver(("x", "y"), (Arrow("z", "y", "x"), Arrow("w", "y", "x")))
    assert quiver_isomorphism(q1, q3) is None


def _reference_canon(m):
    # the n! lexicographically least permuted matrix, as an oracle
    n = m.shape[0]
    return min(m[np.ix_(p, p)].tobytes() for p in itertools.permutations(range(n)))


def _reference_isomorphism(q1, q2, extra=((), ())):
    # the lexicographically first vertex order carrying every matrix across
    s1 = [q1.count_matrix(), *extra[0]]
    s2 = [q2.count_matrix(), *extra[1]]
    for p in itertools.permutations(range(len(q1.vertices))):
        if all(np.array_equal(a[np.ix_(p, p)], b) for a, b in zip(s1, s2)):
            return {q1.vertices[v]: q2.vertices[i] for i, v in enumerate(p)}
    return None


def _reference_search(q, max_depth):
    # breadth-first search keyed by the n! canon; acyclic = nilpotent
    n = len(q.vertices)
    counts = q.count_matrix()

    def acyclic(b):
        return not np.linalg.matrix_power((b > 0).astype(np.int64), n).any()

    start = counts - counts.T
    if acyclic(start):
        return []
    visited = {_reference_canon(start)}
    queue = [(start, [])]
    for b, path in queue:
        if len(path) >= max_depth:
            continue
        for k in range(n):
            nb = _mutate_reference(b, k)
            key = _reference_canon(nb)
            if key in visited:
                continue
            visited.add(key)
            if acyclic(nb):
                return path + [q.vertices[k]]
            queue.append((nb, path + [q.vertices[k]]))
    return None


def _relabelled(rng, q, perturb):
    """The quiver on shuffled new vertex names, maybe with one arrow more,
    and the order p such that its i-th vertex renames the p[i]-th of q."""
    names = [f"v{i}" for i in range(len(q.vertices))]
    rng.shuffle(names)
    rename = dict(zip(q.vertices, names))
    arrows = [Arrow(a.name, rename[a.source], rename[a.target]) for a in q.arrows]
    if perturb:
        s, t = rng.sample(names, 2)
        arrows.append(Arrow("extra", s, t))
    vertices = tuple(sorted(names))
    return Quiver(vertices, tuple(arrows)), [names.index(v) for v in vertices]


def test_labelling_matches_brute_force_oracle():
    rng = random.Random(2014)
    searched = 0
    for _ in range(120):
        n = rng.randrange(2, 7)
        q1 = _random_quiver(rng, n)
        q2, p = _relabelled(rng, q1, perturb=rng.random() < 0.3)
        iso = _reference_isomorphism(q1, q2)
        assert (canonical_form(q1) == canonical_form(q2)) == (iso is not None)
        assert quiver_isomorphism(q1, q2) == iso
        # an extra matrix, carried along the relabelling or, sometimes, not
        e1 = np.array([[rng.randrange(3) for _ in range(n)] for _ in range(n)])
        e2 = e1[np.ix_(p, p)]
        if rng.random() < 0.3:
            e2[rng.randrange(n), rng.randrange(n)] += 1
        extra = ([e1], [e2])
        assert quiver_isomorphism(q1, q2, extra_matrices=extra) == _reference_isomorphism(
            q1, q2, extra)
        if n <= 5:
            searched += 1
            assert find_acyclic_in_mutation_class(q1, 3) == _reference_search(q1, 3)
    assert searched > 50


def test_search_rejects_two_cycle_naming_vertex():
    q = Quiver(("1", "2", "3"), (Arrow("a", "1", "2"), Arrow("b", "2", "3"),
                                 Arrow("c", "3", "2")))
    with pytest.raises(MutationError, match="2-cycle at vertex 2"):
        find_acyclic_in_mutation_class(q, 3)
    with pytest.raises(MutationError, match="loop at vertex 1"):
        find_acyclic_in_mutation_class(Quiver(("1",), (Arrow("a", "1", "1"),)), 3)
