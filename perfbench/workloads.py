"""Workloads of the quiverkit pipeline benchmark.

A workload is a fixed list of tasks.  Each task takes presentations made in
set-up, runs one piece of the pipeline on them and returns a small plain
answer, which is compared with an expected answer.  Every expected answer
comes from a closed formula, from the source paper's worked examples or from
the package's acceptance criteria, never from running quiverkit.

The seed renames the vertices and shuffles the order of arrows and relations
in every presentation; no expected answer depends on it.  Answers name
vertices by their unrelabelled names.

Why these four workloads (ROADMAP aim 1):

* knit_finite stresses the all-pairs ``hom_basis`` scan, ``is_isomorphic``
  and tau on small modules over GF(p); it barely touches ``extensions`` or
  the rational ``linalg`` path.
* extend_pipeline is dominated by ``basis_action``/``psum_map`` on large
  modules, resolutions and ``ext2_bimodule``; it is where dropping the
  total-space action matrices (ROADMAP 2(a)) should show.
* rational_exact runs the same layers as knit_finite with ``Fraction``
  arithmetic, ``_rref_generic`` and ``SpanTracker`` in place of numpy, and a
  GF(3) replica that guards correctness in every field (ROADMAP 3 and 4a).
* mutation_search runs only the ``quiver`` layer: the n! canonical-form
  loops of the mutation-class search (ROADMAP 2(c)).  Changes to the algebra
  layers should not move it.

Input sizes keep one round (every task once) within one to two seconds, so
that a run holds many rounds and their median is steady.  Larger sizes (A10,
a 60-node capped knit over Q, the oriented 7-cycle) made rounds of 2 to 5
seconds and too few of them in a run.
"""

import random
from dataclasses import dataclass
from importlib import resources

import quiverkit as qk

GF = "gf(32003)"


@dataclass(frozen=True)
class Task:
    """One unit of work: `run(*inputs)` must return `expected`.

    `inputs` name presentations; unless `quiver_only`, each is built into an
    algebra before the task is timed.
    """

    id: str
    inputs: tuple
    run: object
    expected: object
    quiver_only: bool = False


class Input:
    """A prepared input: a quiver, its algebra (None for a quiver-only task)
    and its vertex names."""

    def __init__(self, quiver, algebra, names):
        self.quiver = quiver
        self.algebra = algebra
        self.names = names  # unrelabelled name -> name in the presentation

    def v(self, name):
        return self.names[name]

    def dims(self, module):
        """Dimension vector in unrelabelled vertex order."""
        a = module.algebra
        return tuple(module.dims[a.vertex_index(new)] for new in self.names.values())


# ---------------------------------------------------------------------------
# presentations


def _fixture(name):
    return resources.files("quiverkit").joinpath("fixtures", f"{name}.q").read_text()


def _linear(n, field, relations=()):
    vertices = " ".join(str(i) for i in range(1, n + 1))
    arrows = ", ".join(f"a{i}: {i} -> {i + 1}" for i in range(1, n))
    text = f"field: {field}\nvertices: {vertices}\n"
    if arrows:
        text += f"arrows: {arrows}\n"
    if relations:
        text += "relations: " + ", ".join(relations) + "\n"
    return text


def _linear_nakayama(n, k, field):
    """Linear A_n modulo all paths of length k (rad^k = 0)."""
    return _linear(n, field, ["*".join(f"a{j}" for j in range(i, i + k))
                              for i in range(1, n - k + 1)])


def _cycle(n):
    """The oriented n-cycle, without relations."""
    vertices = " ".join(str(i) for i in range(1, n + 1))
    arrows = ", ".join(f"a{i}: {i} -> {i % n + 1}" for i in range(1, n + 1))
    return f"field: {GF}\nvertices: {vertices}\narrows: {arrows}\n"


def _cyclic_nakayama(n, k):
    """The oriented n-cycle modulo all paths of length k."""
    relations = ", ".join("*".join(f"a{(i + j) % n + 1}" for j in range(k)) for i in range(n))
    return _cycle(n) + f"relations: {relations}\n"


def relabel(text, field, rng):
    """Presentation text with vertices renamed and arrow and relation order
    shuffled; returns (text, unrelabelled name -> new name)."""
    spec = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, rest = line.split(":", 1)
            spec[key.strip()] = rest.strip()
    old = spec["vertices"].split()
    names = dict(zip(old, (str(v) for v in rng.sample(range(1, 100), len(old)))))
    arrows = []
    for part in filter(str.strip, spec.get("arrows", "").split(",")):
        label, ends = part.split(":")
        source, target = (names[end.strip()] for end in ends.split("->"))
        arrows.append(f"{label.strip()}: {source} -> {target}")
    relations = [r.strip() for r in spec.get("relations", "").split(",") if r.strip()]
    rng.shuffle(arrows)
    rng.shuffle(relations)
    lines = [f"field: {field}", "vertices: " + " ".join(names.values())]
    if arrows:
        lines.append("arrows: " + ", ".join(arrows))
    if relations:
        lines.append("relations: " + ", ".join(relations))
    return "\n".join(lines) + "\n", names


# ---------------------------------------------------------------------------
# expected dimension vectors (closed forms)


def _intervals(n, max_len):
    """Indecomposables of linear A_n with rad^max_len = 0: the intervals."""
    return sorted(tuple(int(i <= v < i + length) for v in range(n))
                  for i in range(n) for length in range(1, min(max_len, n - i) + 1))


def _arcs(n, k):
    """Indecomposables of the cyclic Nakayama algebra (n, k): arcs of length
    1..k starting at each vertex."""
    out = []
    for start in range(n):
        for length in range(1, k + 1):
            dims = [0] * n
            for step in range(length):
                dims[(start + step) % n] += 1
            out.append(tuple(dims))
    return sorted(out)


# the 12 indecomposables of the D4 cluster-tilted algebra (acceptance criterion 2)
_D4_CLUSTER_TILTED = sorted([
    (1, 1, 1, 1), (0, 1, 0, 1), (0, 0, 1, 1), (1, 0, 0, 1), (1, 1, 0, 0),
    (1, 0, 1, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
    (0, 1, 1, 1), (1, 1, 1, 0)])


# ---------------------------------------------------------------------------
# task bodies


def _knit_dims(cap):
    def run(a):
        frag = qk.knit(a.algebra, cap)
        return len(frag.nodes), frag.complete, sorted(a.dims(m) for m in frag.nodes)
    return run


def _knit_count(cap):
    def run(a):
        frag = qk.knit(a.algebra, cap)
        return len(frag.nodes), frag.complete
    return run


def _extend(whole, cap):
    """Extend the D4 cluster-tilted algebra along a module on a local slice.

    whole=False: along S(2) on the slice P(1), P(2), S(2), rad P(1).
    whole=True: along the sum of the slice P(1), P(2), P(3), rad P(1), with
    the second knit capped at `cap` nodes; that extension is
    representation-infinite, so its local-slice check stays unverified.
    """
    def run(b):
        alg = b.algebra
        frag = qk.knit(alg, 40)
        p1 = qk.projective(alg, b.v("1"))
        top = [p1, qk.projective(alg, b.v("2"))]
        top.append(qk.projective(alg, b.v("3")) if whole else qk.simple(alg, b.v("2")))
        found = [frag.find(m) for m in top + [qk.radical_of(p1)]]
        if min(found) < 0:
            return "a slice module is not a fragment node"
        sigma = [frag.nodes[i] for i in found]
        m = qk.direct_sum(alg, sigma, label="whole") if whole else top[2]
        ext, report = qk.extend_cluster_tilted(alg, sigma, m, frag=frag, node_cap=cap)
        return (len(frag.nodes), ext.dim, report.quiver_extends, report.local_slice_passes,
                report.deletion_recovers, report.radical_matches,
                report.socle_factor_matches, report.arrow_rule_holds)
    return run


def _relation_extension_dim(c):
    return qk.relation_extension(c.algebra).dim


def _mutation_search(max_depth, max_len):
    """Search the mutation class for an acyclic quiver and replay the
    sequence found; returns None if there is none within `max_depth`."""
    def run(a):
        seq = qk.find_acyclic_in_mutation_class(a.quiver, max_depth)
        if seq is None:
            return None
        q = a.quiver
        for vertex in seq:
            q = qk.mutate(q, vertex)
        return qk.is_acyclic(q), len(seq) <= max_len
    return run


def _commutes(c):
    alg = c.algebra
    p = qk.direct_sum(alg, [qk.projective(alg, c.v(v)) for v in "123"], label="P")
    report = qk.verify_extension_commutes(alg, p)
    return report.verdict, report.dimension_left == report.dimension_right, report.cartan_equal


# ---------------------------------------------------------------------------
# the workloads

FIXTURES = ("d4_clustertilted", "d4_tilted", "d4_tilted_ext_s2", "d5_clustertilted")
# node counts of the AR quivers of the four finite-type fixtures
FIXTURE_NODES = {"d4_clustertilted": 12, "d4_tilted": 11, "d4_tilted_ext_s2": 15,
                 "d5_clustertilted": 20}
EXTEND_S2 = (12, 15, True, True, True, True, True, True)
WHOLE_SLICE_CAP = 20
EXTEND_WHOLE = (12, 34, True, None, True, True, True, True)


def _knit_finite():
    sources = {}
    tasks = []
    for n in (4, 6, 8):
        sources[f"A{n}"] = (_linear(n, GF), GF)
        nodes = n * (n + 1) // 2
        tasks.append(Task(f"knit_A{n}", (f"A{n}",), _knit_dims(2 * nodes),
                          (nodes, True, _intervals(n, n))))
    n, k = 12, 3
    sources["nakayama_12_3"] = (_linear_nakayama(n, k, GF), GF)
    nodes = sum(min(k, n - i) for i in range(n))
    tasks.append(Task("knit_nakayama_12_3", ("nakayama_12_3",), _knit_dims(2 * nodes),
                      (nodes, True, _intervals(n, k))))
    for n, k in ((5, 3), (6, 4)):
        sources[f"cyclic_{n}_{k}"] = (_cyclic_nakayama(n, k), GF)
        tasks.append(Task(f"knit_cyclic_{n}_{k}", (f"cyclic_{n}_{k}",), _knit_dims(2 * n * k),
                          (n * k, True, _arcs(n, k))))
    return sources, tasks


def _extend_pipeline():
    sources = {name: (_fixture(name), GF)
               for name in ("d4_clustertilted", "d4_tilted", "d4_tilted_ext_s2")}
    tasks = [
        Task("extend_s2", ("d4_clustertilted",), _extend(False, 80), EXTEND_S2),
        Task("extend_whole_slice", ("d4_clustertilted",),
             _extend(True, WHOLE_SLICE_CAP), EXTEND_WHOLE),
        Task("relation_extension_d4_tilted", ("d4_tilted",), _relation_extension_dim, 10),
        Task("relation_extension_d4_tilted_ext_s2", ("d4_tilted_ext_s2",),
             _relation_extension_dim, 15),
        Task("verify_extension_commutes", ("d4_tilted",), _commutes,
             ("consistent with isomorphism", True, True)),
    ]
    return sources, tasks


def _rational_exact():
    sources = {}
    tasks = []
    for field, tag in (("rational", "q"), ("gf(3)", "gf3")):
        for name in FIXTURES:
            sources[f"{name}@{tag}"] = (_fixture(name), field)
            expected = (FIXTURE_NODES[name], True)
            run = _knit_count(60)
            if name == "d4_clustertilted":
                expected += (_D4_CLUSTER_TILTED,)
                run = _knit_dims(60)
            tasks.append(Task(f"knit_{name}@{tag}", (f"{name}@{tag}",), run, expected))
        sources[f"A6@{tag}"] = (_linear(6, field), field)
        tasks.append(Task(f"knit_A6@{tag}", (f"A6@{tag}",), _knit_dims(42),
                          (21, True, _intervals(6, 6))))
    sources["a31_clustertilted@q"] = (_fixture("a31_clustertilted"), "rational")
    tasks += [
        Task("extend_s2@q", ("d4_clustertilted@q",), _extend(False, 80), EXTEND_S2),
        # representation-infinite: the capped knit must stop, incomplete
        Task("knit_a31_clustertilted_cap40@q", ("a31_clustertilted@q",),
             _knit_count(40), (40, False)),
    ]
    return sources, tasks


def _mutation_search_workload():
    sources = {f"cycle_{n}": (_cycle(n), GF) for n in (5, 6)}
    sources.update((name, (_fixture(name), GF))
                   for name in ("a31_clustertilted", "a31_onepoint_ext"))
    tasks = [
        # an oriented n-cycle is mutation equivalent to D_n, which is acyclic
        Task(f"mutation_cycle_{n}", (f"cycle_{n}",), _mutation_search(n, n), (True, True),
             quiver_only=True)
        for n in (5, 6)]
    tasks += [
        # acceptance criterion 7: two mutations reach an acyclic quiver, and
        # the depth-8 search on the one-point extension exhausts
        Task("mutation_a31_clustertilted", ("a31_clustertilted",), _mutation_search(8, 2),
             (True, True), quiver_only=True),
        Task("mutation_a31_onepoint_ext", ("a31_onepoint_ext",), _mutation_search(8, 8),
             None, quiver_only=True),
    ]
    return sources, tasks


WORKLOADS = {
    "knit_finite": _knit_finite,
    "extend_pipeline": _extend_pipeline,
    "rational_exact": _rational_exact,
    "mutation_search": _mutation_search_workload,
}


def presentations(workload, seed):
    """Set-up, first half: make and parse the seeded presentations.

    Returns (tasks, {name: (Presentation, names)}).
    """
    sources, tasks = WORKLOADS[workload]()
    rng = random.Random(f"{workload}:{seed}")
    parsed = {}
    for name in sorted(sources):
        text, field = sources[name]
        text, names = relabel(text, field, rng)
        parsed[name] = (qk.parse_presentation(text), names)
    return tasks, parsed


def prepare(tasks, parsed):
    """Set-up, second half: fresh inputs for one round, one set per task, so
    that no task sees caches another task filled."""
    out = {}
    for task in tasks:
        inputs = []
        for name in task.inputs:
            pres, names = parsed[name]
            algebra = None if task.quiver_only else qk.build_algebra(pres)
            inputs.append(Input(pres.quiver, algebra, names))
        out[task.id] = inputs
    return out
