"""Command-line front-end.

Every pipeline of the library is reachable through a verb; output is
text, json (with a top-level "schema": 1 field) or dot.  Exit codes:
0 success, 1 domain error (single line prefixed ``error:``), 2 usage
error.  All algorithms are deterministic.
"""

from __future__ import annotations

import argparse
import json
import sys
from importlib import resources

from quiverkit import linalg
from quiverkit.quiver import (
    MutationError,
    ParseError,
    find_acyclic_in_mutation_class,
    is_acyclic,
    mutate,
    parse_presentation,
    to_dot,
)
from quiverkit.algebra import (
    BuildError,
    build_algebra,
    cartan_matrix,
    gabriel_quiver,
    quotient_by_vertex,
)
from quiverkit.repmod import (
    DecompositionError,
    ModuleError,
    decompose,
    direct_sum,
    injective,
    module_from_json,
    module_to_json,
    projective,
    simple,
)
from quiverkit.homology import HomologyError, ext_dim, tau, tau_inv
from quiverkit.extensions import (
    ExtensionError,
    one_point_coextension,
    one_point_extension,
    relation_extension,
    verify_extension_commutes,
)
from quiverkit.arquiver import (
    ARQuiverError,
    check_left_section,
    check_local_slice,
    check_slice,
    extend_cluster_tilted,
    find_local_slices_through,
    knit,
)

DOMAIN_ERRORS = (ParseError, MutationError, BuildError, ModuleError,
                 DecompositionError, HomologyError, ExtensionError,
                 ARQuiverError, linalg.LinalgError, OSError,
                 json.JSONDecodeError)


def _load_presentation(path, field_override=None):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if field_override:
        lines = text.splitlines()
        out = []
        replaced = False
        for line in lines:
            if line.split("#", 1)[0].strip().lower().startswith("field:"):
                out.append(f"field: {field_override}")
                replaced = True
            else:
                out.append(line)
        if not replaced:
            out.insert(0, f"field: {field_override}")
        text = "\n".join(out)
    return parse_presentation(text)


def _field_name(arg):
    if arg is None:
        return None
    if arg == "rational":
        return "rational"
    if arg.startswith("gf:"):
        return f"gf({arg[3:]})"
    if arg.startswith("gf(") and arg.endswith(")"):
        return arg
    raise ParseError(f"bad field spec {arg!r} (use rational or gf:<p>)")


def _parse_module_spec(a, spec):
    """Module specs: P(1), S(2), I(3), sums like P(1)+P(2), or @file.json."""
    spec = spec.strip()
    if spec.startswith("@"):
        with open(spec[1:], "r", encoding="utf-8") as fh:
            return module_from_json(a, json.load(fh))
    parts = [p.strip() for p in spec.split("+")]
    mods = []
    for part in parts:
        if len(part) >= 4 and part[1] == "(" and part.endswith(")"):
            kind, vertex = part[0].upper(), part[2:-1]
        else:
            raise ModuleError(f"bad module spec {part!r} (use P(v)/S(v)/I(v))")
        if vertex not in a.vertices:
            raise ModuleError(f"unknown vertex {vertex!r}")
        if kind == "P":
            mods.append(projective(a, vertex))
        elif kind == "S":
            mods.append(simple(a, vertex))
        elif kind == "I":
            mods.append(injective(a, vertex))
        else:
            raise ModuleError(f"bad module kind {kind!r}")
    return mods[0] if len(mods) == 1 else direct_sum(a, mods, label=spec)


def _emit(args, payload_json, payload_text, payload_dot=None):
    if args.format == "json":
        out = {"schema": 1}
        out.update(payload_json)
        print(json.dumps(out, sort_keys=True))
    elif args.format == "dot":
        if payload_dot is None:
            raise ParseError("no dot output for this command")
        sys.stdout.write(payload_dot)
    else:
        print(payload_text)


def _algebra_summary(a):
    q = gabriel_quiver(a)
    return {
        "dimension": a.dim,
        "vertices": list(a.vertices),
        "basis": [a.labels[k] for k in range(a.dim)],
        "arrows": [{"name": ar.name, "source": ar.source, "target": ar.target}
                   for ar in q.arrows],
        "cartan": [[int(x) for x in row] for row in cartan_matrix(a)],
    }


def _algebra_text(a):
    q = gabriel_quiver(a)
    lines = [f"dimension {a.dim}, vertices {' '.join(a.vertices)}"]
    lines.append("arrows: " + ", ".join(f"{ar.name}: {ar.source} -> {ar.target}"
                                        for ar in q.arrows))
    lines.append("basis: " + " ".join(a.labels))
    return "\n".join(lines)


def _fragment_text(frag):
    lines = [f"{len(frag.nodes)} nodes, complete={frag.complete}"
             + (f" ({frag.incomplete_reason})" if frag.incomplete_reason else "")]
    for i, node in enumerate(frag.nodes):
        tags = []
        if i in frag.projective_at:
            tags.append(f"P({frag.projective_at[i]})")
        if i in frag.injective_at:
            tags.append(f"I({frag.injective_at[i]})")
        t = frag.tau_links.get(i)
        tl = f" tau->{frag.labels[t]}" if t is not None else ""
        lines.append(f"  [{i}] {frag.labels[i]} dims {list(node.dims)} "
                     f"{' '.join(tags)}{tl}")
    arrows = ", ".join(f"{frag.labels[i]}->{frag.labels[j]}" + (f" x{m}" if m > 1 else "")
                       for (i, j), m in sorted(frag.arrows.items()))
    lines.append("arrows: " + arrows)
    return "\n".join(lines)


def _resolve_slice(args, a, frag):
    if args.slice:
        idx = []
        for label in args.slice.split(","):
            i = frag.node_by_label(label.strip())
            if i < 0:
                raise ARQuiverError(f"no fragment node labelled {label.strip()!r}")
            idx.append(i)
        return idx
    raise ARQuiverError("--slice is required (comma-separated node labels)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="quiverkit",
        description="exact computations with bound quiver algebras")
    parser.add_argument("--field", help="override the presentation field: rational or gf:<p>")
    parser.add_argument("--format", choices=["text", "json", "dot"], default="text")
    parser.add_argument("--cap", type=int, default=60,
                        help="node cap of the AR-quiver knit (knit, check-*, "
                             "find-local-slices, extend)")
    parser.add_argument("--depth", type=int, default=8, help="mutation search depth")
    sub = parser.add_subparsers(dest="verb", required=True)

    for verb in ["build", "quiver", "relext", "knit"]:
        s = sub.add_parser(verb)
        s.add_argument("file")
    s = sub.add_parser("ext")
    s.add_argument("file")
    s.add_argument("module1")
    s.add_argument("module2")
    s.add_argument("degree", type=int)
    for verb in ["tau", "tauinv", "opext", "opcoext"]:
        s = sub.add_parser(verb)
        s.add_argument("file")
        s.add_argument("module")
    s = sub.add_parser("delete-vertex")
    s.add_argument("file")
    s.add_argument("vertex")
    s = sub.add_parser("mutate")
    s.add_argument("file")
    s.add_argument("vertices", nargs="+")
    s = sub.add_parser("is-acyclic")
    s.add_argument("file")
    s = sub.add_parser("search-acyclic")
    s.add_argument("file")
    for verb in ["check-slice", "check-local-slice", "check-left-section"]:
        s = sub.add_parser(verb)
        s.add_argument("file")
        s.add_argument("--slice", help="comma-separated node labels")
    s = sub.add_parser("find-local-slices")
    s.add_argument("file")
    s.add_argument("module")
    s = sub.add_parser("check-commute")
    s.add_argument("file")
    s.add_argument("module")
    s = sub.add_parser("extend")
    s.add_argument("file")
    s.add_argument("module")
    s.add_argument("--slice", help="comma-separated node labels (default: search)")
    sub.add_parser("corpus")

    args = parser.parse_args(argv)
    try:
        return _dispatch(args)
    except DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _dispatch(args):
    field = _field_name(args.field)
    verb = args.verb

    if verb == "corpus":
        from quiverkit.corpus import run_corpus
        results = run_corpus()
        width = max(len(name) for name, _, _ in results)
        failures = 0
        for name, ok, note in results:
            status = "pass" if ok else "FAIL"
            print(f"{name.ljust(width)}  {status}  {note}")
            failures += 0 if ok else 1
        print(f"{len(results) - failures}/{len(results)} checks passed")
        return 0 if failures == 0 else 1

    pres = _load_presentation(args.file, field)

    if verb == "is-acyclic":
        val = is_acyclic(pres.quiver)
        _emit(args, {"acyclic": val}, "true" if val else "false")
        return 0
    if verb == "mutate":
        q = pres.quiver
        for v in args.vertices:
            q = mutate(q, v)
        _emit(args,
              {"vertices": list(q.vertices),
               "arrows": [{"name": a.name, "source": a.source, "target": a.target}
                          for a in q.arrows],
               "acyclic": is_acyclic(q)},
              "arrows: " + ", ".join(f"{a.source} -> {a.target}" for a in q.arrows)
              + f"\nacyclic: {is_acyclic(q)}",
              to_dot(q))
        return 0
    if verb == "search-acyclic":
        seq = find_acyclic_in_mutation_class(pres.quiver, args.depth)
        if seq is None:
            _emit(args, {"sequence": None},
                  f"no acyclic quiver within {args.depth} mutations")
        else:
            _emit(args, {"sequence": seq}, "sequence: " + " ".join(seq))
        return 0

    a = build_algebra(pres)

    if verb == "build":
        _emit(args, _algebra_summary(a), _algebra_text(a))
        return 0
    if verb == "quiver":
        q = gabriel_quiver(a)
        _emit(args,
              {"vertices": list(q.vertices),
               "arrows": [{"name": ar.name, "source": ar.source, "target": ar.target}
                          for ar in q.arrows]},
              ", ".join(f"{ar.name}: {ar.source} -> {ar.target}" for ar in q.arrows),
              to_dot(q))
        return 0
    if verb == "ext":
        m1 = _parse_module_spec(a, args.module1)
        m2 = _parse_module_spec(a, args.module2)
        d, _ = ext_dim(m1, m2, args.degree)
        _emit(args, {"dimension": d}, str(d))
        return 0
    if verb in ("tau", "tauinv"):
        m = _parse_module_spec(a, args.module)
        out = tau(m) if verb == "tau" else tau_inv(m)
        _emit(args, {"module": module_to_json(out)},
              f"dims {list(out.dims)}")
        return 0
    if verb == "opext":
        m = _parse_module_spec(a, args.module)
        ext = one_point_extension(a, m)
        _emit(args, _algebra_summary(ext), _algebra_text(ext))
        return 0
    if verb == "opcoext":
        m = _parse_module_spec(a, args.module)
        ext = one_point_coextension(a, m)
        _emit(args, _algebra_summary(ext), _algebra_text(ext))
        return 0
    if verb == "relext":
        r = relation_extension(a)
        _emit(args, _algebra_summary(r), _algebra_text(r))
        return 0
    if verb == "delete-vertex":
        qout = quotient_by_vertex(a, args.vertex)
        _emit(args, _algebra_summary(qout), _algebra_text(qout))
        return 0
    if verb == "knit":
        frag = knit(a, node_cap=args.cap)
        _emit(args, frag.to_json(), _fragment_text(frag), frag.to_dot())
        return 0
    if verb in ("check-slice", "check-local-slice", "check-left-section"):
        frag = knit(a, node_cap=args.cap)
        idx = _resolve_slice(args, a, frag)
        checker = {"check-slice": check_slice,
                   "check-local-slice": check_local_slice,
                   "check-left-section": check_left_section}[verb]
        verdict = checker(a, frag, idx)
        _emit(args, verdict.to_json(),
              ("holds" if verdict.holds else
               "violated: " + "; ".join(f"{t} ({w})" for t, w in verdict.violations)))
        return 0
    if verb == "find-local-slices":
        frag = knit(a, node_cap=args.cap)
        m = _parse_module_spec(a, args.module)
        i = frag.find(m)
        if i < 0:
            raise ARQuiverError("module is not a fragment node")
        found = find_local_slices_through(a, frag, i)
        _emit(args,
              {"slices": [[frag.labels[i] for i in s] for s in found]},
              "\n".join(", ".join(frag.labels[i] for i in s) for s in found)
              or "none")
        return 0
    if verb == "check-commute":
        p = _parse_module_spec(a, args.module)
        rep = verify_extension_commutes(a, p)
        _emit(args, rep.to_json(),
              f"{rep.verdict} (dims {rep.dimension_left}/{rep.dimension_right})")
        return 0
    if verb == "extend":
        frag = knit(a, node_cap=args.cap)
        m = _parse_module_spec(a, args.module)
        if args.slice:
            idx = _resolve_slice(args, a, frag)
        else:
            # the nodes of m's summands, which come back as node objects
            # (-1 for none); the first anchors the search
            parts = [next((i for i, n in enumerate(frag.nodes) if n is s), -1)
                     for s, _ in decompose(m, frag.nodes)]
            found = find_local_slices_through(a, frag, parts[0])
            if not found:
                raise ARQuiverError("no local slice through the module")
            idx = None
            for cand in found:
                if all(i in cand for i in parts):
                    idx = list(cand)
                    break
            if idx is None:
                raise ARQuiverError("no local slice contains every summand")
        sigma = [frag.nodes[i] for i in idx]
        bprime, report = extend_cluster_tilted(a, sigma, m, frag=frag, node_cap=args.cap)
        payload = {"algebra": _algebra_summary(bprime), "report": report.to_json()}
        _emit(args, payload,
              _algebra_text(bprime) + "\nreport: " + json.dumps(report.to_json()))
        return 0
    raise ParseError(f"unknown verb {verb!r}")


def fixture_path(name):
    """Path of a bundled presentation file."""
    return resources.files("quiverkit").joinpath("fixtures").joinpath(name)


if __name__ == "__main__":
    sys.exit(main())
