"""Per-layer call tracing, applied to quiverkit from outside.

Each traced function is replaced, in every ``quiverkit`` module that binds
it (and on its class, for methods), by a wrapper that records one span per
call: name, start, end and parent span.  A function's ``self_s`` is the time
of its spans minus the time covered by their direct child spans.  The
program itself carries no tracing code.

Some functions also get a probe that counts work done by the call, such as
the size of the linear system behind ``hom_basis``.  Probes run outside the
span they describe.
"""

import functools
import statistics
import sys
import time

# Probes.  `before(args, kwargs)` runs ahead of the call and returns what
# `after(extra, pre, result)` needs; `extra` is the function's counter dict.
# Some probes read a private cache of the program; if that cache is gone the
# probe raises AttributeError and its metrics read None.


def _hom_unknowns(args, kwargs):
    m, n = args[0], args[1]
    return sum(x * y for x, y in zip(m.dims, n.dims))


def _hom_after(extra, unknowns, result):
    extra["unknowns"] += unknowns
    extra["nonzero"] += bool(result)


def _iso_after(extra, _pre, result):
    extra["true"] += bool(result)


def _action_before(args, kwargs):
    module = args[0]
    if module._basis_action is not None:
        return 0
    return module.algebra.dim * module.total_dim ** 2


def _action_after(extra, cells, _result):
    if cells:
        extra["misses"] += 1
        extra["cells"] += cells


def _resolution_before(args, kwargs):
    module = args[0]
    return module.key() in module.algebra._resolutions


def _resolution_after(extra, hit, _result):
    extra["hits"] += hit


def _rref_cells(args, kwargs):
    return args[0].rows * args[0].cols


def _rref_after(extra, cells, _result):
    extra["cells"] += cells


def _knit_after(extra, _pre, result):
    extra["nodes"] += len(result.nodes)


def _calls(stat):
    return stat.calls


def _self_s(stat):
    return stat.self_s


def _ratio(key):
    def get(stat):
        return stat.extra[key] / stat.returned if stat.returned else 0.0
    return get


def _count(key):
    return lambda stat: stat.extra[key]


_TIME = {"self_s": _self_s}
_BASIC = {"calls": _calls, "self_s": _self_s}

# (module, qualified name, metrics, before, after, counter keys).
# A metric maps to a getter on the function's Stat; metric names follow
# "<module>.<qualified name>.<metric>".
TARGETS = [
    ("arquiver", "knit", {**_BASIC, "nodes": _count("nodes")},
     None, _knit_after, ("nodes",)),
    ("arquiver", "check_local_slice", _BASIC, None, None, ()),
    ("arquiver", "tilted_quotient", _TIME, None, None, ()),
    ("arquiver", "extend_cluster_tilted", _TIME, None, None, ()),
    ("repmod", "hom_basis",
     {**_BASIC, "unknowns": _count("unknowns"), "nonzero_ratio": _ratio("nonzero")},
     _hom_unknowns, _hom_after, ("unknowns", "nonzero")),
    ("repmod", "is_isomorphic",
     {**_BASIC, "true_ratio": _ratio("true")},
     None, _iso_after, ("true",)),
    ("repmod", "decompose", _BASIC, None, None, ()),
    ("repmod", "projective_cover", _BASIC, None, None, ()),
    ("repmod", "psum_map", _BASIC, None, None, ()),
    ("repmod", "Module.basis_action",
     {"calls": _calls, "misses": _count("misses"), "self_s": _self_s,
      "cells": _count("cells")},
     _action_before, _action_after, ("misses", "cells")),
    ("homology", "tau", _BASIC, None, None, ()),
    ("homology", "tau_inv", _BASIC, None, None, ()),
    ("homology", "transpose", _BASIC, None, None, ()),
    ("homology", "min_resolution",
     {**_BASIC, "hit_ratio": _ratio("hits")},
     _resolution_before, _resolution_after, ("hits",)),
    ("homology", "ext_dim", _BASIC, None, None, ()),
    ("homology", "lift_chain_map", _BASIC, None, None, ()),
    ("extensions", "one_point_extension", _BASIC, None, None, ()),
    ("extensions", "ext2_bimodule", _BASIC, None, None, ()),
    ("extensions", "relation_extension", _TIME, None, None, ()),
    ("extensions", "verify_extension_commutes", _TIME, None, None, ()),
    ("algebra", "build_algebra", _BASIC, None, None, ()),
    ("algebra", "quotient_algebra", _BASIC, None, None, ()),
    ("linalg", "rref", {**_BASIC, "cells": _count("cells")},
     _rref_cells, _rref_after, ("cells",)),
    ("linalg", "kernel_basis", _BASIC, None, None, ()),
    ("linalg", "solve", _BASIC, None, None, ()),
    ("linalg", "matmul", _BASIC, None, None, ()),
    ("linalg", "SpanTracker.add", _BASIC, None, None, ()),
    ("quiver", "parse_presentation", _BASIC, None, None, ()),
    ("quiver", "find_acyclic_in_mutation_class", _TIME, None, None, ()),
    ("quiver", "mutate_b_matrix", {"calls": _calls}, None, None, ()),
    ("quiver", "is_acyclic", {"calls": _calls}, None, None, ()),
]


def metric_names():
    """Every per-layer metric name, in TARGETS order."""
    return [f"{module}.{qualname}.{metric}"
            for module, qualname, metrics, *_ in TARGETS for metric in metrics]


class Stat:
    """Counters of one traced function over one traced pass."""

    def __init__(self, keys):
        self.calls = 0
        self.returned = 0
        self.self_ns = 0
        self.extra = dict.fromkeys(keys, 0)
        self.probe_missing = False

    @property
    def self_s(self):
        return self.self_ns / 1e9

    def counts(self):
        return (self.calls, self.returned, self.probe_missing,
                tuple(sorted(self.extra.items())))


class Tracer:
    """Span recorder shared by every wrapper of one traced process."""

    def __init__(self):
        self.names = [qualname for _, qualname, *_ in TARGETS]
        self.stats = None
        self.spans = None
        self.stack = None  # [span id, start ns, ns covered by children]
        self.active = False

    def begin_pass(self):
        """Start a fresh pass: new counters and an empty span list."""
        self.stats = {q: Stat(keys) for _, q, _, _, _, keys in TARGETS}
        self.spans = []
        self.stack = []
        self.active = True

    def end_pass(self):
        self.active = False
        if self.stack:
            raise RuntimeError("traced pass ended inside an open span")
        return self.stats, self.spans

    def wrap(self, name_id, fn, before, after):
        qualname = self.names[name_id]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            stat = self.stats[qualname]
            pre = None
            if before and not stat.probe_missing:
                try:
                    pre = before(args, kwargs)
                except AttributeError:
                    stat.probe_missing = True
            stack = self.stack
            span_id = len(self.spans) + len(stack)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                stat.calls += 1
                stat.self_ns += duration - frame[2]
                if stack:
                    stack[-1][2] += duration
                self.spans.append((span_id, name_id, frame[1], end, parent))
            stat.returned += 1
            if after and not stat.probe_missing:
                after(stat.extra, pre, result)
            return result

        return traced


def _resolve(module, qualname):
    """(owner, function) for a traced name; the function is None if absent."""
    owner = sys.modules.get(f"quiverkit.{module}")
    *path, name = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
    return owner, (vars(owner).get(name) if owner is not None else None)


def install(tracer):
    """Wrap every traced function; returns (absent qualnames, restore callable).

    A plain function is replaced in every loaded quiverkit module whose
    namespace binds it, so calls between layers are counted as well as calls
    from the benchmark.  A method is replaced on its class.
    """
    modules = [m for name, m in sys.modules.items()
               if name == "quiverkit" or name.startswith("quiverkit.")]
    patches = []
    absent = []
    for name_id, (module, qualname, _, before, after, _) in enumerate(TARGETS):
        owner, fn = _resolve(module, qualname)
        if not callable(fn):
            absent.append(qualname)
            continue
        wrapper = tracer.wrap(name_id, fn, before, after)
        if isinstance(owner, type):
            sites = [(owner, qualname.rsplit(".", 1)[1])]
        else:
            sites = [(m, attr) for m in modules
                     for attr, value in list(vars(m).items()) if value is fn]
        for site, attr in sites:
            patches.append((site, attr, fn))
            setattr(site, attr, wrapper)

    def restore():
        for site, attr, fn in reversed(patches):
            setattr(site, attr, fn)

    return absent, restore


def metrics(stats_by_pass, absent):
    """Per-layer metric values from one or more traced passes.

    Counts come from the first pass (the caller checks they repeat);
    ``self_s`` is the median over passes.  Functions that no longer exist
    report None, never 0.
    """
    out = {}
    first = stats_by_pass[0]
    for module, qualname, getters, *_ in TARGETS:
        for metric, get in getters.items():
            key = f"{module}.{qualname}.{metric}"
            if qualname in absent:
                out[key] = None
            elif metric == "self_s":
                out[key] = statistics.median(get(s[qualname]) for s in stats_by_pass)
            elif metric != "calls" and first[qualname].probe_missing:
                out[key] = None
            else:
                out[key] = get(first[qualname])
    return out

