"""Per-layer spans and counters, recorded by wrapping xcover's functions.

Each hook replaces a module attribute at the place where callers look it
up (``xcover.solvers.setcover_dp`` for the CLI, ``xcover.reductions.
tree_embed_backtrack`` for the partition-tree pipelines, ...), so nothing
in ``src/`` changes.  A span's self time is its duration minus the time of
the spans it encloses.  If a hook target has been renamed or removed, the
metrics of that layer are reported as null and a warning goes to stderr;
the untraced run never installs hooks.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

KERNELS = ("kernels.cover_optimum", "kernels.exact_cover_optimum",
           "kernels.ham_cycle", "kernels.colorful_trial_yes")
EMBEDDER = "solvers.tree_embed_backtrack"
STREAMS = ("reductions.ntree_stream", "reductions.ham_stream")


def _on_parse(count, layer, args, result):
    count[layer + ".bytes"] += len(args[0])


def _on_embed(count, layer, args, result):
    count[layer + ".explored"] += result.stats.get("explored", 0)
    count[layer + ".yes"] += result.answer == "yes"


def _on_dense(count, layer, args, result):
    n = args[1]
    count[layer + ".dense_states"] += 1 << n
    count[layer + ".n_max"] = max(count[layer + ".n_max"], n)


def _on_trial(count, layer, args, result):
    count[layer + ".hits"] += result >= 0


# layer -> (hook kind, "module:attribute" call sites, result observer)
HOOKS = {
    "instances.parse_instance": ("call", ["xcover.cli:parse_instance"], _on_parse),
    "reductions.ntree_stream": ("stream", ["xcover.reductions:ntree_to_setcover"], None),
    "reductions.ham_stream": ("stream", ["xcover.reductions:ham_to_setcover"], None),
    "reductions.build_host_graph": ("call", ["xcover.reductions:build_host_graph"], None),
    "reductions.preprocess": ("call", ["xcover.reductions:setcover_preprocess_large",
                                       "xcover.reductions:ppc_preprocess_large"], None),
    "reductions.pipeline": ("call", ["xcover.reductions:solve_setcover_via_ktree",
                                     "xcover.reductions:solve_ppc_via_ktree"], None),
    "partitions.partitions_with_length": (
        "generator", ["xcover.reductions:partitions_with_length"], None),
    EMBEDDER: ("call", ["xcover.solvers:tree_embed_backtrack",
                        "xcover.reductions:tree_embed_backtrack"], _on_embed),
    "solvers.setcover_dp": ("call", ["xcover.solvers:setcover_dp",
                                     "xcover.reductions:setcover_dp"], None),
    "solvers.ktree_colorcoding": ("call", ["xcover.solvers:ktree_colorcoding"], None),
    "solvers.other": ("call", ["xcover.solvers:exactcover_solve",
                               "xcover.solvers:exactcover_with_large_sets",
                               "xcover.solvers:partialcover_dp",
                               "xcover.solvers:heldkarp_ham"], None),
    "solvers.verify": ("call", ["xcover.solvers:verify_embedding",
                                "xcover.reductions:verify_cover"], None),
    "kernels.cover_optimum": ("call", ["xcover.kernels:cover_optimum"], _on_dense),
    "kernels.exact_cover_optimum": ("call", ["xcover.kernels:exact_cover_optimum"], _on_dense),
    "kernels.ham_cycle": ("call", ["xcover.kernels:ham_cycle"], None),
    "kernels.colorful_trial_yes": ("call", ["xcover.kernels:colorful_trial_yes"], _on_trial),
}


def _ratio(a, b):
    return a / b if b else 0.0


# (name, unit, better, layers it needs, value from the tracer)
LAYER_METRICS = [
    ("reductions.ntree_stream.s", "s", "lower", STREAMS[:1], lambda t: t.incl[STREAMS[0]]),
    ("reductions.ntree_stream.produced", "count", "lower", STREAMS[:1],
     lambda t: t.count[STREAMS[0] + ".produced"]),
    ("reductions.ham_stream.s", "s", "lower", STREAMS[1:], lambda t: t.incl[STREAMS[1]]),
    ("reductions.ham_stream.produced", "count", "lower", STREAMS[1:],
     lambda t: t.count[STREAMS[1] + ".produced"]),
    ("reductions.build_host_graph.s", "s", "lower", ["reductions.build_host_graph"],
     lambda t: t.incl["reductions.build_host_graph"]),
    ("reductions.build_host_graph.calls", "count", "lower", ["reductions.build_host_graph"],
     lambda t: t.count["reductions.build_host_graph.calls"]),
    ("reductions.preprocess.s", "s", "lower", ["reductions.preprocess"],
     lambda t: t.incl["reductions.preprocess"]),
    ("reductions.pipeline.self_s", "s", "lower", ["reductions.pipeline"],
     lambda t: t.self_time["reductions.pipeline"]),
    ("partitions.partitions_with_length.s", "s", "lower", ["partitions.partitions_with_length"],
     lambda t: t.incl["partitions.partitions_with_length"]),
    ("partitions.partitions_with_length.yielded", "count", "lower",
     ["partitions.partitions_with_length"],
     lambda t: t.count["partitions.partitions_with_length.yielded"]),
    ("solvers.tree_embed_backtrack.s", "s", "lower", [EMBEDDER], lambda t: t.incl[EMBEDDER]),
    ("solvers.tree_embed_backtrack.calls", "count", "lower", [EMBEDDER],
     lambda t: t.count[EMBEDDER + ".calls"]),
    ("solvers.tree_embed_backtrack.explored", "count", "lower", [EMBEDDER],
     lambda t: t.count[EMBEDDER + ".explored"]),
    ("solvers.tree_embed_backtrack.yes_ratio", "ratio", "higher", [EMBEDDER],
     lambda t: _ratio(t.count[EMBEDDER + ".yes"], t.count[EMBEDDER + ".calls"])),
    ("solvers.setcover_dp.self_s", "s", "lower", ["solvers.setcover_dp"],
     lambda t: t.self_time["solvers.setcover_dp"]),
    ("solvers.setcover_dp.calls", "count", "lower", ["solvers.setcover_dp"],
     lambda t: t.count["solvers.setcover_dp.calls"]),
    ("solvers.ktree_colorcoding.self_s", "s", "lower", ["solvers.ktree_colorcoding"],
     lambda t: t.self_time["solvers.ktree_colorcoding"]),
    ("solvers.other.self_s", "s", "lower", ["solvers.other"],
     lambda t: t.self_time["solvers.other"]),
    ("solvers.verify.s", "s", "lower", ["solvers.verify"], lambda t: t.incl["solvers.verify"]),
    ("solvers.verify.calls", "count", "lower", ["solvers.verify"],
     lambda t: t.count["solvers.verify.calls"]),
    ("kernels.cover_optimum.s", "s", "lower", KERNELS[:1], lambda t: t.incl[KERNELS[0]]),
    ("kernels.cover_optimum.calls", "count", "lower", KERNELS[:1],
     lambda t: t.count[KERNELS[0] + ".calls"]),
    ("kernels.cover_optimum.n_max", "elements", "lower", KERNELS[:1],
     lambda t: t.count[KERNELS[0] + ".n_max"]),
    ("kernels.cover_optimum.dense_states", "states", "lower", KERNELS[:1],
     lambda t: t.count[KERNELS[0] + ".dense_states"]),
    ("kernels.exact_cover_optimum.s", "s", "lower", KERNELS[1:2], lambda t: t.incl[KERNELS[1]]),
    ("kernels.exact_cover_optimum.calls", "count", "lower", KERNELS[1:2],
     lambda t: t.count[KERNELS[1] + ".calls"]),
    ("kernels.exact_cover_optimum.dense_states", "states", "lower", KERNELS[1:2],
     lambda t: t.count[KERNELS[1] + ".dense_states"]),
    ("kernels.ham_cycle.s", "s", "lower", KERNELS[2:3], lambda t: t.incl[KERNELS[2]]),
    ("kernels.ham_cycle.calls", "count", "lower", KERNELS[2:3],
     lambda t: t.count[KERNELS[2] + ".calls"]),
    ("kernels.colorful_trial_yes.s", "s", "lower", KERNELS[3:], lambda t: t.incl[KERNELS[3]]),
    ("kernels.colorful_trial_yes.calls", "count", "lower", KERNELS[3:],
     lambda t: t.count[KERNELS[3] + ".calls"]),
    ("kernels.colorful_trial_yes.hit_ratio", "ratio", "higher", KERNELS[3:],
     lambda t: _ratio(t.count[KERNELS[3] + ".hits"], t.count[KERNELS[3] + ".calls"])),
    ("instances.parse_instance.s", "s", "lower", ["instances.parse_instance"],
     lambda t: t.incl["instances.parse_instance"]),
    ("instances.parse_instance.bytes", "bytes", "lower", ["instances.parse_instance"],
     lambda t: t.count["instances.parse_instance.bytes"]),
    ("cli.self_s", "s", "lower", [], lambda t: t.self_time["cli"]),
    ("queries.reached_embedder", "count", "higher", [EMBEDDER],
     lambda t: t.count["queries.reached_embedder"]),
    ("queries.reached_kernel", "count", "higher", KERNELS,
     lambda t: t.count["queries.reached_kernel"]),
    ("share.reductions_stream", "%", "lower", STREAMS,
     lambda t: 100 * _ratio(sum(t.incl[x] for x in STREAMS), t.incl["cli"])),
    ("share.tree_embed_backtrack", "%", "lower", [EMBEDDER],
     lambda t: 100 * _ratio(t.incl[EMBEDDER], t.incl["cli"])),
    ("share.kernels", "%", "lower", KERNELS,
     lambda t: 100 * _ratio(sum(t.incl[x] for x in KERNELS), t.incl["cli"])),
]


class Tracer:
    """Installs the hooks, keeps the span stack and the per-layer totals."""

    def __init__(self, hooks=None):
        self.stack = []  # [layer, seconds of enclosed spans, start]
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.count = Counter()
        self.missing = {}  # layer -> reason
        self._patches = []  # (module, attribute, original, wrapper)
        for layer, (kind, sites, observe) in (hooks or HOOKS).items():
            targets = []
            for site in sites:
                module_name, attr = site.split(":")
                fn = getattr(importlib.import_module(module_name), attr, None)
                if not callable(fn):
                    self.missing[layer] = f"hook target {site} not found"
                    sys.stderr.write(f"warning: {site} not found; {layer} metrics are null\n")
                    break
                targets.append((sys.modules[module_name], attr, fn))
            else:
                self._patches += [(module, attr, fn, self._wrap(layer, kind, fn, observe))
                                  for module, attr, fn in targets]

    def _enter(self, layer):
        self.stack.append([layer, 0.0, perf_counter()])

    def _leave(self):
        layer, inner, start = self.stack.pop()
        took = perf_counter() - start
        self.incl[layer] += took
        self.self_time[layer] += took - inner
        if self.stack:
            self.stack[-1][1] += took

    def _timed_iter(self, layer, it, counter):
        while True:
            self._enter(layer)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self._leave()
            self.count[counter] += 1
            yield item

    def _wrap(self, layer, kind, fn, observe):
        def traced(*args, **kwargs):
            self.count[layer + ".calls"] += 1
            if kind == "generator":
                return self._timed_iter(layer, fn(*args, **kwargs), layer + ".yielded")
            self._enter(layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave()
            if kind == "stream":
                result.produced = self._timed_iter(layer, result.produced, layer + ".produced")
            if observe is not None:
                observe(self.count, layer, args, result)
            return result

        return traced

    def install(self):
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self):
        for module, attr, fn, _ in self._patches:
            setattr(module, attr, fn)

    def query(self, run):
        """Call ``run()`` as one traced query and note which layers it reached."""
        before = (self.count[EMBEDDER + ".calls"], sum(self.count[k + ".calls"] for k in KERNELS))
        self._enter("cli")
        try:
            return run()
        finally:
            self._leave()
            self.count["queries.reached_embedder"] += self.count[EMBEDDER + ".calls"] > before[0]
            self.count["queries.reached_kernel"] += sum(
                self.count[k + ".calls"] for k in KERNELS) > before[1]

    def metrics(self):
        """{name: (value or None, unit)} for every layer metric."""
        out = {}
        for name, unit, _, layers, value in LAYER_METRICS:
            out[name] = (None if any(x in self.missing for x in layers) else value(self), unit)
        return out
