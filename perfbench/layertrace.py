"""Span tracing of the fscoloring layers, installed from outside the package.

Every public function and every public method (plus ``__call__``) of the
eight layer modules is replaced, for the duration of a traced pass, by a
wrapper that records one span per call: name, start, end and parent span.
Names that modules import from each other (``delta3.color_parity``,
``pi3.color_mod``, ``harness.validate_family``, ...) are patched in every
namespace that binds them, and methods are patched on their class, so a
call is traced whichever way the library reaches it.  Spans live in flat
arrays in memory and are written out once, when the run ends.  Self time
(span time minus the time its child spans cover) is summed per name as
spans close.

Nothing under ``src/`` changes: the benchmark applies the wrappers and
``Tracer.uninstall`` removes them again.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("dyadic", "treecolor", "families", "delta3", "pi3", "apartness", "harness", "cli")
IN_VERIFY = "/verify"    # suffix of harness spans opened inside harness.verify_report


class Tracer:
    """In-memory span store plus the patches that feed it."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.own = []               # self seconds, by name id
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]           # open spans; -1 is the root
        self.child = [0.0]          # time covered by children, per open span
        self.counts = Counter()     # work counts taken from call arguments and results
        self.tags = []              # (kind, span index, engine) recorded by hooks
        self._patches = []

    def _id(self, name):
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.own.append(0.0)
        return nid

    def reset(self):
        """Drop every span and count recorded so far (patches stay)."""
        for column in (self.name, self.parent, self.start, self.end):
            del column[:]
        self.own[:] = [0.0] * len(self.own)
        del self.stack[1:]
        self.child[:] = [0.0]
        self.counts.clear()
        self.tags.clear()

    def wrap(self, name, fn, *, classify=None, before=None, after=None):
        """A traced version of fn.

        classify(args) picks the span name per call; before(args, index)
        may return replacement args; after(result, args) may return a
        replacement result.  Generator functions get one span per resumption.
        """
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, child, own = self.stack, self.child, self.own
        clock = time.perf_counter
        fixed = self._id(name)

        def open_span(nid):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            child.append(0.0)
            starts.append(clock())
            ends.append(0.0)
            return idx

        def close_span(idx, nid):
            end = clock()
            ends[idx] = end
            stack.pop()
            spent = end - starts[idx]
            own[nid] += spent - child.pop()
            child[-1] += spent

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                if before is not None:
                    args = before(args, len(starts))
                inner = fn(*args, **kwargs)
                try:
                    while True:
                        idx = open_span(fixed)
                        try:
                            value = next(inner)
                        except StopIteration:
                            return
                        finally:
                            close_span(idx, fixed)
                        yield value
                finally:
                    inner.close()
            return traced_gen

        if classify is None and before is None and after is None:
            # The hot path, with the span bookkeeping inlined.
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = len(starts)
                names.append(fixed)
                parents.append(stack[-1])
                stack.append(idx)
                child.append(0.0)
                starts.append(clock())
                ends.append(0.0)
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    ends[idx] = end
                    stack.pop()
                    spent = end - starts[idx]
                    own[fixed] += spent - child.pop()
                    child[-1] += spent
            return traced

        @functools.wraps(fn)
        def traced_hooked(*args, **kwargs):
            nid = self._id(classify(args)) if classify is not None else fixed
            idx = open_span(nid)
            try:
                if before is not None:
                    args = before(args, idx)
                result = fn(*args, **kwargs)
                if after is not None:
                    result = after(result, args)
                return result
            finally:
                close_span(idx, nid)
        return traced_hooked

    # -- installing and removing the patches --------------------------------

    def install(self):
        """Patch every layer's public functions and methods."""
        modules = {layer: importlib.import_module("fscoloring." + layer) for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("fscoloring")]
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == module.__name__:
                    traced = self._traced("%s.%s" % (layer, attr), value)
                    for namespace in namespaces:
                        for bound, other in list(vars(namespace).items()):
                            if other is value:
                                self._patch(namespace, bound, traced)
                elif inspect.isclass(value) and value.__module__ == module.__name__:
                    for method, member in list(vars(value).items()):
                        if method.startswith("_") and method != "__call__":
                            continue
                        name = "%s.%s.%s" % (layer, value.__name__, method)
                        if isinstance(member, (classmethod, staticmethod)):
                            self._patch(value, method, type(member)(self._traced(name, member.__func__)))
                        elif inspect.isfunction(member):
                            self._patch(value, method, self._traced(name, member))

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr], value))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, original, _traced in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    @contextlib.contextmanager
    def paused(self):
        """Run a block untraced: the benchmark's own output checks."""
        patches = list(self._patches)
        self.uninstall()
        try:
            yield
        finally:
            for owner, attr, _original, traced in patches:
                setattr(owner, attr, traced)
            self._patches.extend(patches)

    def _traced(self, name, fn):
        """fn wrapped, with the hooks that turn arguments and results into counts."""
        counts, tags, stack, span_name = self.counts, self.tags, self.stack, self.name

        def signed_count_kind(args):
            kind = "factored" if getattr(args[0], "tri", None) is not None else "generic"
            return "treecolor.signed_count." + kind

        def tree_vertices(args, idx):
            counts["treecolor.tree_edges.vertices"] += 1 << args[0]
            return args

        def report_bytes(result, args):
            counts["harness.report.bytes"] += len(result.encode("utf-8"))
            return result

        def counted_color(args, idx):
            color = args[0]

            def counting(w):
                counts["harness.search.color_calls"] += 1
                return color(w)
            return (counting,) + tuple(args[1:])

        def counted_stream(args, idx):
            def counting(stream):
                for value in stream:
                    counts["apartness.extract.stream_elements"] += 1
                    yield value
            return (counting(args[0]),) + tuple(args[1:])

        def traced_product(result, args):
            return self.wrap("apartness.product.color", result)

        def engine_tag(args, idx):
            # The engine itself, not its id: ids of collected engines get reused.
            tags.append(("base_count", idx, args[0]))
            return args

        def request_tag(args, idx):
            tags.append(("request", idx, None))
            return args

        def chain_links(result, args):
            counts["pi3.chain.links"] += max(len(result.elements) - 1, 0)
            return result

        hooks = {
            "treecolor.signed_count": {"classify": signed_count_kind},
            "treecolor.tree_edges": {"before": tree_vertices},
            "harness.render_report": {"after": report_bytes},
            "harness.search_mono": {"before": counted_color},
            "apartness.extract_apart": {"before": counted_stream},
            "apartness.product": {"after": traced_product},
            "pi3.Pi3Engine.base_count": {"before": engine_tag},
            "pi3.build_chain": {"after": chain_links},
            "delta3.request_at_stages": {"before": request_tag},
        }.get(name, {})
        if name.startswith("harness.") and name != "harness.verify_report":
            # Harness work inside verify_report is verification, the rest is finding.
            verify_id = self._id("harness.verify_report")

            def harness_kind(args):
                for open_idx in stack[1:]:
                    if span_name[open_idx] == verify_id:
                        return name + IN_VERIFY
                return name
            hooks["classify"] = harness_kind
        return self.wrap(name, fn, **hooks)

    # -- derived metrics ----------------------------------------------------

    def layer_metrics(self):
        """Per-layer counts and self times, keyed by metric name."""
        names, total = self.names, len(self.name)
        calls = Counter()
        for nid, number in Counter(self.name).items():
            calls[names[nid]] = number

        def count(*wanted):
            return sum(calls[n] for n in wanted)

        def self_time(predicate):
            return sum(own for name, own in zip(names, self.own) if predicate(name))

        def layer(prefix):
            return lambda name: name.split(".", 1)[0] == prefix

        def ratio(part, whole):
            return part / whole if whole else 0.0

        def first_child(idx):
            """Name of the first span opened inside span idx, or None."""
            nxt = idx + 1
            if nxt < total and self.parent[nxt] == idx:
                return names[self.name[nxt]]
            return None

        base_misses = Counter()
        request_misses = 0
        for kind, idx, engine in self.tags:
            child = first_child(idx)
            if kind == "base_count" and child is not None:
                base_misses[engine] += 1
            elif kind == "request" and child == "delta3.chooser_at_stages":
                request_misses += 1
        base_calls = count("pi3.Pi3Engine.base_count")
        request_calls = count("delta3.request_at_stages")

        return {
            "dyadic.calls": (sum(n for name, n in calls.items() if name.startswith("dyadic.")), "count"),
            "dyadic.self_s": (self_time(layer("dyadic")), "s"),
            "treecolor.factored.calls": (count("treecolor.signed_count.factored"), "count"),
            "treecolor.factored.self_s": (self_time(lambda n: n == "treecolor.signed_count.factored"), "s"),
            "treecolor.generic.calls": (count("treecolor.signed_count.generic"), "count"),
            "treecolor.generic.self_s": (self_time(lambda n: n == "treecolor.signed_count.generic"), "s"),
            "treecolor.request.evals": (count("treecolor.RequestFunction.__call__",
                                              "treecolor.TriRequestFunction.__call__"), "count"),
            "treecolor.tree_edges.vertices": (self.counts["treecolor.tree_edges.vertices"], "count"),
            "treecolor.tree_edges.self_s": (self_time(lambda n: n == "treecolor.tree_edges"), "s"),
            "treecolor.self_s": (self_time(layer("treecolor")), "s"),
            "families.evaluate.calls": (count("families.Delta3Family.evaluate",
                                              "families.MonotoneFamily.evaluate"), "count"),
            "families.contains.calls": (count("families.SetSpec.contains"), "count"),
            "families.block_members.calls": (count("families.Delta3Family.block_members",
                                                   "families.MonotoneFamily.block_members"), "count"),
            "families.block_min.calls": (count("families.MonotoneFamily.block_min"), "count"),
            "families.validate.self_s": (self_time(lambda n: n == "families.validate_family"), "s"),
            "families.self_s": (self_time(layer("families")), "s"),
            "delta3.block_indicator.calls": (count("delta3.block_indicator"), "count"),
            "delta3.candidate_set.calls": (count("delta3.candidate_set"), "count"),
            "delta3.request.calls": (request_calls, "count"),
            "delta3.request.miss_ratio": (ratio(request_misses, request_calls), "ratio"),
            "delta3.self_s": (self_time(layer("delta3")), "s"),
            "pi3.stage_index.calls": (count("pi3.StageTable.index"), "count"),
            "pi3.guess.calls": (count("pi3.guess_element", "pi3.guess_bound"), "count"),
            "pi3.chain.links": (self.counts["pi3.chain.links"], "count"),
            "pi3.base_count.calls": (base_calls, "count"),
            "pi3.base_count.miss_ratio": (ratio(sum(base_misses.values()), base_calls), "ratio"),
            "pi3.base_count.entries": (max(base_misses.values(), default=0), "count"),
            "pi3.self_s": (self_time(layer("pi3")), "s"),
            "apartness.extract.stream_elements": (self.counts["apartness.extract.stream_elements"], "count"),
            "apartness.extract.self_s": (self_time(lambda n: n == "apartness.extract_apart"), "s"),
            "apartness.product.calls": (count("apartness.product.color"), "count"),
            "apartness.self_s": (self_time(layer("apartness")), "s"),
            "harness.find.self_s": (self_time(lambda n: layer("harness")(n) and not (
                n.endswith(IN_VERIFY) or n == "harness.verify_report")), "s"),
            "harness.verify.self_s": (self_time(lambda n: n.endswith(IN_VERIFY)
                                                or n == "harness.verify_report"), "s"),
            "harness.report.bytes": (self.counts["harness.report.bytes"], "bytes"),
            "harness.search.color_calls": (self.counts["harness.search.color_calls"], "count"),
            "cli.self_s": (self_time(layer("cli")), "s"),
            "trace.spans": (total, "count"),
        }

    def write(self, path, **about):
        """Write the spans: a JSON header line, then the four raw columns."""
        header = {
            **about,
            "names": self.names,
            "spans": len(self.name),
            "columns": [["name", "i"], ["parent", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as handle:
            handle.write((json.dumps(header) + "\n").encode("utf-8"))
            for column in (self.name, self.parent, self.start, self.end):
                column.tofile(handle)
