"""Per-layer spans and counts, taken from outside lpict.

lpict imports functions by name, so each function is wrapped where its
caller looks it up (for example `lpict.analysis.search_forward_chain`, not
only `lpict.logic.search.search_forward_chain`). A span records its name,
start, end, parent and operation id; spans stay in memory until the run
ends. A span's self time is its duration minus the time of its child spans;
every `_ms` metric sums the self times of its functions, scaled by host
speed (see run.HostSpeed), so the layers partition the time of an
operation.
"""

from __future__ import annotations

import functools
import json
import time

# (module, attribute) where a caller looks the function up. The span is
# named after the function.
WRAPPED = [
    ("lpict.cli", "run_cli"),
    ("lpict.cli", "build_dual_report"),
    ("lpict.cli", "build_single_report"),
    ("lpict.cli", "render_report"),
    ("lpict.cli", "load_model"),
    ("lpict.cli", "dual_environment_verdict"),
    ("lpict.cli", "analyze_protocol"),
    ("lpict.cli", "entailment_judgment"),
    ("lpict.cli", "check_proof"),
    ("lpict.cli", "parse_process"),
    ("lpict.cli", "pretty_print"),
    ("lpict.cli", "reduce_step"),
    ("lpict.analysis", "analyze_protocol"),
    ("lpict.analysis", "apply_environment"),
    ("lpict.analysis", "build_state_tree"),
    ("lpict.analysis", "chain_states"),
    ("lpict.analysis", "partial_order_check"),
    # report.py and cli.py import these two inside functions, from lpict.analysis.
    ("lpict.analysis", "entailment_judgment"),
    ("lpict.analysis", "entailment_sequent"),
    ("lpict.analysis", "eval_event_tree"),
    ("lpict.analysis", "event_leaves"),
    ("lpict.analysis", "bfs_traverse"),
    ("lpict.analysis", "kmp_match"),
    ("lpict.analysis", "search_forward_chain"),
    ("lpict.analysis", "search_contradiction"),
    ("lpict.analysis", "check_proof"),
    ("lpict.logic.search", "search_forward_chain"),
    ("lpict.logic.search", "search_contradiction"),
    ("lpict.logic.search", "check_proof"),
    ("lpict.logic.search", "semantic_entails"),
    ("lpict.logic.semantics", "semantic_entails"),
    ("lpict.guarded", "search_forward_chain"),
    ("lpict.guarded", "semantic_entails"),
    ("lpict.guarded", "check_precondition"),
    ("lpict.pi.reduction", "standard_form"),
    ("lpict.pi.reduction", "normalize"),
    ("lpict.pi.congruence", "normalize"),
    ("lpict.pi.congruence", "structurally_congruent"),
]

# Per-layer time metrics: the functions whose self time each one sums.
TIME_METRICS = {
    "cli.self_ms": ("run_cli",),
    "report.build_ms": ("build_dual_report", "build_single_report"),
    "report.render_ms": ("render_report",),
    "models.load_ms": ("load_model", "builtin_tls13", "builtin_dh"),
    "models.environment_ms": ("apply_environment",),
    "analysis.chain_ms": ("chain_states", "build_state_tree"),
    "analysis.walk_ms": ("analyze_protocol",),
    "analysis.partial_order_ms": ("partial_order_check",),
    "analysis.entailment_ms": ("entailment_judgment", "entailment_sequent"),
    "guarded.lookup_ms": ("GuardedLTS.state", "GuardedLTS.outgoing"),
    "guarded.precondition_ms": ("check_precondition",),
    "trees.eval_ms": ("eval_event_tree", "event_leaves", "bfs_traverse"),
    "kmp.match_ms": ("kmp_match",),
    "logic.search_ms": ("search_forward_chain", "search_contradiction"),
    "logic.check_ms": ("check_proof",),
    "logic.semantic_ms": ("semantic_entails",),
    "pi.parse_ms": ("parse_process",),
    "pi.print_ms": ("pretty_print",),
    "pi.normalize_ms": ("normalize",),
    "pi.standard_form_ms": ("standard_form",),
    "pi.reduce_ms": ("reduce_step",),
    "pi.congruence_ms": ("structurally_congruent",),
}

# Per-layer counts: the functions whose calls each one counts.
CALL_METRICS = {
    "analysis.entailment_calls": ("entailment_judgment",),
    "guarded.lookup_calls": ("GuardedLTS.state", "GuardedLTS.outgoing"),
    "pi.standard_form_calls": ("standard_form",),
}

UNITS = {
    **{name: "ms" for name in TIME_METRICS},
    **{name: "count" for name in CALL_METRICS},
    "logic.proof_lines": "count",
    "logic.valuations": "count",
    "pi.successors": "count",
    "pi.free_names_calls": "count",
    "pi.reduce_yield": "ratio",
}


class Tracer:
    def __init__(self, modules):
        """Wrap lpict's functions in `modules` (name -> module object)."""
        self.spans = []  # [name, start_ns, end_ns, parent index, op id]
        self.stack = []
        self.op = 0
        self.counts = {"logic.proof_lines": 0, "logic.valuations": 0, "pi.successors": 0, "pi.free_names_calls": 0}
        after = {
            "search_forward_chain": self._count_lines,
            "search_contradiction": self._count_lines,
            "reduce_step": self._count_successors,
        }
        wrapped = {}
        for mod_name, attr in WRAPPED:
            fn = getattr(modules[mod_name], attr)
            if fn not in wrapped:
                wrapped[fn] = self._span(fn, fn.__name__, after.get(attr))
            setattr(modules[mod_name], attr, wrapped[fn])
        lts = modules["lpict.guarded"].GuardedLTS
        for attr in ("state", "outgoing"):
            setattr(lts, attr, self._span(getattr(lts, attr), f"GuardedLTS.{attr}"))
        builtins = modules["lpict.models"].BUILTIN_MODELS  # the dict cli.py reads
        for key, ctor in list(builtins.items()):
            builtins[key] = self._span(ctor, ctor.__name__)
        congruence = modules["lpict.pi.congruence"]
        congruence.free_names = self._counted(congruence.free_names, "pi.free_names_calls")
        semantics = modules["lpict.logic.semantics"]
        semantics.all_valuations = self._counted_items(semantics.all_valuations, "logic.valuations")

    def _span(self, fn, name, after=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, clock(), 0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_items(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[key] += 1
                yield item

        return wrapper

    def _count_lines(self, proof):
        if proof is not None:
            self.counts["logic.proof_lines"] += len(proof)

    def _count_successors(self, successors):
        self.counts["pi.successors"] += len(successors)

    def metrics(self, scales):
        """Every per-layer metric, per operation. `scales[i]` is the host
        speed scale of operation i + 1; self times are scaled by it."""
        ops = len(scales)
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_ns, calls = {}, {}
        for i, (name, start, end, _, op) in enumerate(self.spans):
            self_ns[name] = self_ns.get(name, 0) + (end - start - child[i]) * scales[op - 1]
            calls[name] = calls.get(name, 0) + 1
        out = {}
        for metric, names in TIME_METRICS.items():
            out[metric] = sum(self_ns.get(n, 0) for n in names) / 1e6 / ops
        for metric, names in CALL_METRICS.items():
            out[metric] = sum(calls.get(n, 0) for n in names) / ops
        for key, total in self.counts.items():
            out[key] = total / ops
        in_reduce = self._calls_under("standard_form", "reduce_step")
        out["pi.reduce_yield"] = self.counts["pi.successors"] / in_reduce if in_reduce else 0.0
        return out

    def _calls_under(self, name, ancestor):
        spans, n = self.spans, 0
        for rec in spans:
            if rec[0] != name:
                continue
            parent = rec[3]
            while parent >= 0 and spans[parent][0] != ancestor:
                parent = spans[parent][3]
            n += parent >= 0
        return n

    def dump(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(header, fh)
            fh.write("\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
