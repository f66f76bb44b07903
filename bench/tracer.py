"""Layer tracing from outside the program.

A Tracer wraps the public functions of ``intruder``'s modules in every
``intruder.*`` namespace that binds them (``from .x import f`` copies the
binding, so wrapping the defining module alone would miss most calls).  Each
call becomes a span with a parent, the span that was open when it started;
a span's self time is its duration minus the time of its child spans.
Spans are folded into per-name and per-(parent, name) totals as they end,
so memory stays flat however many calls a pass makes.

Use one Tracer per traced pass:

    with Tracer() as tr:
        ...           # calls into intruder
    tr.metrics()      # the per-layer figures of that pass
"""
from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

# span name -> (module, public function) for plain spans
PLAIN = {
    "terms.parse_term": ("terms", "parse_term"),
    "terms.variables": ("terms", "variables"),
    "rewriting.normalize": ("rewriting", "normalize"),
    "elementary.replay": ("elementary", "replay"),
    "engine.right_deduce": ("engine", "right_deduce"),
    "proofs.find_error": ("proofs", "find_error"),
    "proofs.linear_to_seq": ("proofs", "linear_to_seq"),
    "proofs.seq_to_nd": ("proofs", "seq_to_nd"),
    "proofs.nd_to_seq": ("proofs", "nd_to_seq"),
    "constraints.solve": ("constraints", "solve"),
    "constraints.system_measure": ("constraints", "system_measure"),
    "constraints.verify_solution": ("constraints", "verify_solution"),
    "cli.main": ("cli", "main"),
}
BACKENDS = ("empty", "xor", "ag", "ac")

# (name, unit) of every per-layer figure, in report order
METRICS = (
    ("terms.parse_term.calls", "count"), ("terms.parse_term.self_s", "s"),
    ("terms.variables.calls", "count"), ("terms.variables.self_s", "s"),
    ("terms.intern_size", "count"),
    ("rewriting.normalize.calls", "count"), ("rewriting.normalize.self_s", "s"),
    ("rewriting.match_cache.hits", "count"), ("rewriting.match_cache.misses", "count"),
    ("elementary.elem_deduce.calls", "count"), ("elementary.elem_deduce.hit_ratio", "ratio"),
    ("elementary.empty.self_s", "s"), ("elementary.xor.self_s", "s"),
    ("elementary.ag.self_s", "s"), ("elementary.ac.self_s", "s"),
    ("elementary.replay.calls", "count"), ("elementary.replay.self_s", "s"),
    ("engine.deduce.calls", "count"), ("engine.deduce.self_s", "s"),
    ("engine.left_steps", "count"), ("engine.elem_calls_per_step", "ratio"),
    ("engine.right_deduce.calls", "count"), ("engine.right_deduce.self_s", "s"),
    ("proofs.find_error.calls", "count"), ("proofs.find_error.self_s", "s"),
    ("proofs.check_over_deduce", "ratio"),
    ("proofs.linear_to_seq.self_s", "s"), ("proofs.seq_to_nd.self_s", "s"),
    ("proofs.nd_to_seq.self_s", "s"), ("proofs.loads.self_s", "s"),
    ("proofs.dumps.self_s", "s"), ("proofs.json_bytes", "bytes"),
    ("constraints.solve.calls", "count"), ("constraints.solve.self_s", "s"),
    ("constraints.successors.calls", "count"), ("constraints.edges", "count"),
    ("constraints.system_measure.calls", "count"),
    ("constraints.system_measure.self_s", "s"),
    ("constraints.verify_solution.self_s", "s"),
    ("cli.main.self_s", "s"),
)
# figures that must repeat exactly for the same seed
DETERMINISTIC = tuple(n for n, _ in METRICS
                      if n.endswith(".calls") or n in (
                          "engine.left_steps", "proofs.json_bytes",
                          "constraints.edges", "terms.intern_size"))


def _left_steps(proof) -> int:
    """Left-rule nodes on the one branch of a linear (L) derivation."""
    n = 0
    while proof is not None:
        if proof.rule != "r":
            n += 1
        proof = proof.premises[0] if proof.premises else None
    return n


class Tracer:
    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)   # inclusive
        self.edges: defaultdict = defaultdict(lambda: [0, 0.0])  # (parent, span)
        self.counts: Counter = Counter()
        self._active: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    # --- spans -------------------------------------------------------------

    def _enter(self, span: str) -> list:
        frame = [span, 0.0, time.perf_counter()]
        self._stack.append(frame)
        self._active[span] += 1
        return frame

    def _exit(self, frame: list) -> None:
        dt = time.perf_counter() - frame[2]
        self._stack.pop()
        span = frame[0]
        self._active[span] -= 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        self.self_s[span] += dt - frame[1]
        self.total_s[span] += dt
        edge = self.edges[(parent[0] if parent else None, span)]
        edge[0] += 1
        edge[1] += dt

    def _plain(self, span: str, fn, after=None):
        def traced(*args, **kwargs):
            self.calls[span] += 1
            frame = self._enter(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(frame)
            if after is not None:
                after(args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _elem_deduce(self, fn):
        # one span per backend: the decision plus the sort and abstraction
        # around it, minus the normalize calls it makes
        def traced(theory, *args, **kwargs):
            self.calls["elementary.elem_deduce"] += 1
            if self._active["engine.deduce"]:
                self.counts["elem_in_deduce"] += 1
            frame = self._enter(f"elementary.{theory.backend}")
            try:
                result = fn(theory, *args, **kwargs)
            finally:
                self._exit(frame)
            if result is not None:
                self.counts["elem_hits"] += 1
            return result
        traced.__wrapped__ = fn
        return traced

    def _successors(self, fn):
        # a generator: time each step of it, count the edges it yields
        span = "constraints.successors"

        def traced(*args, **kwargs):
            self.calls[span] += 1
            it = fn(*args, **kwargs)
            while True:
                frame = self._enter(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.counts["edges"] += 1
                yield item
        traced.__wrapped__ = fn
        return traced

    def _after_deduce(self, args, proof) -> None:
        if proof is not None:
            self.counts["left_steps"] += _left_steps(proof)

    def _after_loads(self, args, result) -> None:
        self.counts["json_bytes"] += len(args[0])

    def _after_dumps(self, args, text) -> None:
        self.counts["json_bytes"] += len(text)

    # --- installation --------------------------------------------------------

    def __enter__(self):
        mods = {n: sys.modules[f"intruder.{n}"] for n in
                ("terms", "rewriting", "elementary", "engine", "proofs",
                 "constraints", "cli")}
        e, p, c = mods["engine"], mods["proofs"], mods["constraints"]
        wrappers = [self._plain(span, getattr(mods[mod], fn_name))
                    for span, (mod, fn_name) in PLAIN.items()]
        wrappers += [self._plain("engine.deduce", e.deduce, self._after_deduce),
                     self._plain("proofs.loads", p.loads, self._after_loads),
                     self._plain("proofs.dumps", p.dumps, self._after_dumps),
                     self._successors(c.successors),
                     self._elem_deduce(mods["elementary"].elem_deduce)]
        by_id = {id(w.__wrapped__): w for w in wrappers}
        for name, mod in list(sys.modules.items()):
            if name != "intruder" and not name.startswith("intruder."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None and wrapper.__wrapped__ is value:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))
        terms = mods["terms"]
        self._intern = terms._intern
        self._intern_before = len(terms._intern)
        self._cache_info = mods["rewriting"]._match_cached.cache_info
        self._cache_before = self._cache_info()
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        self.counts["intern_size"] = len(self._intern) - self._intern_before
        after = self._cache_info()
        self.counts["cache_hits"] = after.hits - self._cache_before.hits
        self.counts["cache_misses"] = after.misses - self._cache_before.misses

    # --- figures ---------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        out: dict[str, float] = {}
        for span in list(PLAIN) + ["engine.deduce", "proofs.loads", "proofs.dumps",
                                   "constraints.successors", "elementary.elem_deduce"]:
            out[f"{span}.calls"] = self.calls[span]
            out[f"{span}.self_s"] = self.self_s[span]
        for b in BACKENDS:
            out[f"elementary.{b}.self_s"] = self.self_s[f"elementary.{b}"]
        elem = self.calls["elementary.elem_deduce"]
        out["elementary.elem_deduce.hit_ratio"] = self.counts["elem_hits"] / elem if elem else 0.0
        steps = self.counts["left_steps"]
        out["engine.left_steps"] = steps
        out["engine.elem_calls_per_step"] = (self.counts["elem_in_deduce"] / steps
                                             if steps else 0.0)
        deduce_s = self.total_s["engine.deduce"]
        out["proofs.check_over_deduce"] = (self.total_s["proofs.find_error"] / deduce_s
                                           if deduce_s else 0.0)
        out["proofs.json_bytes"] = self.counts["json_bytes"]
        out["constraints.edges"] = self.counts["edges"]
        out["terms.intern_size"] = self.counts["intern_size"]
        out["rewriting.match_cache.hits"] = self.counts["cache_hits"]
        out["rewriting.match_cache.misses"] = self.counts["cache_misses"]
        return {name: out[name] for name, _ in METRICS}

    def call_graph(self) -> list[tuple[str, str, int, float]]:
        """(parent, span, calls, inclusive seconds), heaviest first."""
        rows = [(parent or "-", span, n, s) for (parent, span), (n, s) in self.edges.items()]
        return sorted(rows, key=lambda r: -r[3])
