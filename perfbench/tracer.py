"""Traced run: wraps the public function each layer exposes where the code
looks it up, keeps spans in memory, and turns them into per-layer metrics.

The CLI reaches every layer through names bound in `memlab.cli`, and the
adversary host reaches its answer function through `memlab.adversary`, so
rebinding those globals for the length of a traced pass sees every call.
"""
from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# memlab.cli global -> span name; the layer is the part before the dot.
CLI_SPANS = {
    "generate_valid_input": "game_core.generate",
    "matches_of": "game_core.matches",
    "multi_pass_play": "strategies.play",
    "adversarial_play": "adversary.play",
    "involution_audit": "adversary.audit",
    "y_tail_estimate": "analysis.tail",
    "unique_pairs_mc": "analysis.unique_mc",
    "unique_pairs_expected_enumerated": "analysis.unique_enum",
    "compile_prefix_tree": "trees.compile",
    "build_guessing_tree": "trees.guess_build",
    "lemma43_check": "trees.count",
    "xy_equiv_check": "trees.xy_check",
}
ANSWER_SPAN = "adversary.answer"
LAYERS = ("game_core", "strategies", "adversary", "analysis", "trees")


def _flips(c: Counter, args, transcript) -> None:
    c["strategies.flips"] += transcript.flips


def _compiled(c: Counter, args, tree) -> None:
    # replays are computed, not counted: one per node plus one per R^r leaf
    c["trees.compile_nodes"] += tree.node_count
    c["trees.replays"] += tree.node_count + tree.R ** tree.depth


def _leaves(c: Counter, args, result) -> None:
    tree = args[0]
    c["trees.leaves"] += tree.R ** tree.depth


def _xy_decks(c: Counter, args, result) -> None:
    from memlab.game_core import count_valid_inputs
    tree = args[0]
    c["trees.xy_decks"] += count_valid_inputs(tree.n, tree.R)


def _tail_samples(c: Counter, args, result) -> None:
    c["analysis.tail_samples"] += args[0].trials


def _unique_trials(c: Counter, args, result) -> None:
    c["analysis.unique_trials"] += args[1]


COUNTERS = {
    "multi_pass_play": _flips,
    "compile_prefix_tree": _compiled,
    "lemma43_check": _leaves,
    "xy_equiv_check": _xy_decks,
    "y_tail_estimate": _tail_samples,
    "unique_pairs_mc": _unique_trials,
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class Tracer:
    """Spans are [trace_id, span_id, parent_id, name, start, end]; the trace
    id is the traced pass, so the spans of one pass share it."""

    def __init__(self) -> None:
        self.trace_id = 0
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _call(self, name: str, fn, args, kwargs):
        sid = len(self.spans)
        span = [self.trace_id, sid, self._stack[-1] if self._stack else None, name, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(sid)
        span[4] = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[5] = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        def traced(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            if count is not None:
                count(self.counts, args, result)
            return result
        return traced

    def _wrap_answer(self, fn, edge_key):
        c = self.counts

        def traced(g, i, j):
            key = edge_key(g.n, i, j)
            matched = key is not None and g.mate[key[0]] == key[1]
            sid = len(self.spans)
            ans, events = self._call(ANSWER_SPAN, fn, (g, i, j), {})
            if events.deleted is not None:
                dt = self.spans[sid][5] - self.spans[sid][4]
                c["adversary.deletions"] += 1
                c["adversary.vanishings"] += len(events.vanished)
                c["adversary.useful_deletions"] += bool(events.vanished)
                if matched:
                    c["adversary.matched_deletions"] += 1
                    c["adversary.answer_matched_s"] += dt
                else:
                    c["adversary.answer_unmatched_s"] += dt
            return ans, events
        return traced

    @contextmanager
    def installed(self, cli, adversary):
        """Rebind the wrapped globals for the duration; always restore them."""
        saved = [(cli, name, getattr(cli, name)) for name in CLI_SPANS]
        saved.append((adversary, "kg_answer", adversary.kg_answer))
        try:
            for _, name, fn in saved[:-1]:
                setattr(cli, name, self._wrap(CLI_SPANS[name], fn, COUNTERS.get(name)))
            adversary.kg_answer = self._wrap_answer(adversary.kg_answer, adversary.edge_key)
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)

    def _durations(self) -> tuple[Counter, Counter, Counter, float]:
        """Per span name: total time and calls; per layer: self time; and the
        total of the top-level spans."""
        total, calls, child, layer_self = Counter(), Counter(), Counter(), Counter()
        top = 0.0
        for _, sid, parent, name, t0, t1 in self.spans:
            total[name] += t1 - t0
            calls[name] += 1
            if parent is None:
                top += t1 - t0
            else:
                child[parent] += t1 - t0
        for _, sid, _, name, t0, t1 in self.spans:
            layer_self[name.split(".")[0]] += t1 - t0 - child[sid]
        return total, calls, layer_self, top

    def metrics(self, walls: list[float], rows: int) -> dict[str, float]:
        """Per-layer metrics, each per traced pass; `walls` are the traced
        passes' wall times and `rows` the CSV rows they emitted."""
        total, calls, layer_self, top = self._durations()
        c = self.counts
        k = len(walls)
        m = {
            "cli.self_s": sum(walls) - top,
            "cli.rows": rows,
            "game_core.generate_s": total["game_core.generate"],
            "game_core.generate_calls": calls["game_core.generate"],
            "game_core.matches_s": total["game_core.matches"],
            "game_core.matches_calls": calls["game_core.matches"],
            "strategies.play_s": total["strategies.play"],
            "strategies.flips": c["strategies.flips"],
            "adversary.play_s": total["adversary.play"],
            "adversary.games": calls["adversary.play"],
            "adversary.answer_s": total[ANSWER_SPAN],
            "adversary.queries": calls[ANSWER_SPAN],
            "adversary.play_self_s": total["adversary.play"] - total[ANSWER_SPAN],
            "adversary.deletions": c["adversary.deletions"],
            "adversary.vanishings": c["adversary.vanishings"],
            "adversary.matched_deletions": c["adversary.matched_deletions"],
            "adversary.answer_matched_s": c["adversary.answer_matched_s"],
            "adversary.answer_unmatched_s": c["adversary.answer_unmatched_s"],
            "adversary.audit_s": total["adversary.audit"],
            "analysis.tail_s": total["analysis.tail"],
            "analysis.tail_samples": c["analysis.tail_samples"],
            "analysis.unique_mc_s": total["analysis.unique_mc"],
            "analysis.unique_trials": c["analysis.unique_trials"],
            "analysis.unique_enum_s": total["analysis.unique_enum"],
            "trees.compile_s": total["trees.compile"],
            "trees.compile_nodes": c["trees.compile_nodes"],
            "trees.replays": c["trees.replays"],
            "trees.guess_build_s": total["trees.guess_build"],
            "trees.count_s": total["trees.count"],
            "trees.leaves": c["trees.leaves"],
            "trees.xy_check_s": total["trees.xy_check"],
            "trees.xy_decks": c["trees.xy_decks"],
            "trace.wall_s": sum(walls),
        }
        m.update({f"{layer}.self_s": layer_self[layer] for layer in LAYERS})
        m = {name: value / k for name, value in m.items()}
        m["strategies.us_per_flip"] = 1e6 * _ratio(m["strategies.play_s"], m["strategies.flips"])
        m["adversary.us_per_query"] = 1e6 * _ratio(m["adversary.answer_s"], m["adversary.queries"])
        m["adversary.filter_useful_ratio"] = _ratio(c["adversary.useful_deletions"],
                                                    c["adversary.deletions"])
        m["analysis.samples_per_s"] = _ratio(m["analysis.tail_samples"], m["analysis.tail_s"])
        m["trees.replays_per_s"] = _ratio(m["trees.replays"], m["trees.compile_s"])
        m["trees.leaves_per_s"] = _ratio(m["trees.leaves"], m["trees.count_s"])
        return m

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for trace, sid, parent, name, t0, t1 in self.spans:
                fh.write(json.dumps({"trace": trace, "span": sid, "parent": parent,
                                     "name": name, "start": t0, "end": t1}) + "\n")
