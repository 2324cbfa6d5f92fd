"""In-memory spans around calls into sqrtnfa's modules, recorded from outside.

Nothing under ``src/`` knows about tracing.  :meth:`Tracer.install` replaces
the public names a caller looks up (``sqrtnfa.cli.sqrt_nfa``,
``sqrtnfa.cases.witness_square_table``, ...) with wrappers that record one
span per call: id, parent span, op (one CLI invocation), name, start, end.
``Nfa.__init__`` is wrapped on the class, so every constructor call is a
span whichever module makes it.  Per-word ``nfa.member`` calls from the
fooling-set verifier are counted, not timed: there are about 10^6 of them
per ``report`` run.

A layer's self time is the time of its spans minus the time of their
child spans.  Self times of all spans plus the unattributed remainder (the
job loop outside any CLI call) add up to the traced wall time exactly.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

ROOT_SPAN = "cli.main"


def _verify_cases_budget(counts, args, kwargs, result):
    from sqrtnfa.config import effective_budget

    n = args[0] if args else kwargs["n"]
    share = n**6 / effective_budget(kwargs.get("budget"))
    counts["cases.budget_used"] = max(counts["cases.budget_used"], share)


def _count(metric, measure):
    def hook(counts, args, kwargs, result):
        counts[metric] += measure(result)

    return hook


# (module the caller looks the name up in, attribute, span name, counter hook)
PATCHES = (
    ("sqrtnfa.cli", "witness", "witness.witness", None),
    ("sqrtnfa.fooling", "witness", "witness.witness", None),
    ("sqrtnfa.cli", "sqrt_nfa", "sqrt.sqrt_nfa",
     _count("sqrt.cube_transitions", lambda r: len(r.transitions))),
    ("sqrtnfa.cli", "triple_labels", "sqrt.triple_labels", None),
    ("sqrtnfa.cli", "certify_lower_bound", "fooling.certify",
     _count("fooling.cond2_checked", lambda r: r.cond2_checked)),
    ("sqrtnfa.cli", "verify_cases", "cases.verify_cases", _verify_cases_budget),
    ("sqrtnfa.cases", "witness_square_table", "kernels.witness_square_table",
     _count("kernels.table_cells", lambda r: r.size)),
    ("sqrtnfa.cases", "case_table", "kernels.case_table",
     _count("kernels.table_cells", lambda r: r.size)),
    ("sqrtnfa.cli", "accept_table", "kernels.accept_table",
     _count("kernels.words_tabulated", lambda r: r.size)),
    ("sqrtnfa.cli", "square_accept_table", "kernels.square_accept_table",
     _count("kernels.words_tabulated", lambda r: r.size)),
    ("sqrtnfa.cli", "dfa_accept_table", "kernels.dfa_accept_table",
     _count("kernels.words_tabulated", lambda r: r.size)),
    ("sqrtnfa.cli", "determinize", "nfa.determinize",
     _count("nfa.dfa_states", lambda r: r.n_states)),
    ("sqrtnfa.nfa", "determinize", "nfa.determinize",
     _count("nfa.dfa_states", lambda r: r.n_states)),
    ("sqrtnfa.nfa", "difference_witness", "nfa.difference_witness", None),
    ("sqrtnfa.cli", "dfa_to_nfa", "nfa.dfa_to_nfa", None),
    ("sqrtnfa.cli", "sqrt_dfa", "oracle.sqrt_dfa",
     _count("oracle.fn_states", lambda r: r.n_states)),
    ("sqrtnfa.cli", "random_nfa", "oracle.random_nfa", None),
    ("sqrtnfa.cli", "parse_nfa", "textio.parse_nfa", None),
    ("sqrtnfa.cli", "emit_nfa", "textio.emit_nfa",
     _count("textio.bytes_out", lambda r: len(r.encode()))),
)
NFA_INIT_SPAN = "nfa.init"
# (module, attribute, count) of the per-word membership test: counted, not timed
MEMBER_COUNTED = ("sqrtnfa.fooling", "member", "nfa.member_calls")

# Per-layer metrics of the traced run, with the end-to-end metric each one
# should move.  A ``*_s`` metric is the layer's mean self seconds per job:
# ``cli.self_s`` is the root span's, every other one the span of that name.
# With ``trace.unattributed_s`` they sum to ``trace.wall_s``.  A count is the
# hook's count of that name, or ``<span>_calls`` for the calls of a span.
LAYER_METRICS = {
    "fooling.certify_s": ("s", "wall_s on report"),
    "fooling.cond2_checked": ("count", "wall_s on report"),
    "nfa.member_calls": ("count", "wall_s on report"),
    "cases.verify_cases_s": ("s", "wall_s, peak_rss_mb on report"),
    "kernels.witness_square_table_s": ("s", "wall_s, peak_rss_mb on report"),
    "kernels.case_table_s": ("s", "wall_s, peak_rss_mb on report"),
    "kernels.table_cells": ("count", "wall_s, peak_rss_mb on report"),
    "cases.budget_used": ("ratio", "wall_s, peak_rss_mb on report"),
    "sqrt.sqrt_nfa_s": ("s", "wall_s, peak_rss_mb on cube; wall_s on random-equiv"),
    "nfa.init_s": ("s", "wall_s, peak_rss_mb on cube; wall_s on random-equiv"),
    "nfa.init_calls": ("count", "wall_s, peak_rss_mb on cube; wall_s on random-equiv"),
    "sqrt.cube_transitions": ("count", "wall_s, peak_rss_mb on cube"),
    "sqrt.triple_labels_s": ("s", "wall_s on cube"),
    "textio.parse_nfa_s": ("s", "wall_s on cube"),
    "textio.emit_nfa_s": ("s", "wall_s on cube"),
    "textio.bytes_out": ("bytes", "wall_s on cube"),
    "kernels.accept_table_s": ("s", "wall_s on random-equiv"),
    "kernels.square_accept_table_s": ("s", "wall_s on random-equiv"),
    "kernels.dfa_accept_table_s": ("s", "wall_s on random-equiv"),
    "kernels.words_tabulated": ("count", "wall_s on random-equiv"),
    "nfa.determinize_s": ("s", "wall_s on random-equiv"),
    "nfa.determinize_calls": ("count", "wall_s on random-equiv"),
    "nfa.dfa_states": ("count", "wall_s on random-equiv"),
    "nfa.difference_witness_s": ("s", "wall_s on random-equiv"),
    "nfa.dfa_to_nfa_s": ("s", "wall_s on random-equiv"),
    "oracle.sqrt_dfa_s": ("s", "wall_s on random-equiv"),
    "oracle.fn_states": ("count", "wall_s on random-equiv"),
    "oracle.random_nfa_s": ("s", "wall_s on random-equiv"),
    "witness.witness_s": ("s", "residual on report, expected small"),
    "cli.self_s": ("s", "residual: argument parsing, printing, and on cube the file reads and writes"),
    "trace.unattributed_s": ("s", "residual on every workload, expected small"),
    "trace.wall_s": ("s", "traced wall time, the sum of every *_s above"),
    "trace.overhead_s": ("s", "mean traced minus mean untraced round, unscaled; can read below 0 under the noise"),
}


class Tracer:
    """Records spans in memory while installed; one instance per job."""

    def __init__(self) -> None:
        # each span: [id, parent id, op, name, start, end]
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None
        self._stack: list[list] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [len(spans), stack[-1][0] if stack else None, self.op, name, 0.0, 0.0]
            spans.append(span)
            stack.append(span)
            span[4] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[5] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        for module, attr, name, hook in PATCHES:
            owner = importlib.import_module(module)
            self._patch(owner, attr, self._wrap(getattr(owner, attr), name, hook))
        nfa_class = importlib.import_module("sqrtnfa.nfa").Nfa
        self._patch(nfa_class, "__init__", self._wrap(nfa_class.__init__, NFA_INIT_SPAN, None))

        module, attr, metric = MEMBER_COUNTED
        owner = importlib.import_module(module)
        member, counts = getattr(owner, attr), self.counts

        def counted(nfa, word):
            counts[metric] += 1
            return member(nfa, word)

        self._patch(owner, attr, counted)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def root(self, op: int, call):
        """Run ``call()`` as op ``op`` under a root span."""
        self.op = op
        try:
            return self._wrap(call, ROOT_SPAN, None)()
        finally:
            self.op = None

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span's duration minus its children's."""
        out: dict[str, float] = defaultdict(float)
        for _id, parent, _op, name, start, end in self.spans:
            out[name] += end - start
            if parent is not None:
                out[self.spans[parent][3]] -= end - start
        return dict(out)

    def summary(self) -> dict:
        """Self seconds per span name, and every count of one traced job:
        the hooks' counts and ``<span>_calls`` for each span name."""
        calls = Counter(f"{span[3]}_calls" for span in self.spans)
        return {"self_s": self.self_times(), "counts": dict(self.counts + calls)}

    def write(self, path: Path, t0: float, header: dict) -> None:
        """Write the spans as JSON lines, times in seconds from ``t0``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span_id, parent, op, name, start, end in self.spans:
                record = {"id": span_id, "parent": parent, "op": op, "name": name,
                          "start": start - t0, "end": end - t0}
                fh.write(json.dumps(record) + "\n")


def layer_metrics(summaries: list[dict], rounds: int, wall_s: float, overhead_s: float) -> dict:
    """Per-layer metrics of one run's traced workers, which ran ``rounds``
    rounds in all at a mean traced round time of ``wall_s``: means per
    round (means keep the self times additive), except that a ratio is
    the largest any worker saw.  Counts repeat exactly between rounds.  A
    layer the workload never calls reads 0."""

    def mean(values) -> float:
        return sum(values) / rounds

    metrics = {"trace.wall_s": wall_s, "trace.overhead_s": overhead_s}
    for name in LAYER_METRICS:
        if name in metrics or name == "trace.unattributed_s":
            continue
        if name.endswith("_s"):
            span = ROOT_SPAN if name == "cli.self_s" else name.removesuffix("_s")
            metrics[name] = mean(s["self_s"].get(span, 0.0) for s in summaries)
        elif LAYER_METRICS[name][0] == "ratio":
            metrics[name] = max(s["counts"].get(name, 0) for s in summaries)
        else:
            metrics[name] = mean(s["counts"].get(name, 0) for s in summaries)
    attributed = mean(sum(s["self_s"].values()) for s in summaries)
    metrics["trace.unattributed_s"] = wall_s - attributed
    return {name: metrics[name] for name in LAYER_METRICS}
