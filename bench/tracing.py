"""Spans around vtt's layer calls, recorded from outside the program.

The traced run replaces selected functions of vtt's modules with timing
wrappers for the length of the run and puts the originals back afterwards;
no file of vtt changes.  A function is wrapped where its callers look it up,
so `counting.is_prime` is wrapped apart from `cli.is_prime`, and a name a
module imported for itself (such as the graph constructors inside
`fixtures`) stays unwrapped and counts as that module's own time.

Each call leaves one span (name, start, end, parent, amount) in memory;
self times and per-layer metrics are derived from them when the run ends.
"""

from __future__ import annotations

import functools
import resource
from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack = [-1]
        self._saved: list = []
        self.rss_growth: list[tuple[int, int]] = []  # (masks, peak-RSS growth in bytes)

    def wrap(self, owner, attr: str, name, amount=None, probe_rss: bool = False) -> None:
        """Replace owner.attr with a wrapper that records one span per call.

        `name` is the span name or a function (args, kwargs, result) -> name;
        `amount` maps (args, kwargs, result) to the work the call did.
        """
        fn = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(index)
            rss_before = _peak_rss_bytes() if probe_rss else 0
            result = None
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf_counter()
                stack.pop()
                label = name(args, kwargs, result) if callable(name) else name
                work = amount(args, kwargs, result) if amount and result is not None else 0
                spans[index] = (label, start, end, parent, work)
                if probe_rss and result is not None:
                    self.rss_growth.append((work, _peak_rss_bytes() - rss_before))

        self._saved.append((owner, attr, fn))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _classes_name(args, kwargs, result):
    # cli passes workers by keyword
    if kwargs.get("workers", 1) > 1:
        return "enumeration.workers"
    return "enumeration.equivalence_classes"


def _masks(args, kwargs, result):
    return result.total_sets


def install(tracer: Tracer, vtt) -> None:
    """Wrap the layer functions that the four workloads reach."""
    cli, counting, enumeration = vtt.cli, vtt.counting, vtt.enumeration
    graphs, perm, fixtures = vtt.graphs, vtt.perm, vtt.fixtures
    tracer.wrap(cli, "main", "cli.main")
    tracer.wrap(cli, "is_prime", "groups.is_prime")
    tracer.wrap(counting, "is_prime", "groups.is_prime")
    tracer.wrap(counting, "divisors", "groups.divisors")
    tracer.wrap(counting, "phi_table", "counting.phi_table")
    tracer.wrap(counting, "class_count", "counting.class_count")
    tracer.wrap(counting, "count_table", "counting.count_table")
    tracer.wrap(counting, "format_count_table", "counting.format",
                amount=lambda a, k, r: len(r))
    tracer.wrap(enumeration, "burnside_count", "enumeration.burnside",
                amount=lambda a, k, r: a[0] - 1)
    tracer.wrap(enumeration, "equivalence_classes", _classes_name, amount=_masks, probe_rss=True)
    tracer.wrap(enumeration.ClassReport, "json_lines", "enumeration.json_lines")
    tracer.wrap(graphs, "cayley_digraph", "graphs.cayley_digraph")
    tracer.wrap(graphs, "parse_graph_text", "graphs.parse")
    tracer.wrap(perm, "isomorphic",
                lambda a, k, r: "perm.isomorphic_found" if r is not None else "perm.isomorphic_refuted")
    tracer.wrap(perm, "automorphisms", "perm.automorphisms", amount=lambda a, k, r: len(r))
    tracer.wrap(perm, "orbits", "perm.orbits")
    tracer.wrap(perm, "find_regular_subgroup", "perm.find_regular_subgroup")
    tracer.wrap(fixtures, "run_all", "fixtures.run_all")


def totals(spans) -> tuple[dict, dict, dict, dict]:
    """Per span name: self time, inclusive time, call count and work amount.

    A span's self time is its duration minus the durations of its direct
    children, so self times over all names add up to the traced time.
    """
    self_s, incl_s = defaultdict(float), defaultdict(float)
    calls, work = defaultdict(int), defaultdict(int)
    for name, start, end, parent, amount in spans:
        duration = end - start
        self_s[name] += duration
        incl_s[name] += duration
        calls[name] += 1
        work[name] += amount
        if parent >= 0:
            self_s[spans[parent][0]] -= duration
    return self_s, incl_s, calls, work


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Every per-layer metric, per traced round."""
    self_s, incl_s, calls, work = totals(tracer.spans)

    def per_round(x):
        return x / rounds

    def rate(name):
        return work[name] / incl_s[name] if incl_s[name] else 0.0

    growth = 0.0
    if tracer.rss_growth:
        masks = max(m for m, _ in tracer.rss_growth)
        first = next(g for m, g in tracer.rss_growth if m == masks)
        growth = first / masks
    return {
        "cli.self_s": (per_round(self_s["cli.main"]), "s"),
        "counting.phi_table_s": (per_round(self_s["counting.phi_table"]), "s"),
        "counting.format_s": (per_round(self_s["counting.format"]), "s"),
        "counting.format_digits_per_s": (rate("counting.format"), "1/s"),
        "groups.is_prime_s": (per_round(self_s["groups.is_prime"]), "s"),
        "groups.is_prime_calls": (per_round(calls["groups.is_prime"]), "count"),
        "groups.divisors_s": (per_round(self_s["groups.divisors"]), "s"),
        "enumeration.burnside_s": (per_round(self_s["enumeration.burnside"]), "s"),
        "enumeration.burnside_units_per_s": (rate("enumeration.burnside"), "1/s"),
        "enumeration.equivalence_classes_s":
            (per_round(self_s["enumeration.equivalence_classes"]), "s"),
        "enumeration.masks_per_s": (rate("enumeration.equivalence_classes"), "1/s"),
        "enumeration.json_lines_s": (per_round(self_s["enumeration.json_lines"]), "s"),
        "enumeration.workers_s": (per_round(self_s["enumeration.workers"]), "s"),
        "enumeration.bytes_per_mask": (growth, "B"),
        "graphs.cayley_digraph_s": (per_round(self_s["graphs.cayley_digraph"]), "s"),
        "graphs.parse_s": (per_round(self_s["graphs.parse"]), "s"),
        "perm.isomorphic_found_s": (per_round(self_s["perm.isomorphic_found"]), "s"),
        "perm.isomorphic_refuted_s": (per_round(self_s["perm.isomorphic_refuted"]), "s"),
        "perm.automorphisms_s": (per_round(self_s["perm.automorphisms"]), "s"),
        "perm.orbits_s": (per_round(self_s["perm.orbits"]), "s"),
        "perm.find_regular_subgroup_s": (per_round(self_s["perm.find_regular_subgroup"]), "s"),
        "perm.aut_elements": (per_round(work["perm.automorphisms"]), "count"),
        "fixtures.run_all_s": (per_round(self_s["fixtures.run_all"]), "s"),
    }
