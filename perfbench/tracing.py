"""In-memory span recording around flowsentry's layer boundaries.

A traced run replaces public functions at the names their calling module
imported them under (``flowsentry.family.max_flow``,
``flowsentry.oracles.cycle_through_arc_without``, ...) with wrappers that
record one span per call, and puts the originals back afterwards. The
program itself carries no tracing code; untraced runs call it unchanged.
"""

import time
from contextlib import contextmanager

from flowsentry import cli, family, flows, graph, kfault, mincut, oracles

# (module, attribute, span name). A span name is "<layer>.<stage>", where the
# layer is the flowsentry module that defines the wrapped function.
TARGETS = (
    (graph, "parse_network", "graph.parse"),
    (oracles, "prune_to_st_paths", "graph.prune"),
    (oracles, "build_flow_family", "family.build"),
    (family, "classify_edges", "family.classify"),
    (mincut, "classify_edges", "family.classify"),
    (family, "calibrate", "family.calibrate"),
    (family, "build_auxiliary", "family.auxiliary"),
    (family, "peel_family_A", "family.peel"),
    (family, "extend_family_B", "family.extend"),
    (flows, "max_flow", "flows.max_flow"),
    (family, "max_flow", "flows.max_flow"),
    (mincut, "max_flow", "flows.max_flow"),
    (kfault, "max_flow", "flows.max_flow"),
    (oracles, "build_mincut_oracle", "mincut.build"),
    (kfault, "build_mincut_oracle_raw", "mincut.build_raw"),
    (oracles, "build_ft_index", "ftscc.build"),
    (oracles, "cycle_through_arc_without", "ftscc.cycle"),
    (oracles, "strongly_connected_without", "ftscc.connected"),
    (oracles, "decreases_by_k", "mincut.decreases_by_k"),
    (kfault, "decreases_by_k", "mincut.decreases_by_k"),
    (mincut, "decreases_by_k", "mincut.decreases_by_k"),
    (kfault, "report_nmc_after", "mincut.report_nmc"),
    (kfault, "enumerate_minimal_cuts", "kfault.enumerate"),
    (cli, "save_oracle", "cli.save"),
    (cli, "load_oracle", "cli.load"),
)

NAME, START, END, PARENT, RESULT = range(5)


class Tracer:
    """Records spans as [name, start, end, parent index, bool result or None]."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.missing = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, time.perf_counter(), 0.0, parent, None]
        self.spans.append(span)
        return span

    def _close(self, span):
        span[END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        s = self._open(name)
        try:
            yield
        finally:
            self._close(s)

    def _wrap(self, fn, name):
        def traced(*args, **kwargs):
            s = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(s)
            if type(result) is bool:
                s[RESULT] = result
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target while the block runs. A target a refactor
        removed is listed in ``missing``, and its metrics read 0."""
        saved = []
        for module, attr, name in TARGETS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(f"{module.__name__}.{attr}")
                continue
            saved.append((module, attr, orig))
            setattr(module, attr, self._wrap(orig, name))
        try:
            yield self
        finally:
            for module, attr, orig in reversed(saved):
                setattr(module, attr, orig)


class SpanStats:
    """Inclusive time, self time and call counts over one tracer's spans."""

    def __init__(self, spans):
        child = [0.0] * len(spans)
        for s in spans:
            if s[PARENT] >= 0:
                child[s[PARENT]] += s[END] - s[START]
        self.spans = spans
        self.self_time = [s[END] - s[START] - c for s, c in zip(spans, child)]

    def total(self, *names):
        return sum(s[END] - s[START] for s in self.spans if s[NAME] in names)

    def self_of(self, *names):
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s[NAME] in names)

    def count(self, *names):
        return sum(1 for s in self.spans if s[NAME] in names)

    def layer_self(self, layer):
        prefix = layer + "."
        return sum(t for s, t in zip(self.spans, self.self_time)
                   if s[NAME].startswith(prefix))

    def true_count(self, name):
        return sum(1 for s in self.spans if s[NAME] == name and s[RESULT])

    def roots_with_child(self, root_names, child_names):
        """Number of spans named in root_names with a direct child span
        named in child_names."""
        hit = {s[PARENT] for s in self.spans if s[NAME] in child_names}
        return sum(1 for i, s in enumerate(self.spans)
                   if s[NAME] in root_names and i in hit)
