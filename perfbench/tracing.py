"""Per-layer tracing, installed on the package from outside it.

Every wrapped call pushes a frame on one stack, so each layer's self time
excludes the time of the wrapped calls beneath it; code that is not
wrapped counts towards the nearest wrapped caller. Module-level calls
(identities, the series builders, textform, jackson, eval_numeric) also
record a span: name, start, end, parent span and op. The hot kernel
methods, the family closed forms and the Stirling tables only keep a call
count and aggregated self time, since they run up to millions of times a
pass. Spans and counters stay in memory until the pass ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

import qpoly.core as core
import qpoly.families as families
import qpoly.identities as identities
import qpoly.jackson as jackson
import qpoly.series as series
import qpoly.stirling as stirling
import qpoly.textform as textform

# (layer, owner, attribute, records spans); an owner is a class or module
TARGETS = (
    ("core.qpoly_mul", core.QPoly, "__mul__", False),
    ("core.qpoly_gcd", core.QPoly, "gcd", False),
    ("core.qrat_add", core.QRat, "__add__", False),
    ("core.qrat_mul", core.QRat, "__mul__", False),
    ("core.parampoly_mul", core.ParamPoly, "__mul__", False),
    ("core.eval_numeric", core, "eval_numeric", True),
    ("families", families, "poly_bernoulli", False),
    ("families", families, "poly_cauchy1", False),
    ("families", families, "poly_cauchy2", False),
    ("stirling", stirling, "stirling1", False),
    ("stirling", stirling, "stirling2", False),
    ("stirling", stirling, "weighted_stirling1", False),
    ("stirling", stirling, "weighted_stirling2", False),
    ("stirling", stirling, "substitute_weight", False),
    ("stirling", stirling.WeightedStirling, "as_param_poly", False),
    ("series.gf", series, "gf_poly_bernoulli", True),
    ("series.gf", series, "gf_poly_cauchy1", True),
    ("series.gf", series, "gf_poly_cauchy2", True),
    ("series.compose", series, "series_compose", True),
    ("series.mul", series.TruncSeries, "__mul__", False),
    ("series.egf", series, "egf_coefficient", False),
    ("identities.orthogonality", identities, "check_orthogonality", True),
    ("identities.inverse", identities, "check_inverse_relations", True),
    ("identities.reciprocity", identities, "check_kind_reciprocity", True),
    ("identities.mixed", identities, "check_mixed_expansions", True),
    ("textform.format", textform, "format_param_poly", True),
    ("textform.parse", textform, "parse_param_poly", True),
    ("jackson", jackson, "oracle_family", True),
)
LAYERS = tuple(dict.fromkeys(t[0] for t in TARGETS))
HARNESS = "bench.op"


class Tracer:
    """Call counts, self times and spans of one traced pass."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.spans: list[tuple] = []   # (id, name, start, end, parent, op)
        self.qdeg_max = 0
        self.coeff_bits_max = 0
        self.text_bytes = 0
        self.bookkeeping_s = 0.0       # time in post hooks, in no layer
        self.op_index = -1
        self._stack = [[0.0, None]]    # [child seconds, enclosing span id]
        self._next_span = 0
        self._undo: list[tuple] = []

    def wrap(self, layer: str, fn, span: bool, post=None):
        calls, self_s, spans = self.calls, self.self_s, self.spans
        stack, clock = self._stack, time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            if span:
                span_id = self._next_span
                self._next_span += 1
            else:
                span_id = parent[1]
            frame = [0.0, span_id]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dt = t1 - t0
                self_s[layer] += dt - frame[0]
                calls[layer] += 1
                parent[0] += dt
                if span:
                    spans.append((span_id, layer, t0, t1, parent[1],
                                  self.op_index))
            if post is not None:
                # bookkeeping time is charged to no layer
                t2 = clock()
                post(result)
                dt = clock() - t2
                parent[0] += dt
                self.bookkeeping_s += dt
            return result

        return traced

    def run_op(self, index: int, fn, *args):
        """Run one op under a root span; its self time is harness glue."""
        self.op_index = index
        return self.wrap(HARNESS, fn, True)(*args)

    def _mul_stats(self, result) -> None:
        coeffs = getattr(result, "coeffs", ())
        if len(coeffs) - 1 > self.qdeg_max:
            self.qdeg_max = len(coeffs) - 1
        for c in coeffs:
            bits = max(c.numerator.bit_length(), c.denominator.bit_length())
            if bits > self.coeff_bits_max:
                self.coeff_bits_max = bits

    def _text_stats(self, result) -> None:
        self.text_bytes += len(result)

    def install(self) -> None:
        """Rebind every target, in its owner and wherever a module of the
        package imported it by name."""
        modules = [m for name, m in sys.modules.items()
                   if name == "qpoly" or name.startswith("qpoly.")]
        posts = {"core.qpoly_mul": self._mul_stats,
                 "textform.format": self._text_stats}
        for layer, owner, attr, span in TARGETS:
            raw = vars(owner)[attr]
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self.wrap(layer, fn, span, posts.get(layer))
            if isinstance(raw, staticmethod):
                self._rebind([owner], raw, staticmethod(wrapped))
            else:
                # a class may alias the method, as in __rmul__ = __mul__
                self._rebind([owner] + modules, fn, wrapped)

    def _rebind(self, owners, old, new) -> None:
        for owner in owners:
            for name, value in list(vars(owner).items()):
                if value is old:
                    setattr(owner, name, new)
                    self._undo.append((owner, name, old))

    def uninstall(self) -> None:
        for owner, name, old in reversed(self._undo):
            setattr(owner, name, old)
        self._undo.clear()

    def summary(self) -> dict:
        layers = LAYERS + (HARNESS,)
        return {"calls": {l: self.calls.get(l, 0) for l in layers},
                "self_s": {l: self.self_s.get(l, 0.0) for l in layers},
                "qdeg_max": self.qdeg_max,
                "coeff_bits_max": self.coeff_bits_max,
                "text_bytes": self.text_bytes,
                "bookkeeping_s": self.bookkeeping_s}
