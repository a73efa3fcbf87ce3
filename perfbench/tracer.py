"""Layer tracing from outside the program.

The tracer replaces each public function of each spectraforge module with a
timing wrapper at every place the function object is bound: the defining
module, every module that imported it by name, and the package namespace.
`ZeroSetDescriptor.locate` is patched on its class, and
`numpy.linalg.eigvalsh` on `numpy.linalg`: `frames` and `convolution` are
its only callers while a request runs.

Requests and layer entry points are recorded as spans (name, start, end,
parent, request id).  Hot leaves are never recorded one by one: their calls
and self time are aggregated per request, so millions of calls stay cheap.
Self time is a span's duration minus the time covered by its children.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import defaultdict
from fractions import Fraction

import numpy as np

LAYERS = (
    "rational", "measures", "spectra", "cyclotomic", "frames",
    "convolution", "certificates", "cli",
)

# called per point, per atom or per pair: aggregated, never a span each
HOT = frozenset({
    "rational.unit_exp", "rational.frac_mod1", "rational.as_fraction",
    "rational.format_rational", "rational.sorted_distinct",
    "measures.mask_eval", "measures.ft_selfsimilar", "measures.ft_measure",
    "measures.ft_convolution", "measures.ft_lebesgue01",
    "measures.tail_deviation_bound",
    "spectra.locate", "spectra.zeroset_membership",
    "cyclotomic.cyclotomic", "cyclotomic.divides_cyclotomic",
    "cyclotomic.digit_polynomial", "cyclotomic.euler_phi",
    "cyclotomic.prime_power_split",
    "certificates.jsonify",
})

# self time of the tracer's own work counters
COUNTING = "tracer.counting"

# beyond this many spans in one request, calls are aggregated only
SPAN_CAP = 5000


def _distinct_differences(freqs) -> int:
    return len({a - b for a in freqs for b in freqs})


def _truncation_depth(args, kwargs) -> int:
    policy = kwargs.get("policy", args[2] if len(args) > 2 else None)
    return policy.truncation_depth if policy is not None else 40


def _gram_counts(args, kwargs, result, add):
    freqs = kwargs.get("frequencies", args[1] if len(args) > 1 else ())
    m = len(freqs)
    add("entries", m * m)
    add("distinct_differences", _distinct_differences([Fraction(f) for f in freqs]))


# work counters read from arguments or results, outside the timed call
EXTRA = {
    "measures.mask_eval": lambda a, k, r, add: add("atom_terms", len(a[0].atoms)),
    "measures.ft_selfsimilar": lambda a, k, r, add: add("factors", _truncation_depth(a, k)),
    "measures.approximate_convolution_atoms": lambda a, k, r, add: add("atoms", len(r.atoms)),
    "spectra.locate": lambda a, k, r, add: add("hits", r is not None),
    "spectra.zero_set_descriptor": lambda a, k, r, add: add("distinct_measures", a[0]),
    "spectra.is_bizero": lambda a, k, r, add: add(
        "pairs", len(r.witnesses) if r.ok else 1),
    "convolution.spectrum_convolution": lambda a, k, r, add: add(
        "pairs", len(r.witnesses["pairs"])),
    "convolution.gram_section": _gram_counts,
    "frames.synthesis_matrix": lambda a, k, r, add: add("entries", r.size),
    "eigen.eigvalsh": lambda a, k, r, add: add("max_dim", a[0].shape[0]),
}

MAX_COUNTERS = frozenset({"max_dim"})
DISTINCT_COUNTERS = frozenset({"distinct_measures"})


class Tracer:
    """Install with `install()`, bracket each request with `begin`/`end`,
    remove with `uninstall()`; the two can alternate."""

    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self.spans: list[tuple] = []
        self.per_request: list[dict] = []
        self.dropped_spans = 0
        self._next_span = 0
        self._frames = [[0.0]]       # child-time accumulators, innermost last
        self._span_ids = [None]      # enclosing span ids
        self._request = None
        self._request_spans = 0
        self._patches: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, name, fn):
        frames, span_ids = self._frames, self._span_ids
        calls, self_s, perf = self.calls, self.self_s, time.perf_counter
        counters, distinct = self.counters, self.distinct
        extra = EXTRA.get(name)
        tracer = self

        def add(key, value):
            if key in MAX_COUNTERS:
                counters[name, key] = max(counters[name, key], value)
            elif key in DISTINCT_COUNTERS:
                distinct[name, key].add(value)
            else:
                counters[name, key] += value

        if name in HOT:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                ok = False
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    end = perf()
                    d = end - start
                    frames.pop()
                    calls[name] += 1
                    self_s[name] += d - frame[0]
                    if ok and extra is not None:
                        # counting runs inside the parent's interval; book it
                        # to the tracer, not to the parent's self time
                        extra(args, kwargs, result, add)
                        now = perf()
                        self_s[COUNTING] += now - end
                        d = now - start
                    frames[-1][0] += d
                return result
        else:
            def wrapper(*args, **kwargs):
                frame = [0.0]
                frames.append(frame)
                parent = span_ids[-1]
                span_id = tracer._new_span_id()
                span_ids.append(span_id)
                ok = False
                start = perf()
                try:
                    result = fn(*args, **kwargs)
                    ok = True
                finally:
                    end = perf()
                    d = end - start
                    frames.pop()
                    span_ids.pop()
                    calls[name] += 1
                    self_s[name] += d - frame[0]
                    tracer._record(span_id, name, start, end, parent, frame[0])
                    if ok and extra is not None:
                        extra(args, kwargs, result, add)
                        now = perf()
                        self_s[COUNTING] += now - end
                        d = now - start
                    frames[-1][0] += d
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    def _new_span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    def _record(self, span_id, name, start, end, parent, child) -> None:
        if self._request_spans < SPAN_CAP:
            self._request_spans += 1
            self.spans.append((span_id, name, start, end, parent, self._request, child))
        else:
            self.dropped_spans += 1

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr), wrapper))

    def _build(self) -> None:
        import spectraforge
        modules = {layer: importlib.import_module(f"spectraforge.{layer}") for layer in LAYERS}
        namespaces = [spectraforge, *modules.values()]
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not callable(fn) or inspect.isclass(fn):
                    continue
                if getattr(fn, "__module__", None) != module.__name__:
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for ns in namespaces:
                    if vars(ns).get(attr) is fn:
                        self._patch(ns, attr, wrapper)
        cls = modules["spectra"].ZeroSetDescriptor
        self._patch(cls, "locate", self._wrap("spectra.locate", cls.locate))
        self._patch(np.linalg, "eigvalsh", self._wrap("eigen.eigvalsh", np.linalg.eigvalsh))

    def install(self) -> None:
        """Rebind every traced function to its wrapper."""
        if not self._patches:
            self._build()
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore the original bindings; `install` can follow again."""
        for owner, attr, original, _ in reversed(self._patches):
            setattr(owner, attr, original)

    # -- requests ----------------------------------------------------------

    def begin(self, request_id: int, kind: str) -> None:
        self._request = request_id
        self._request_spans = 0
        self._kind = kind
        self._hot_before = {n: (self.calls[n], self.self_s[n]) for n in HOT}
        self._frames.append([0.0])
        self._span_ids.append(self._new_span_id())
        self._start = time.perf_counter()

    def end(self) -> None:
        end = time.perf_counter()
        span_id = self._span_ids.pop()
        child = self._frames.pop()[0]
        name = f"request.{self._kind}"
        self.calls[name] += 1
        self.self_s[name] += end - self._start - child
        self.spans.append((span_id, name, self._start, end, None, self._request, child))
        hot = {}
        for n, (c0, s0) in self._hot_before.items():
            dc = self.calls[n] - c0
            if dc:
                hot[n] = {"calls": dc, "self_s": self.self_s[n] - s0}
        self.per_request.append({"request": self._request, "kind": self._kind, "hot": hot})
        self._request = None

    # -- results -----------------------------------------------------------

    def layer_self_s(self) -> dict:
        """Self time per layer (module), summed over its functions."""
        out = defaultdict(float)
        for name, s in self.self_s.items():
            out[name.split(".", 1)[0]] += s
        return dict(out)

    def span_self_s(self) -> dict:
        """Self time per span name recomputed from the recorded spans."""
        out = defaultdict(float)
        for _, name, start, end, _, _, child in self.spans:
            out[name] += end - start - child
        return dict(out)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start": s, "end": e, "parent": p,
                 "request": r, "child_s": c}
                for i, n, s, e, p, r, c in self.spans
            ],
            "dropped_spans": self.dropped_spans,
            "hot_per_request": self.per_request,
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
        }
