"""Outside-in tracing of the mckay layers for the benchmark's traced runs.

The program has no instrumentation of its own yet, so the tracer wraps each
layer's public functions (the names in the module's ``__all__``) where their
callers look them up: every ``mckay`` module namespace that holds one of
those function objects gets the wrapper instead, and ``uninstall`` puts the
originals back.  Nothing under ``src/`` is changed.

A wrapped call records one span ``[name, start_ns, end_ns, parent, job,
error]``.  Spans are kept in a list and written once, at the end of the run.
A few public functions run in tight loops (``COUNT_ONLY``); they are counted,
never spanned, and calls made inside them are neither spanned nor counted,
so their cost stays in the enclosing span's self time.

``cyclotomic`` gets no span: its exact arithmetic runs thousands of times per
job inside ``skew``, so its cost is part of the ``skew`` self times.
"""
from __future__ import annotations

import contextlib
import inspect
import json
import sys
import time
from collections import Counter

LAYERS = ("cli", "lattice", "monomial_group", "mckay_quiver", "cuts", "skew", "graphiso")

# Called in tight loops: is_admissible once per scanned triple inside
# admissible_bases, cut_exists once per candidate type in oracle-compare,
# cut_type once per enumerated cut.
COUNT_ONLY = frozenset({"lattice.is_admissible", "cuts.cut_exists", "cuts.cut_type"})

# cli.run is only called by cli.main; leaving it unwrapped keeps document
# assembly inside cli.main's self time together with parsing and rendering.
UNTRACED = frozenset({"cli.run"})

# Function-level self times reported by name.
FUNCTIONS = (
    "skew.skew_quiver",
    "skew.transport_cut",
    "skew.unskew_round_trip",
    "graphiso.find_isomorphism",
    "cuts.enumerate_cuts",
    "cuts.validate_cut",
    "cuts.invariant_cut",
    "lattice.admissible_bases",
    "monomial_group.group_from_basis",
    "monomial_group.conjugacy_classes",
    "monomial_group.semidirect_check",
    "mckay_quiver.build_quiver",
    "mckay_quiver.k_action",
    "cli.main",
)

WORK_COUNTS = (
    "cuts.cuts_enumerated",
    "cuts.types_found",
    "lattice.triples_scanned",
    "lattice.bases_found",
    "skew.vertex_pairs",
    "skew.blocks",
    "monomial_group.elements",
    "mckay_quiver.vertices",
)


def triples_scanned(max_det: int) -> int:
    """Triples (a, b, c) with 0 <= b < a and 2 <= a*c <= max_det."""
    if max_det < 1:
        return 0
    return sum(a * (max_det // a) for a in range(1, max_det + 1)) - 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Observers read work counts from a wrapped call's arguments and result.
# They run after the span has closed, so their cost is not in any self time.
def _observe_enumerate(counts, originals, args, kwargs, result):
    cut_type = originals["cuts.cut_type"]
    counts["cuts.cuts_enumerated"] += len(result)
    counts["cuts.types_found"] += len({cut_type(c) for c in result})


def _observe_admissible_bases(counts, originals, args, kwargs, result):
    counts["lattice.triples_scanned"] += triples_scanned(_arg(args, kwargs, 0, "max_det"))
    counts["lattice.bases_found"] += len(result)


def _observe_skew_quiver(counts, originals, args, kwargs, result):
    nv = len(result.vertices)
    counts["skew.vertex_pairs"] += nv * nv
    counts["skew.blocks"] += sum(1 for m in result.mult.values() if m)


def _observe_group(counts, originals, args, kwargs, result):
    counts["monomial_group.elements"] += result.order


def _observe_build_quiver(counts, originals, args, kwargs, result):
    counts["mckay_quiver.vertices"] += _arg(args, kwargs, 0, "quotient").order


OBSERVERS = {
    "cuts.enumerate_cuts": _observe_enumerate,
    "lattice.admissible_bases": _observe_admissible_bases,
    "skew.skew_quiver": _observe_skew_quiver,
    "monomial_group.group_from_basis": _observe_group,
    "mckay_quiver.build_quiver": _observe_build_quiver,
}


def public_functions() -> dict[str, object]:
    """``"layer.name"`` -> function, for every layer's exported functions."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules[f"mckay.{layer}"]
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name, None)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                found[f"{layer}.{name}"] = fn
    return found


class Tracer:
    """Span and counter recorder; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.job = -1
        self._stack: list[int] = []
        self._quiet = 0
        self._patched: list[tuple[object, str, object]] = []
        self.originals: dict[str, object] = {}

    # -- wrappers -----------------------------------------------------------

    def _span_wrapper(self, name, fn):
        spans, stack, counts, originals = self.spans, self._stack, self.counts, self.originals
        observe = OBSERVERS.get(name)
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            if self._quiet:
                return fn(*args, **kwargs)
            rec = [name, 0, 0, stack[-1] if stack else -1, self.job, False]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                rec[5] = True
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, originals, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            if self._quiet:
                return fn(*args, **kwargs)
            counts[key] += 1
            self._quiet += 1
            try:
                return fn(*args, **kwargs)
            finally:
                self._quiet -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own calls into mckay."""
        self._quiet += 1
        try:
            yield
        finally:
            self._quiet -= 1

    # -- patching -----------------------------------------------------------

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        self.originals = public_functions()
        wrappers = {}
        for name, fn in self.originals.items():
            if name in UNTRACED:
                continue
            if name in COUNT_ONLY:
                wrappers[id(fn)] = self._count_wrapper(name, fn)
            else:
                wrappers[id(fn)] = self._span_wrapper(name, fn)
        for modname, mod in list(sys.modules.items()):
            if modname != "mckay" and not modname.startswith("mckay."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None and inspect.isfunction(value):
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def write(self, path) -> None:
        """Write every span and counter once, as one JSON document."""
        doc = {
            "fields": ["name", "start_ns", "end_ns", "parent", "job", "error"],
            "spans": self.spans,
            "counts": dict(sorted(self.counts.items())),
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Span-tree arithmetic.


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus its children's durations.  The tracer is
    single-threaded and stack-based, so children nest inside their parent
    and never overlap."""
    out = [end - start for _, start, end, *_rest in spans]
    for _, start, end, parent, *_rest in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list[list], counts: Counter, job_ns: int, passes: int) -> dict[str, float]:
    """Per-layer metrics per deck pass; shares are of the summed job time."""
    selfs = self_times(spans)
    calls: Counter = Counter()
    errors: Counter = Counter()
    layer_ns: Counter = Counter()
    fn_ns: Counter = Counter()
    for rec, own in zip(spans, selfs):
        name = rec[0]
        layer = name.split(".", 1)[0]
        calls[layer] += 1
        errors[layer] += rec[5]
        layer_ns[layer] += own
        fn_ns[name] += own
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer] / passes
        out[f"{layer}.self_ms"] = layer_ns[layer] / passes / 1e6
        out[f"{layer}.self_share"] = _ratio(layer_ns[layer], job_ns)
        out[f"{layer}.errors"] = errors[layer] / passes
    for name in FUNCTIONS:
        out[f"{name}.self_ms"] = fn_ns[name] / passes / 1e6
    for name in sorted(COUNT_ONLY):
        out[f"{name}.calls"] = counts[f"{name}.calls"] / passes
    for key in WORK_COUNTS:
        out[key] = counts[key] / passes
    out["cuts.type_yield"] = _ratio(counts["cuts.types_found"], counts["cuts.cuts_enumerated"])
    out["lattice.admissible_yield"] = _ratio(
        counts["lattice.bases_found"], counts["lattice.triples_scanned"]
    )
    out["skew.block_density"] = _ratio(counts["skew.blocks"], counts["skew.vertex_pairs"])
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
