"""Span tracing around azenum's public entry points.

The tracer wraps each function in `TARGETS` at every name a module looks
it up by (the method on `CPContext`, and each module global bound to the
function), records one span per call, and restores the original objects
when the `installed` block ends. Nothing is wrapped outside that block.

Per function it reports `<name>.calls` and `<name>.self_s` (inclusive
time minus the time of wrapped children); per layer `<layer>.errors`,
the number of distinct `AzenumError` exceptions that escaped a wrapped
call of that layer; and the counts and ratios in `OBSERVED`.
"""

from __future__ import annotations

import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterator, List

LAYERS = ("central_product", "automorphisms", "wqo", "az", "rado", "groups")

# (layer, attribute path in the layer's module, span name, report calls)
TARGETS = (
    [("central_product", f"CPContext.{m}", f"central_product.{m}", True)
     for m in ("make", "representative", "multiply", "minimal_representative",
               "compare", "enumerate", "all_cosets")]
    + [("central_product", "CPContext.__init__", "central_product.CPContext", True)]
    + [("automorphisms", f, f"automorphisms.{f}", True)
       for f in ("apply_word", "apply_perm", "apply_beta_star", "verify_automorphism")]
    + [("wqo", f, f"wqo.{f}", True)
       for f in ("find_increasing_pair", "is_subword", "is_star_embedded",
                 "column_word", "decode_column_embedding")]
    + [("az", f, f"az.{f}", True)
       for f in ("run_az", "normalize_family", "letter_word", "build_beta",
                 "apply_beta", "beta_as_word")]
    + [("rado", f, f"rado.{f}", True)
       for f in ("build_triples", "first_cycle_bound", "minimal_exact_vertex",
                 "check_obstruction", "is_induced_cycle", "neighborhood_in_prefix")]
    + [("groups", f, f"groups.{f}", False)
       for f in ("catalog_group", "make_kgroup", "make_standard_kgroup")]
)

# find_increasing_pair reports per mode rather than under its own name
PAIR_MODES = ("star", "higman")

# derived per-layer figures: (metric, unit)
OBSERVED = (
    ("automorphisms.verify_automorphism.pairs_checked", "count"),
    ("automorphisms.verify_automorphism.domain_size", "count"),
    ("wqo.is_subword.hit_ratio", "ratio"),
    ("wqo.is_star_embedded.hit_ratio", "ratio"),
    ("wqo.words_scanned", "count"),
    ("az.normalize_family.kept_ratio", "ratio"),
    ("az.checks", "count"),
)

SPAN_CAP = 50_000


def span_names() -> List[str]:
    names = []
    for _, _, name, _ in TARGETS:
        if name == "wqo.find_increasing_pair":
            names += [f"{name}.{mode}" for mode in PAIR_MODES]
        else:
            names.append(name)
    return names


def metric_units() -> Dict[str, str]:
    """Every per-layer metric the tracer reports, with its unit."""
    units: Dict[str, str] = {}
    reports_calls = {name: calls for _, _, name, calls in TARGETS}
    for name in span_names():
        if reports_calls.get(name, True):
            units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update(OBSERVED)
    for layer in LAYERS:
        units[f"{layer}.errors"] = "count"
    return units


def _is_azenum_error(exc: BaseException) -> bool:
    # class identity changes when azenum is imported afresh; match by name
    return any(cls.__name__ == "AzenumError" for cls in type(exc).__mro__)


class Tracer:
    def __init__(self):
        self.names = span_names()
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.counts = {name: 0 for name, _ in OBSERVED}
        self._hits = {"wqo.is_subword": 0, "wqo.is_star_embedded": 0}
        self._family = [0, 0]  # members kept, members given
        self._errors = {layer: [] for layer in LAYERS}
        self._stack: List[list] = []  # frames: [span id, child time]
        self._next_span = 0
        self.item = -1
        # span log, capped; aggregates above cover every call
        self._log_name = array("H")
        self._log_start = array("d")
        self._log_end = array("d")
        self._log_parent = array("q")
        self._log_item = array("q")

    # -- installation ------------------------------------------------------

    @contextmanager
    def installed(self, mods: Dict[str, object], item: int) -> Iterator[None]:
        """Wrap every target found in `mods` (layer name -> module) and
        restore the original objects on exit."""
        self.item = item
        patches = []
        loaded = list(mods.values())
        try:
            for layer, path, name, _ in TARGETS:
                module = mods.get(layer)
                if module is None:
                    continue
                if "." in path:
                    cls_name, attr = path.split(".")
                    owner = getattr(module, cls_name)
                    original = owner.__dict__[attr]
                    patches.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(original, name, layer))
                    continue
                original = getattr(module, path)
                wrapper = self._wrap(original, name, layer)
                for other in loaded:
                    for key, value in list(vars(other).items()):
                        if value is original:
                            patches.append((other, key, original))
                            setattr(other, key, wrapper)
            yield
        finally:
            for owner, attr, original in reversed(patches):
                setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        stack = self._stack
        ids = self._ids
        observe = _OBSERVERS.get(name)
        by_mode = name == "wqo.find_increasing_pair"
        fixed = ids[f"{name}.star"] if by_mode else ids[name]

        def wrapper(*args, **kwargs):
            sid = fixed
            if by_mode:
                mode = args[1] if len(args) > 1 else kwargs.get("mode")
                sid = ids.get(f"{name}.{mode}", fixed)
            span = self._next_span
            self._next_span = span + 1
            parent = stack[-1][0] if stack else -1
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if _is_azenum_error(exc):
                    self._note_error(layer, exc)
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                self.calls[sid] += 1
                self.self_s[sid] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if span < SPAN_CAP:
                    self._log(sid, start, end, parent)
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.perfbench_span = name
        return wrapper

    def _log(self, sid: int, start: float, end: float, parent: int) -> None:
        self._log_name.append(sid)
        self._log_start.append(start)
        self._log_end.append(end)
        self._log_parent.append(parent)
        self._log_item.append(self.item)

    def exclude(self, seconds: float) -> None:
        """Charge `seconds` of benchmark work to no span: the innermost
        open span counts it as child time."""
        if self._stack:
            self._stack[-1][1] += seconds

    def _note_error(self, layer: str, exc: BaseException) -> None:
        seen = self._errors[layer]
        if not any(e is exc for e in seen):
            seen.append(exc)

    # -- results -----------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        out: Dict[str, float] = {}
        units = metric_units()
        for i, name in enumerate(self.names):
            if f"{name}.calls" in units:
                out[f"{name}.calls"] = self.calls[i]
            out[f"{name}.self_s"] = self.self_s[i]
        out.update(self.counts)
        for key, hits in self._hits.items():
            calls = self.calls[self._ids[key]]
            out[f"{key}.hit_ratio"] = hits / calls if calls else 0.0
        kept, given = self._family
        out["az.normalize_family.kept_ratio"] = kept / given if given else 0.0
        for layer, seen in self._errors.items():
            out[f"{layer}.errors"] = len(seen)
        return out

    def write_spans(self, path) -> None:
        """Write the span log as JSON: names, then one
        [name, start_s, end_s, parent_span, item] row per span; a span's id
        is its row number."""
        rows = zip(self._log_name, self._log_start, self._log_end,
                   self._log_parent, self._log_item)
        with open(path, "w") as fh:
            json.dump({
                "names": self.names,
                "spans": [[self.names[n], s, e, p, i] for n, s, e, p, i in rows],
                "dropped": max(0, self._next_span - SPAN_CAP),
            }, fh)


def _observe_hit(key: str):
    def observe(tracer: Tracer, args, kwargs, result) -> None:
        if result is not None:
            tracer._hits[key] += 1
    return observe


def _observe_pair(tracer: Tracer, args, kwargs, result) -> None:
    words = args[0] if args else kwargs["words"]
    if result is not None:
        tracer.counts["wqo.words_scanned"] += result.j + 1
    elif hasattr(words, "__len__"):
        tracer.counts["wqo.words_scanned"] += len(words)


def _observe_family(tracer: Tracer, args, kwargs, result) -> None:
    fam = args[0] if args else kwargs["fam"]
    tracer._family[0] += len(result.kept)
    tracer._family[1] += len(fam.members)


def _observe_run_az(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["az.checks"] += sum(r["of"] for r in result.reports.values())


def _observe_verify(tracer: Tracer, args, kwargs, result) -> None:
    tracer.counts["automorphisms.verify_automorphism.pairs_checked"] += result.pairs_checked
    tracer.counts["automorphisms.verify_automorphism.domain_size"] += result.size


_OBSERVERS = {
    "wqo.is_subword": _observe_hit("wqo.is_subword"),
    "wqo.is_star_embedded": _observe_hit("wqo.is_star_embedded"),
    "wqo.find_increasing_pair": _observe_pair,
    "az.normalize_family": _observe_family,
    "az.run_az": _observe_run_az,
    "automorphisms.verify_automorphism": _observe_verify,
}


def installed_wrappers(mods: Dict[str, object]) -> List[str]:
    """Names in `mods` currently bound to a tracer wrapper."""
    found = []
    for layer, module in mods.items():
        for key, value in vars(module).items():
            if hasattr(value, "perfbench_span"):
                found.append(f"{layer}.{key}")
        cls = vars(module).get("CPContext")
        if cls is not None:
            found += [f"{layer}.CPContext.{k}" for k, v in vars(cls).items()
                      if hasattr(v, "perfbench_span")]
    return sorted(set(found))
