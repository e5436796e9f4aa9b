"""Spans around the calls into each layer of grdcalc, recorded from outside.

``Tracer.install`` replaces every layer function at every name it is bound
to: module attributes (``castelnuovo_count`` is imported by name into four
modules), values of module-level dicts (``pushforward._CLOSED_FORMS`` holds
``alpha``, ``beta`` and ``gamma``) and class attributes, aliases included
(``RatFunc.__radd__`` is ``RatFunc.__add__``).  It then checks that no
original is left anywhere in the package.  The source of grdcalc is not
touched.

A span is ``[layer, function, start, end, parent, item]``.  Spans stay in
memory; ``summary`` reduces them to per-layer metrics and ``dump`` writes
them out.  Counts that need the arguments or the result (Pieri terms,
matrix sizes, bit lengths) are taken after the item ends, outside every
span.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
import time
from fractions import Fraction

# layer -> (module, attribute or Class.attribute) of each function in it
LAYERS = {
    "invariants.count": [("invariants", "castelnuovo_count")],
    "schubert.closed": [("schubert", "special_power_integral")],
    "schubert.pieri": [("schubert", "zeta_power_integral_pieri"), ("schubert", "pieri_multiply")],
    "linalg.solve": [("linalg", "solve_unique")],
    "families": [("families", name) for name in (
        "push_marked", "push_m21", "push_mogb", "sheet_counts", "weierstrass_alpha",
        "weierstrass_gamma", "reconstruct_push_m21", "m21_push_product")],
    "pushforward.assemble": [("pushforward", "solve_from_families")],
    "pushforward.closed": [("pushforward", name) for name in (
        "alpha", "beta", "gamma", "closed_form", "combination")],
    "picard.class_ops": [("picard", "DivisorClass." + name) for name in (
        "__init__", "__add__", "scale")],
    "slope.report": [("slope", "slope_report")],
    "exact.ratfunc": [("exact", "RatFunc." + name) for name in (
        "__init__", "__add__", "__neg__", "__sub__", "__rsub__", "__mul__",
        "__truediv__", "__rtruediv__", "eval")] + [("exact", "ratfunc_equal")],
    "cli.main": [("cli", "main")],
}

CLOSED_BUILDS = {"alpha", "beta", "gamma"}


def _bits(x) -> int:
    x = Fraction(x)
    return max(x.numerator.bit_length(), x.denominator.bit_length())


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.item = None
        self.active = False
        self.pending: list[tuple] = []
        self.counts = {"terms_total": 0, "terms_peak": 0, "cells": 0, "solve_bits_max": 0,
                       "coeffs_built": 0, "reports": 0, "report_bits_max": 0}
        self.matrices: set = set()

    def _wrap(self, layer: str, fn):
        spans, stack, pending, clock = self.spans, self.stack, self.pending, time.perf_counter
        name = fn.__qualname__
        keep = name in ("pieri_multiply", "solve_unique", "slope_report") or name in CLOSED_BUILDS

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [layer, name, clock(), 0.0, stack[-1] if stack else -1, self.item]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if keep:
                pending.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every layer function at every binding inside grdcalc."""
        package = importlib.import_module("grdcalc")
        for info in pkgutil.iter_modules(package.__path__):
            importlib.import_module("grdcalc." + info.name)
        originals = {}
        for layer, targets in LAYERS.items():
            for module, attr in targets:
                obj = importlib.import_module("grdcalc." + module)
                for part in attr.split("."):
                    obj = getattr(obj, part)
                originals[id(obj)] = (obj, self._wrap(layer, obj))
        done = set()

        def swap(value):
            entry = originals.get(id(value))
            if entry is None or entry[0] is not value:
                return None
            done.add(id(value))
            return entry[1]

        _rebind(swap)
        left = _rebind(lambda v: v if id(v) in originals and originals[id(v)][0] is v else None,
                       dry_run=True)
        if left or len(done) < len(originals):
            raise RuntimeError(f"tracer left {left} bindings unwrapped and wrapped "
                               f"{len(done)} of {len(originals)} functions")

    def begin_item(self, item_id) -> None:
        self.item = item_id
        self.active = True

    def end_item(self) -> None:
        self.active = False
        self.item = None
        for name, args, result in self.pending:
            if name == "pieri_multiply":
                n = len(result.terms)
                self.counts["terms_total"] += n
                self.counts["terms_peak"] = max(self.counts["terms_peak"], n)
            elif name == "solve_unique":
                rows, rhs = args[0], args[1]
                self.counts["cells"] += len(rows) * len(rows[0])
                bits = max(_bits(x) for seq in (*rows, rhs, result) for x in seq)
                self.counts["solve_bits_max"] = max(self.counts["solve_bits_max"], bits)
                self.matrices.add(hash(tuple(tuple(Fraction(x) for x in row) for row in rows)))
            elif name == "slope_report":
                self.counts["reports"] += 1
                bits = max(_bits(x) for x in (result.lambda_coeff, result.delta0_coeff,
                                              result.ratio, result.gap))
                self.counts["report_bits_max"] = max(self.counts["report_bits_max"], bits)
            else:
                self.counts["coeffs_built"] += len(result.coeffs)
        self.pending.clear()

    def summary(self, n_items: int) -> dict:
        """Per-layer metrics of everything recorded so far."""
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[4] >= 0:
                child[s[4]] += s[3] - s[2]
        calls = dict.fromkeys(LAYERS, 0)
        busy = dict.fromkeys(LAYERS, 0.0)
        self_s = dict.fromkeys(LAYERS, 0.0)
        fn_calls: dict[str, int] = {}
        for i, s in enumerate(spans):
            layer, dur = s[0], s[3] - s[2]
            calls[layer] += 1
            fn_calls[s[1]] = fn_calls.get(s[1], 0) + 1
            self_s[layer] += dur - child[i]
            p = s[4]
            while p >= 0 and spans[p][0] != layer:
                p = spans[p][4]
            if p < 0:
                busy[layer] += dur
        c = self.counts
        solves = calls["linalg.solve"]
        builds = sum(fn_calls.get(n, 0) for n in CLOSED_BUILDS)
        return {
            "schubert.pieri.busy_s": busy["schubert.pieri"],
            "schubert.pieri.self_s": self_s["schubert.pieri"],
            "schubert.pieri.multiplies": fn_calls.get("pieri_multiply", 0),
            "schubert.pieri.terms_total": c["terms_total"],
            "schubert.pieri.terms_peak": c["terms_peak"],
            "schubert.closed.busy_s": busy["schubert.closed"],
            "invariants.count.calls": calls["invariants.count"],
            "invariants.count.calls_per_item": calls["invariants.count"] / max(1, n_items),
            "invariants.count.busy_s": busy["invariants.count"],
            "linalg.solve.busy_s": busy["linalg.solve"],
            "linalg.solve.self_s": self_s["linalg.solve"],
            "linalg.solve.calls": solves,
            "linalg.solve.cells": c["cells"],
            "linalg.solve.bits_max": c["solve_bits_max"],
            "linalg.solve.distinct_ratio": len(self.matrices) / solves if solves else 0.0,
            "families.busy_s": busy["families"],
            "pushforward.assemble.self_s": self_s["pushforward.assemble"],
            "pushforward.closed.busy_s": busy["pushforward.closed"],
            "pushforward.closed.self_s": self_s["pushforward.closed"],
            "pushforward.closed.calls": builds,
            "pushforward.closed.coeffs_built": c["coeffs_built"],
            "slope.coeff_use_ratio": (2 * c["reports"] / c["coeffs_built"]
                                      if c["reports"] and c["coeffs_built"] else 0.0),
            "picard.class_ops.calls": calls["picard.class_ops"],
            "picard.class_ops.busy_s": busy["picard.class_ops"],
            "picard.class_ops.self_s": self_s["picard.class_ops"],
            "slope.report.self_s": self_s["slope.report"],
            "slope.report.bits_max": c["report_bits_max"],
            "exact.ratfunc.busy_s": busy["exact.ratfunc"],
            "cli.main.busy_s": busy["cli.main"],
        }

    def dump(self, path, items: list) -> None:
        """Write the spans and each item's genus and time as JSON."""
        with open(path, "w") as fh:
            json.dump({"span_fields": ["layer", "function", "start", "end", "parent", "item"],
                       "spans": self.spans, "items": items}, fh)


def _rebind(replacement, dry_run: bool = False) -> int:
    """Apply replacement(value) to every binding in grdcalc; count the hits."""
    hits = 0
    seen_classes = set()
    for name, module in list(sys.modules.items()):
        if not (name == "grdcalc" or name.startswith("grdcalc.")):
            continue
        for attr, value in list(vars(module).items()):
            new = replacement(value)
            if new is not None:
                hits += 1
                if not dry_run:
                    setattr(module, attr, new)
            elif isinstance(value, dict):
                for key, v in list(value.items()):
                    new = replacement(v)
                    if new is not None:
                        hits += 1
                        if not dry_run:
                            value[key] = new
            elif (isinstance(value, type) and value.__module__.startswith("grdcalc")
                  and value not in seen_classes):
                seen_classes.add(value)
                for cattr, v in list(vars(value).items()):
                    new = replacement(v)
                    if new is not None:
                        hits += 1
                        if not dry_run:
                            setattr(value, cattr, new)
    return hits
