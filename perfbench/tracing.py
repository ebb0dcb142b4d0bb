"""Span tracing for the benchmark's traced run, installed from outside the library.

``Tracer.install`` wraps the public callables of the five layers (the
modules ``reidemeister.cli``, ``spectra``, ``groups``, ``twisted`` and
``exactlin``).  Every public module-level function becomes a span; the name
is rebound in every ``reidemeister.*`` module that imported it, so calls
between modules go through the wrapper too.  A few methods are wrapped on
their class: ``IntMatrix.det`` as a span, and the hot inner calls
(``IntMatrix.apply``, ``IntMatrix.__mul__`` and every family's
``multiply`` / ``inverse``) as plain counters, because a span per call
would cost more than the call itself.

A span records its name, start, end, parent span and request id.  Spans
stay in memory (compact column arrays) until the run ends.  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

from array import array
from collections import Counter
import functools
import inspect
import sys
import time

LAYERS = ("cli", "spectra", "groups", "twisted", "exactlin")

# rule ids that mark a hyperbolic input, whose answer may be "undecided"
HYPERBOLIC_RULES = frozenset({"z2:hyperbolic", "z3:hyperbolic-block", "ext:hyperbolic"})


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.request = array("q")
        self.counts: Counter = Counter()
        self.tallies: Counter = Counter()
        self.request_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def span(self, name: str, fn, on_result=None):
        nid = self._intern(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.request_id)
            self.end.append(0.0)
            stack.append(idx)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(self, idx, args, kwargs, result)
            return result

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def has_ancestor(self, idx: int, prefix: str) -> bool:
        p = self.parent[idx]
        while p >= 0:
            if self.names[self.name_id[p]].startswith(prefix):
                return True
            p = self.parent[p]
        return False

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every layer's public callables; undo with ``uninstall``."""
        from reidemeister import cli, exactlin, groups, spectra, twisted

        package = [m for name, m in sorted(sys.modules.items()) if name.startswith("reidemeister") and m]
        for layer, module in zip(LAYERS, (cli, spectra, groups, twisted, exactlin)):
            for attr, fn in sorted(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                if (layer, attr) == ("exactlin", "det"):
                    continue  # delegates to IntMatrix.det, which is the span
                name = "%s.%s" % (layer, attr)
                wrapper = self.span(name, fn, _HOOKS.get(name) or _prefix_hook(name))
                for mod in package:
                    for bound_name, value in list(vars(mod).items()):
                        if value is fn:
                            self._patch(mod, bound_name, wrapper)
        self._patch(exactlin.IntMatrix, "det", self.span("exactlin.det", exactlin.IntMatrix.det))
        self._patch(exactlin.IntMatrix, "apply", self.counter("exactlin.apply", exactlin.IntMatrix.apply))
        self._patch(exactlin.IntMatrix, "__mul__", self.counter("exactlin.matmul", exactlin.IntMatrix.__mul__))
        for cls in groups.GroupFamily.__subclasses__():
            for method in ("multiply", "inverse"):
                if method in vars(cls):
                    self._patch(cls, method, self.counter("groups." + method, vars(cls)[method]))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: [calls, total seconds, self seconds]; plus counters."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        covered = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                covered[p] += dur[i]
        spans: dict[str, list] = {}
        for i in range(n):
            row = spans.setdefault(self.names[self.name_id[i]], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += dur[i]
            row[2] += dur[i] - covered[i]
        return {"spans": spans, "counts": dict(self.counts), "tallies": dict(self.tallies)}

    def columns(self) -> dict:
        """The raw spans as parallel columns, for writing out at the end of a run."""
        return {
            "names": list(self.names),
            "name": list(self.name_id),
            "start": list(self.start),
            "end": list(self.end),
            "parent": list(self.parent),
            "request": list(self.request),
        }


# ---------------------------------------------------------------------------
# Result hooks: domain counters read where the work happens


def _classify_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    if tracer.has_ancestor(idx, "spectra.classify_"):
        return  # routed classification inside another; counted once, outermost
    if HYPERBOLIC_RULES.intersection(result.trace):
        tracer.tallies["hyperbolic_attempts"] += 1
        if result.spectrum.kind != "undecided":
            tracer.tallies["hyperbolic_decided"] += 1


def _decide_system2_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    if tracer.has_ancestor(idx, "spectra.classify_") or result.outcome == "proven-empty":
        return
    tracer.tallies["hyperbolic_attempts"] += 1
    if result.outcome != "none-up-to-bound":
        tracer.tallies["hyperbolic_decided"] += 1


def _label_classes_hook(tracer: Tracer, idx, args, kwargs, result) -> None:
    spec = args[0] if args else kwargs["spec"]
    radius = args[1] if len(args) > 1 else kwargs["radius"]
    slots = spec.family.slots
    # the oracle saturates the radius+1 and radius+2 balls
    tracer.tallies["ball_sites"] += (2 * radius + 3) ** slots + (2 * radius + 5) ** slots
    tracer.tallies["labelings"] += 1
    tracer.tallies["labelings_complete"] += int(result.complete)


_HOOKS = {
    "spectra.decide_system2": _decide_system2_hook,
    "groups.label_classes": _label_classes_hook,
}


def _prefix_hook(name: str):
    return _classify_hook if name.startswith("spectra.classify_") else None


# ---------------------------------------------------------------------------
# Per-layer metrics


def merge(into: dict, summary: dict) -> None:
    """Add one summary (e.g. from a CLI subprocess) into an accumulated one."""
    for name, row in summary["spans"].items():
        acc = into["spans"].setdefault(name, [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += row[i]
    for key in ("counts", "tallies"):
        for name, value in summary[key].items():
            into[key][name] = into[key].get(name, 0) + value


def empty_summary() -> dict:
    return {"spans": {}, "counts": {}, "tallies": {}}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    spans, counts, tallies = summary["spans"], summary["counts"], summary["tallies"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def self_s(name):
        return float(spans.get(name, (0, 0.0, 0.0))[2])

    classify = [n for n in spans if n.startswith("spectra.classify_")]
    label_total = spans.get("groups.label_classes", (0, 0.0, 0.0))[1]
    return {
        "cli.import_s": float(tallies.get("cli_import_s", 0.0)),
        "cli.run.self_s": float(sum(row[2] for n, row in spans.items() if n.startswith("cli."))),
        "cli.process_overhead_s": float(tallies.get("cli_process_overhead_s", 0.0)),
        "spectra.classify.calls": sum(calls(n) for n in classify),
        "spectra.classify.self_s": float(sum(self_s(n) for n in classify)),
        "spectra.decide_system2.calls": calls("spectra.decide_system2"),
        "spectra.decide_system2.self_s": self_s("spectra.decide_system2"),
        "spectra.decide_z3_eight.calls": calls("spectra.decide_z3_eight"),
        "spectra.decide_z3_eight.self_s": self_s("spectra.decide_z3_eight"),
        "spectra.classify_z2_minusI_ext.self_s": self_s("spectra.classify_z2_minusI_ext"),
        "spectra.canonicalize_z2_by_z2.self_s": self_s("spectra.canonicalize_z2_by_z2"),
        "spectra.tahara_delta.self_s": self_s("spectra.tahara_delta"),
        "spectra.decided_ratio": _ratio(tallies.get("hyperbolic_decided", 0), tallies.get("hyperbolic_attempts", 0)),
        "groups.label_classes.calls": calls("groups.label_classes"),
        "groups.label_classes.self_s": self_s("groups.label_classes"),
        "groups.ball_sites": tallies.get("ball_sites", 0),
        "groups.label_classes.sites_per_s": _ratio(tallies.get("ball_sites", 0), label_total),
        "groups.multiply.calls": counts.get("groups.multiply", 0),
        "groups.inverse.calls": counts.get("groups.inverse", 0),
        "groups.oracle.complete_ratio": _ratio(tallies.get("labelings_complete", 0), tallies.get("labelings", 0)),
        "groups.witness.self_s": self_s("groups.witness"),
        "groups.verify_automorphism.calls": calls("groups.verify_automorphism"),
        "groups.verify_automorphism.self_s": self_s("groups.verify_automorphism"),
        "groups.rnumber_with_trace.self_s": self_s("groups.rnumber_with_trace"),
        "twisted.r_abelian.calls": calls("twisted.r_abelian"),
        "twisted.r_abelian.self_s": self_s("twisted.r_abelian"),
        "twisted.r_averaging.self_s": self_s("twisted.r_averaging"),
        "exactlin.apply.calls": counts.get("exactlin.apply", 0),
        "exactlin.matmul.calls": counts.get("exactlin.matmul", 0),
        "exactlin.det.calls": calls("exactlin.det"),
        "exactlin.det.self_s": self_s("exactlin.det"),
        "exactlin.eigenvalue_profile.calls": calls("exactlin.eigenvalue_profile"),
        "exactlin.eigenvalue_profile.self_s": self_s("exactlin.eigenvalue_profile"),
        "exactlin.smith_normal_form.calls": calls("exactlin.smith_normal_form"),
        "exactlin.smith_normal_form.self_s": self_s("exactlin.smith_normal_form"),
        "exactlin.lattice_membership.calls": calls("exactlin.lattice_membership"),
        "exactlin.lattice_membership.self_s": self_s("exactlin.lattice_membership"),
    }
