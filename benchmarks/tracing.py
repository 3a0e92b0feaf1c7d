"""Traced in-process runs of the CLI: spans around calls into each lbo module.

The tracer replaces functions by wrappers that record one span per call:
name, start, end, parent span and record index.  It patches every module
attribute bound to a traced function, so ``lbo.orbit.canonical_form`` and
the ``canonical_form`` name imported into ``lbo.cli`` (or ``lbo.rslice``)
record alike, and restores them afterwards.  Nothing in ``src/lbo`` changes.

Span names are ``<module>.<function>`` for the library modules, plus two CLI
stages: ``cli.parse`` (``json.loads`` of a record line and the ``wedge`` of a
vector pair) and ``cli.dumps`` (canonical serialisation of an output record).
The record index of a span is read from the record id ("r0000042") when the
CLI decodes or serialises a record, and from the line count when it parses.
Spans stay in memory during a pass; the first traced pass is written to
``benchmarks/out/`` when the run ends.
"""
from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import inspect
import io
import itertools
import json
import threading
import time
from collections import defaultdict

import workloads as W

MODULES = ("minkowski", "wedge", "orbit", "stabilizer", "rslice")
# Private helpers that are stages in their own right.
PRIVATE_TRACED = {"_compound", "_apply"}
# Coercion helpers called by nearly every function; they stay in their caller's self time.
UNTRACED = {"as_bivector", "as_vec4"}

PER_LAYER_UNITS = {
    "cli.parse.us_per_record": "us",
    "cli.dumps.us_per_record": "us",
    "cli.dumps.bytes_per_record": "B",
    "cli.unattributed.us_per_record": "us",
    "wedge.compound.calls_per_record": "count",
    "wedge.compound.us_per_call": "us",
    "wedge.in_light_cone.calls_per_record": "count",
    "wedge.self.us_per_record": "us",
    "orbit.canonical_form.calls_per_record": "count",
    "orbit.canonical_form.us_per_call": "us",
    "orbit.orbit_class.calls_per_record": "count",
    "orbit.canonical_representative.us_per_call": "us",
    "orbit.reconstruct.us_per_call": "us",
    "orbit.self.us_per_record": "us",
    "stabilizer.stabilizer_generators.calls_per_record": "count",
    "stabilizer.stabilizer_generators.us_per_call": "us",
    "stabilizer.fixing_residual.calls_per_record": "count",
    "stabilizer.fixing_residual.us_per_call": "us",
    "stabilizer.self.us_per_record": "us",
    "rslice.slice_topology.us_per_call": "us",
    "rslice.in_slice.us_per_call": "us",
    "rslice.empirical_min_radius.s_per_call": "s",
    "rslice.self.us_per_record": "us",
    "minkowski.generator.calls_per_record": "count",
    "minkowski.lorentz_inverse.calls_per_record": "count",
    "minkowski.random_proper_lorentz.us_per_call": "us",
    "minkowski.self.us_per_record": "us",
    "trace.overhead_ratio": "ratio",
}


def _record_index(rid) -> int | None:
    if isinstance(rid, str) and rid[1:].isdigit():
        return int(rid[1:])
    return None


class Tracer:
    """Span recorder plus the patches that install it; use as a context manager."""

    def __init__(self):
        self.spans: list = []  # (span id, name, start ns, end ns, parent id, record)
        self.bytes_out = 0
        self._local = threading.local()
        self._ids = itertools.count()
        self._undo: list = []

    # -- recording

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_record(self, index) -> None:
        self._local.record = index

    def wrap(self, name: str, fn, before=None, after=None):
        """Wrapper recording one span per call of fn.

        ``before(args)`` runs ahead of the span (to set the record index) and
        ``after(result)`` inside it (to count output bytes).
        """
        spans, local, ids, clock, stack_of = (
            self.spans,
            self._local,
            self._ids,
            time.perf_counter_ns,
            self._stack,
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            stack = stack_of()
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, getattr(local, "record", None)))

        return traced

    # -- patching

    def _patch(self, namespace, attr: str, value) -> None:
        self._undo.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, value)

    def _patch_everywhere(self, namespaces, original, wrapper) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, attr, wrapper)

    def __enter__(self):
        import lbo
        import lbo.cli as cli

        # not getattr(lbo, name): the package's `wedge` attribute is the function
        mods = {name: importlib.import_module(f"lbo.{name}") for name in MODULES}
        namespaces = (lbo, cli, *mods.values())
        parsed = itertools.count()

        class JsonWithTracedLoads:
            loads = staticmethod(
                self.wrap("cli.parse", json.loads, lambda args: self.set_record(next(parsed)))
            )

            def __getattr__(self, attr):
                return getattr(json, attr)

        def from_record(args):
            if isinstance(args[0], dict):
                self.set_record(_record_index(args[0].get("id")))

        def count_bytes(text):
            self.bytes_out += len(text)

        decode = cli._decode_record

        def decode_hook(obj):
            from_record((obj,))
            return decode(obj)

        self._patch(cli, "json", JsonWithTracedLoads())
        self._patch(cli, "wedge", self.wrap("cli.parse", cli.wedge))
        self._patch(cli, "dumps", self.wrap("cli.dumps", cli.dumps, from_record, count_bytes))
        self._patch(cli, "_decode_record", decode_hook)
        for short, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                if attr in UNTRACED or (attr.startswith("_") and attr not in PRIVATE_TRACED):
                    continue
                wrapper = self.wrap(f"{short}.{attr.lstrip('_')}", fn)
                self._patch_everywhere(namespaces, fn, wrapper)
        return self

    def __exit__(self, *exc):
        while self._undo:
            namespace, attr, value = self._undo.pop()
            setattr(namespace, attr, value)
        return False


# --- derived per-layer figures ---------------------------------------------------


def pass_totals(spans: list, wall_ns: int) -> dict:
    """Calls, inclusive and self nanoseconds per span name, and top-level coverage."""
    child_ns = defaultdict(int)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    calls, incl, self_ns = defaultdict(int), defaultdict(int), defaultdict(int)
    top = []
    for sid, name, start, end, parent, _ in spans:
        calls[name] += 1
        incl[name] += end - start
        self_ns[name] += end - start - child_ns[sid]
        if parent is None:
            top.append((start, end))
    covered, reach = 0, None
    for start, end in sorted(top):  # union of top-level spans over all threads
        if reach is None or start > reach:
            covered += end - start
            reach = end
        elif end > reach:
            covered += end - reach
            reach = end
    return {
        "calls": dict(calls),
        "incl_ns": dict(incl),
        "self_ns": dict(self_ns),
        "unattributed_ns": wall_ns - covered,
    }


def layer_metrics(t: dict, records: int, bytes_out: int, overhead_ratio: float) -> dict:
    """Per-layer metrics of one traced pass over ``records`` records."""
    calls, incl, self_ns = (defaultdict(int, t[k]) for k in ("calls", "incl_ns", "self_ns"))

    def per_record(ns) -> float:
        return ns / 1e3 / records

    def per_call(name, table=incl, scale=1e-3) -> float:
        return table[name] * scale / calls[name] if calls[name] else 0.0

    def layer_self(prefix) -> float:
        return per_record(sum(v for k, v in self_ns.items() if k.startswith(prefix + ".")))

    return {
        "cli.parse.us_per_record": per_record(incl["cli.parse"]),
        "cli.dumps.us_per_record": per_record(incl["cli.dumps"]),
        "cli.dumps.bytes_per_record": bytes_out / records,
        "cli.unattributed.us_per_record": per_record(t["unattributed_ns"]),
        "wedge.compound.calls_per_record": calls["wedge.compound"] / records,
        "wedge.compound.us_per_call": per_call("wedge.compound"),
        "wedge.in_light_cone.calls_per_record": calls["wedge.in_light_cone"] / records,
        "wedge.self.us_per_record": layer_self("wedge"),
        "orbit.canonical_form.calls_per_record": calls["orbit.canonical_form"] / records,
        "orbit.canonical_form.us_per_call": per_call("orbit.canonical_form"),
        "orbit.orbit_class.calls_per_record": calls["orbit.orbit_class"] / records,
        "orbit.canonical_representative.us_per_call": per_call(
            "orbit.canonical_representative", table=self_ns
        ),
        "orbit.reconstruct.us_per_call": per_call("orbit.reconstruct"),
        "orbit.self.us_per_record": layer_self("orbit"),
        "stabilizer.stabilizer_generators.calls_per_record": calls[
            "stabilizer.stabilizer_generators"
        ]
        / records,
        "stabilizer.stabilizer_generators.us_per_call": per_call("stabilizer.stabilizer_generators"),
        "stabilizer.fixing_residual.calls_per_record": calls["stabilizer.fixing_residual"] / records,
        "stabilizer.fixing_residual.us_per_call": per_call("stabilizer.fixing_residual"),
        "stabilizer.self.us_per_record": layer_self("stabilizer"),
        "rslice.slice_topology.us_per_call": per_call("rslice.slice_topology"),
        "rslice.in_slice.us_per_call": per_call("rslice.in_slice"),
        "rslice.empirical_min_radius.s_per_call": per_call(
            "rslice.empirical_min_radius", scale=1e-9
        ),
        "rslice.self.us_per_record": layer_self("rslice"),
        "minkowski.generator.calls_per_record": calls["minkowski.generator"] / records,
        "minkowski.lorentz_inverse.calls_per_record": calls["minkowski.lorentz_inverse"] / records,
        "minkowski.random_proper_lorentz.us_per_call": per_call("minkowski.random_proper_lorentz"),
        "minkowski.self.us_per_record": layer_self("minkowski"),
        "trace.overhead_ratio": overhead_ratio,
    }


# --- the traced run ----------------------------------------------------------------


def _call_main(argv):
    """Run lbo.cli.main in this process; return (wall ns, exit code, stdout bytes)."""
    import lbo.cli as cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        start = time.perf_counter_ns()
        code = cli.main(list(argv))
        wall = time.perf_counter_ns() - start
    return wall, code, out.getvalue().encode("utf-8")


def traced_run(wl, seed: int, seconds: float):
    """Alternate untraced and traced in-process passes for ``seconds``.

    Returns (per-layer samples, one per traced pass; tally; extra result fields).
    """
    argv, check = W.build_input(wl, seed, wl.trace_records, wl.trace_argv)
    tally = W.Tally()
    samples = {k: [] for k in PER_LAYER_UNITS}
    first_calls, first_spans = None, None
    start = time.perf_counter()
    passes = 0
    while True:
        plain_ns, code, stdout = _call_main(argv)
        tally.add(check(stdout, code), hashlib.sha256(stdout).hexdigest(), code)
        with Tracer() as tracer:
            traced_ns, code, stdout = _call_main(argv)
        tally.add(check(stdout, code), hashlib.sha256(stdout).hexdigest(), code)
        passes += 1
        totals = pass_totals(tracer.spans, traced_ns)
        figures = layer_metrics(totals, wl.trace_records, tracer.bytes_out, traced_ns / plain_ns)
        for k, v in figures.items():
            samples[k].append(v)
        if first_spans is None:
            first_calls, first_spans = totals["calls"], tracer.spans
        elif totals["calls"] != first_calls:
            tally.problems.append(f"call counts of traced pass {passes} differ from the first")
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / passes > seconds:
            break
    if len(tally.outputs) > 1:
        tally.problems.append("tracing changed the output bytes")
    _write_spans(wl, seed, first_spans)
    return samples, tally, {"traced_passes": passes, "calls_per_pass": first_calls}


def _write_spans(wl, seed: int, spans: list) -> None:
    W.OUT.mkdir(exist_ok=True)
    path = W.OUT / f"spans-{wl.name}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for sid, name, start, end, parent, record in sorted(spans, key=lambda s: s[2]):
            f.write(
                json.dumps(
                    {"id": sid, "name": name, "start_ns": start, "end_ns": end,
                     "parent": parent, "record": record}
                )
                + "\n"
            )
