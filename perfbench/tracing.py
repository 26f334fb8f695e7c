"""Spans around the public functions of the uwps layer modules.

The tracer wraps every public function of the six layer modules from the
outside; the program itself is not changed. `channel` and `cli` bind these
functions with `from ... import`, and `verify` keeps direct references in
`_CHECKS` and in a default argument, so the wrapper is patched into every
such place, and taken out again by `uninstall`.

Spans are kept in memory as parallel arrays (name, start, end, parent,
outcome) and written out by `write`.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array

import spec
import stats

LAYERS = ("geo", "protocol", "multilateration", "channel", "cli", "verify")
OK, NOOP = 0, 1   # outcome codes; higher codes index exception class names


class TraceError(Exception):
    """The trace does not cover the layers it must, or covers a bypassed one."""


def _public_functions(module):
    return {name: fn for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__}


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.outcome_names = ["ok", "noop"]
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.outcomes = array("H")
        self._stack: list[int] = []
        self._undo = []
        self._wrappers = {}      # id(original) -> wrapper
        for layer in LAYERS:
            module = importlib.import_module(f"uwps.{layer}")
            for name, fn in _public_functions(module).items():
                self._wrappers[id(fn)] = self._wrap(f"{layer}.{name}", fn)

    # -- recording -------------------------------------------------------

    def _outcome_id(self, name: str) -> int:
        if name not in self.outcome_names:
            self.outcome_names.append(name)
        return self.outcome_names.index(name)

    def _wrap(self, span_name, fn):
        span_id = len(self.span_names)
        self.span_names.append(span_name)
        names, starts, ends = self.name_ids, self.starts, self.ends
        parents, outcomes, stack = self.parents, self.outcomes, self._stack
        clock = time.perf_counter
        # numerical_solve returning its initial guess untouched is a no-op call
        noop_check = span_name == "multilateration.numerical_solve"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(span_id)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            outcomes.append(OK)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[index] = clock()
                outcomes[index] = self._outcome_id(type(exc).__name__)
                raise
            else:
                ends[index] = clock()
                if noop_check:
                    initial = args[2] if len(args) > 2 else kwargs["initial"]
                    if result == initial:
                        outcomes[index] = NOOP
                return result
            finally:
                starts[index] = start
                stack.pop()

        return wrapper

    # -- patching --------------------------------------------------------

    def _swap(self, value):
        """value with every wrapped function inside it replaced, or None."""
        if inspect.isfunction(value):
            return self._wrappers.get(id(value))
        if isinstance(value, tuple):
            swapped = [self._swap(item) for item in value]
            if any(s is not None for s in swapped):
                return tuple(item if s is None else s for item, s in zip(value, swapped))
        return None

    def install(self):
        """Patch the wrappers into every uwps namespace that holds a function."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "uwps" or name.startswith("uwps."))]
        for module in modules:
            namespace = vars(module)
            for key, value in list(namespace.items()):
                swapped = self._swap(value)
                if swapped is not None:
                    self._set(namespace, key, swapped)
                elif isinstance(value, list):
                    for i, item in enumerate(value):
                        swapped = self._swap(item)
                        if swapped is not None:
                            self._set(value, i, swapped)
                if inspect.isfunction(value) and value.__defaults__:
                    swapped = self._swap(value.__defaults__)
                    if swapped is not None:
                        self._undo.append((value, value.__defaults__))
                        value.__defaults__ = swapped

    def _set(self, container, key, value):
        self._undo.append((container, key, container[key]))
        container[key] = value

    def uninstall(self):
        while self._undo:
            entry = self._undo.pop()
            if len(entry) == 3:
                container, key, value = entry
                container[key] = value
            else:
                fn, defaults = entry
                fn.__defaults__ = defaults

    def write(self, path):
        """All spans as gzipped tab-separated text, one line per span."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            out.write("index\tname\tstart_s\tend_s\tparent\toutcome\n")
            for i, (n, s, e, p, o) in enumerate(zip(self.name_ids, self.starts, self.ends,
                                                    self.parents, self.outcomes)):
                out.write(f"{i}\t{self.span_names[n]}\t{s!r}\t{e!r}\t{p}\t"
                          f"{self.outcome_names[o]}\n")


# -- per-layer metrics -----------------------------------------------------

def _span_table(tracer):
    """span name -> list of span indices."""
    table: dict[str, list[int]] = {}
    for i, n in enumerate(tracer.name_ids):
        table.setdefault(tracer.span_names[n], []).append(i)
    return table


def check_expectations(workload, table, property_spans):
    """Raise TraceError where a span breaks the layer table for this workload."""
    expectations = dict(spec.SPAN_EXPECTATIONS)
    for span in property_spans.values():
        expectations[span] = ({"verify"}, spec.ALL - {"verify"})
    problems = []
    for span, (required, forbidden) in expectations.items():
        calls = len(table.get(span, ()))
        if workload in required and calls == 0:
            problems.append(f"{span} recorded no calls on {workload}")
        if workload in forbidden and calls:
            problems.append(f"{span} recorded {calls} calls on {workload}, "
                            "which should bypass it")
    if problems:
        raise TraceError("; ".join(problems))


def layer_metrics(tracer, workload, ops, cli_calls, property_spans, time_scale=1.0):
    """Every per-layer metric of BENCHMARK.json that the trace gives.

    A metric's name is its span and a kind: `geo.geodetic_to_enu.us_per_call`
    is the kind `us_per_call` of the span `geo.geodetic_to_enu`, and
    `verify.<property>.s` the median time of a property's check function.
    Names that are not spans, as `trace.overhead_share`, are left to the
    caller. ops is the number of operations (frames, or properties on
    verify) run while tracing, cli_calls the number of `uwps` calls.
    property_spans maps each verify property name to its check function's
    span name. Every time is multiplied by time_scale, which converts it to
    the reference speed.
    """
    table = _span_table(tracer)
    check_expectations(workload, table, property_spans)
    starts, ends, outcomes = tracer.starts, tracer.ends, tracer.outcomes
    # A self time excludes every nested span of another layer function. The
    # cli commands, parser and printing stay inside cli.main's self time.
    keep = {i for name, indices in table.items()
            if not name.startswith("cli.") or name in spec.SPAN_EXPECTATIONS
            for i in indices}
    self_time = stats.self_times(starts, ends, stats.collapse(tracer.parents, keep))
    duration = [end - start for start, end in zip(starts, ends)]

    def total_us(indices, durations):
        return sum(durations[i] for i in indices) * 1e6 * time_scale

    def share(indices, outcome=None):
        if outcome is None:
            failed = sum(1 for i in indices if outcomes[i] > NOOP)
        elif outcome in tracer.outcome_names:
            code = tracer.outcome_names.index(outcome)
            failed = sum(1 for i in indices if outcomes[i] == code)
        else:
            failed = 0
        return stats.fail_share(failed, len(indices))

    kinds = {
        "calls_per_frame": lambda c: len(c) / ops,
        "calls": lambda c: len(c) / cli_calls,
        "us_per_call": lambda c: total_us(c, duration) / len(c) if c else 0.0,
        "self_us_per_call": lambda c: total_us(c, self_time) / len(c) if c else 0.0,
        "us_per_frame": lambda c: total_us(c, duration) / ops,
        "self_us_per_frame": lambda c: total_us(c, self_time) / ops,
        "fail_share": share,
        "noop_share": lambda c: share(c, "noop"),
    }
    spans = set(spec.SPAN_EXPECTATIONS)
    m = {}
    for name, _ in spec.PER_LAYER:
        layer, _, rest = name.partition(".")
        if layer == "verify" and name.endswith(".s"):
            durations = [duration[i] * time_scale
                         for i in table.get(property_spans[rest[:-len(".s")]], ())]
            m[name] = stats.percentile(durations, 50) if durations else 0.0
            continue
        function, _, kind = rest.partition(".")
        span = f"{layer}.{function}"
        if span not in spans:
            continue
        indices = table.get(span, [])
        if kind.startswith("fail_share."):     # the share failing with one error class
            m[name] = share(indices, kind[len("fail_share."):])
        elif kind in kinds:
            m[name] = kinds[kind](indices)
        else:
            raise TraceError(f"per-layer metric {name}: unknown kind {kind!r}")
    return m
