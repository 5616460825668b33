"""In-memory span tracer for the benchmark's traced run.

Each traced function is wrapped in its defining module *and* in every
``symgeo`` module that bound it with ``from ... import``, so a call records a
span whichever name it goes through (``cli.r_profile`` as well as
``exponents.r_profile``).  A span is (id, parent id, op id, name, start, end);
spans stay in memory and are written once, when the run ends.  A layer's self
time is its span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """A function (``attr``) or method (``Class.method``) to wrap in a span."""

    module: str
    attr: str
    #: span name, span(args, kwargs) -> name for spans named per call, or
    #: None to count without a span
    span: str | Callable | None
    #: call(fn, args, kwargs, counters) -> result replaces the plain call,
    #: to count what the call did
    call: Callable | None = None


def _rows_call(fn, args, kwargs, counters):
    result = fn(*args, **kwargs)
    rows = 1
    for size in getattr(args[0], "shape", ())[:-2]:
        rows *= int(size)
    counters["modelcheck.iwasawa_H_batch_rows"] += rows
    return result


def _noisy_call(fn, args, kwargs, counters):
    result = fn(*args, **kwargs)
    counters["spherical.noisy"] += int(bool(result.variance_flag))
    return result


def _tries_call(fn, args, kwargs, counters):
    result = fn(*args, **kwargs)
    counters["ffengine.deform.center_tries"] += int(result.tries)
    return result


def _polychain_call(fn, args, kwargs, counters):
    # materialise the piece iterable once so its length can be counted; the
    # constructor consumes it exactly once either way
    bound = inspect.signature(fn).bind(*args, **kwargs)
    pieces = bound.arguments["pieces"] = list(bound.arguments["pieces"])
    fn(*bound.args, **bound.kwargs)
    counters["ffengine.chains.pieces_in"] += len(pieces)
    counters["ffengine.chains.pieces_out"] += len(bound.arguments["self"].pieces)


def _level_span(args, kwargs):
    m = kwargs["m"] if "m" in kwargs else args[2]
    return f"ffengine.deform.level{m}"


TARGETS = (
    Target("symgeo.cli", "main", "cli.main"),
    Target("symgeo.rootdata", "build_sln", "rootdata.build_sln"),
    Target("symgeo.rootdata", "build_rank_one", "rootdata.build_rank_one"),
    Target("symgeo.rootdata", "pair", "rootdata.pair"),
    Target("symgeo.rootdata", "rho", "rootdata.rho"),
    Target("symgeo.rootdata", "theta_so", "rootdata.theta_so"),
    Target("symgeo.exponents", "gap_covector", "exponents.gap_covector"),
    Target("symgeo.hesspec", "iwasawa_exp_spectrum", "hesspec.iwasawa_exp_spectrum"),
    Target("symgeo.exponents", "r_profile", "exponents.r_profile"),
    Target("symgeo.exponents", "r_lower_bound", "exponents.r_lower_bound"),
    Target("symgeo.exponents", "omega_contains", "exponents.omega_contains"),
    Target("symgeo.modelcheck", "iwasawa_H_batch", "modelcheck.iwasawa_H_batch",
           call=_rows_call),
    Target("symgeo.modelcheck", "iwasawa_H", "modelcheck.iwasawa_H"),
    Target("symgeo.modelcheck", "fd_hessian", "modelcheck.fd_hessian"),
    Target("symgeo.modelcheck", "monotonicity_profile", "modelcheck.monotonicity_profile"),
    Target("symgeo.spherical", "_haar_batch", "spherical.haar_batch"),
    Target("symgeo.spherical", "phi_lambda", "spherical.phi_lambda", call=_noisy_call),
    Target("symgeo.ffengine.deform", "ff_deform", "ffengine.deform.ff_deform"),
    Target("symgeo.ffengine.deform", "ff_step", _level_span),
    Target("symgeo.ffengine.deform", "select_center", "ffengine.deform.select_center",
           call=_tries_call),
    Target("symgeo.ffengine.deform", "project_piece", "ffengine.deform.project_piece"),
    Target("symgeo.ffengine.chains", "normalize_chain", "ffengine.chains.normalize_chain"),
    # no span: construction time stays with the caller (normalize_chain, ff_step)
    Target("symgeo.ffengine.chains", "PolyChain.__init__", None, call=_polychain_call),
    Target("symgeo.ffengine.torus", "random_loop_chain", "ffengine.torus.random_loop_chain"),
    Target("symgeo.ffengine.homology", "betti", "ffengine.homology.betti"),
    Target("symgeo.ffengine.homology", "BoundaryImage.__init__",
           "ffengine.homology.boundary_image"),
    Target("symgeo.ffengine.suite", "run_deformation_suite",
           "ffengine.suite.run_deformation_suite"),
    Target("symgeo.ffengine.suite", "vanishing_check", "ffengine.suite.vanishing_check"),
)


class Tracer:
    """Collects spans and per-name call counts, self and total times."""

    def __init__(self):
        self.spans: list[tuple] = []
        #: name -> [calls, self seconds, total seconds]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self._stack: list[list] = []  # [span id, start, child seconds, name]
        self._next_id = 0
        self._op = None
        self._patches: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def _push(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, time.perf_counter(), 0.0, name]
        self._stack.append(frame)
        return frame

    def _pop(self, frame: list):
        end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("span stack out of order")
        span_id, start, child, name = frame
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        entry = self.stats.setdefault(name, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration - child
        entry[2] += duration
        self.spans.append((span_id, parent[0] if parent else None, self._op, name, start, end))

    def run_op(self, name: str, fn: Callable):
        """Run one benchmark op as the root span of its own span tree."""
        frame = self._push(name)
        self._op = frame[0]
        try:
            return fn()
        finally:
            self._pop(frame)
            self._op = None

    def rescale(self, duration: Callable[[float, float], float]):
        """Recompute the per-name self and total times with each span's
        duration given by duration(start, end), e.g. in reference seconds.
        Spans are stored as they end, so children come before parents."""
        child: Counter = Counter()
        stats = {}
        for span_id, parent, _, name, start, end in self.spans:
            seconds = duration(start, end)
            entry = stats.setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += seconds - child.pop(span_id, 0.0)
            entry[2] += seconds
            if parent is not None:
                child[parent] += seconds
        self.stats = stats

    # -- patching ------------------------------------------------------------

    def _wrap(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        span = target.span

        def call(args, kwargs):
            if target.call is not None:
                return target.call(fn, args, kwargs, tracer.counters)
            return fn(*args, **kwargs)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if span is None:
                return call(args, kwargs)
            frame = tracer._push(span if isinstance(span, str) else span(args, kwargs))
            try:
                return call(args, kwargs)
            finally:
                tracer._pop(frame)

        return traced

    def install(self, targets=TARGETS):
        """Wrap every target whose module is loaded; uninstall() restores."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "symgeo" or name.startswith("symgeo."))]
        for target in targets:
            owner = sys.modules.get(target.module)
            if owner is None:
                continue
            if "." in target.attr:
                cls_name, method = target.attr.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[method]
                self._patches.append((cls, method, original))
                setattr(cls, method, self._wrap(original, target))
                continue
            original = getattr(owner, target.attr)
            wrapped = self._wrap(original, target)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patches.append((module, key, original))
                        setattr(module, key, wrapped)

    def uninstall(self):
        while self._patches:
            obj, key, original = self._patches.pop()
            setattr(obj, key, original)

    # -- results -------------------------------------------------------------

    def write_spans(self, path):
        """Write the spans as gzipped JSON lines, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "start", "end")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))))
                fh.write("\n")


# (metric, unit, better).  Seconds and counts are per traced pass of the
# workload's op list.  "_s" metrics are self time, except select_center_s
# (includes the project_piece calls that score its candidates) and the
# per-level wall times.
PER_LAYER = (
    ("cli.import_s", "s", "lower"),
    ("rootdata.build_sln_s", "s", "lower"),
    ("rootdata.pair_calls", "count", "lower"),
    ("rootdata.pair_s", "s", "lower"),
    ("rootdata.rho_s", "s", "lower"),
    ("rootdata.theta_so_s", "s", "lower"),
    ("hesspec.iwasawa_exp_spectrum_calls", "count", "lower"),
    ("hesspec.iwasawa_exp_spectrum_s", "s", "lower"),
    ("exponents.r_profile_calls", "count", "lower"),
    ("exponents.r_profile_s", "s", "lower"),
    ("exponents.omega_contains_calls", "count", "lower"),
    ("exponents.omega_contains_s", "s", "lower"),
    ("modelcheck.iwasawa_H_batch_s", "s", "lower"),
    ("modelcheck.iwasawa_H_batch_rows", "count", "lower"),
    ("modelcheck.iwasawa_H_calls", "count", "lower"),
    ("modelcheck.iwasawa_H_s", "s", "lower"),
    ("modelcheck.fd_hessian_s", "s", "lower"),
    ("modelcheck.monotonicity_profile_s", "s", "lower"),
    ("spherical.haar_batch_s", "s", "lower"),
    ("spherical.phi_lambda_s", "s", "lower"),
    ("spherical.noisy_ratio", "ratio", "lower"),
    ("ffengine.deform.select_center_s", "s", "lower"),
    ("ffengine.deform.select_center_calls", "count", "lower"),
    ("ffengine.deform.center_tries", "count", "lower"),
    ("ffengine.deform.center_accept_ratio", "ratio", "higher"),
    ("ffengine.deform.project_piece_calls", "count", "lower"),
    ("ffengine.deform.project_piece_s", "s", "lower"),
    ("ffengine.deform.level2_wall_s", "s", "lower"),
    ("ffengine.deform.level1_wall_s", "s", "lower"),
    ("ffengine.chains.normalize_chain_s", "s", "lower"),
    ("ffengine.chains.cancel_ratio", "ratio", "lower"),
    ("ffengine.homology.betti_s", "s", "lower"),
    ("ffengine.homology.boundary_image_s", "s", "lower"),
    ("ffengine.suite.vanishing_check_s", "s", "lower"),
    ("trace.wall_ratio", "ratio", "lower"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, passes: int, import_cli_s: float,
                  wall_ratio: float) -> dict[str, float]:
    """Every PER_LAYER metric, per traced pass; layers the workload never
    reaches read 0."""

    def calls(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])[0] / passes

    def self_s(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])[1] / passes

    def total_s(name):
        return tracer.stats.get(name, [0, 0.0, 0.0])[2] / passes

    def count(key):
        return tracer.counters[key] / passes

    return {
        "cli.import_s": import_cli_s,
        "rootdata.build_sln_s": self_s("rootdata.build_sln"),
        "rootdata.pair_calls": calls("rootdata.pair"),
        "rootdata.pair_s": self_s("rootdata.pair"),
        "rootdata.rho_s": self_s("rootdata.rho"),
        "rootdata.theta_so_s": self_s("rootdata.theta_so"),
        "hesspec.iwasawa_exp_spectrum_calls": calls("hesspec.iwasawa_exp_spectrum"),
        "hesspec.iwasawa_exp_spectrum_s": self_s("hesspec.iwasawa_exp_spectrum"),
        "exponents.r_profile_calls": calls("exponents.r_profile"),
        "exponents.r_profile_s": self_s("exponents.r_profile"),
        "exponents.omega_contains_calls": calls("exponents.omega_contains"),
        "exponents.omega_contains_s": self_s("exponents.omega_contains"),
        "modelcheck.iwasawa_H_batch_s": self_s("modelcheck.iwasawa_H_batch"),
        "modelcheck.iwasawa_H_batch_rows": count("modelcheck.iwasawa_H_batch_rows"),
        "modelcheck.iwasawa_H_calls": calls("modelcheck.iwasawa_H"),
        "modelcheck.iwasawa_H_s": self_s("modelcheck.iwasawa_H"),
        "modelcheck.fd_hessian_s": self_s("modelcheck.fd_hessian"),
        "modelcheck.monotonicity_profile_s": self_s("modelcheck.monotonicity_profile"),
        "spherical.haar_batch_s": self_s("spherical.haar_batch"),
        "spherical.phi_lambda_s": self_s("spherical.phi_lambda"),
        "spherical.noisy_ratio": _ratio(count("spherical.noisy"), calls("spherical.phi_lambda")),
        "ffengine.deform.select_center_s": total_s("ffengine.deform.select_center"),
        "ffengine.deform.select_center_calls": calls("ffengine.deform.select_center"),
        "ffengine.deform.center_tries": count("ffengine.deform.center_tries"),
        "ffengine.deform.center_accept_ratio": _ratio(
            calls("ffengine.deform.select_center"), count("ffengine.deform.center_tries")),
        "ffengine.deform.project_piece_calls": calls("ffengine.deform.project_piece"),
        "ffengine.deform.project_piece_s": self_s("ffengine.deform.project_piece"),
        "ffengine.deform.level2_wall_s": total_s("ffengine.deform.level2"),
        "ffengine.deform.level1_wall_s": total_s("ffengine.deform.level1"),
        "ffengine.chains.normalize_chain_s": self_s("ffengine.chains.normalize_chain"),
        "ffengine.chains.cancel_ratio": _ratio(count("ffengine.chains.pieces_out"),
                                               count("ffengine.chains.pieces_in")),
        "ffengine.homology.betti_s": self_s("ffengine.homology.betti"),
        "ffengine.homology.boundary_image_s": self_s("ffengine.homology.boundary_image"),
        "ffengine.suite.vanishing_check_s": self_s("ffengine.suite.vanishing_check"),
        "trace.wall_ratio": wall_ratio,
    }


def self_time_table(tracer: Tracer, passes: int) -> dict[str, dict]:
    """Calls and self/total seconds per span name, per traced pass."""
    return {
        name: {"calls": calls / passes, "self_s": self_s / passes, "total_s": total / passes}
        for name, (calls, self_s, total) in sorted(tracer.stats.items())
    }
