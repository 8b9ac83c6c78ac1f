"""Span tracer for the traced run, installed from outside the package.

Every public function of every divbound module is wrapped, at every module
(and the package namespace) that holds a reference to it, so calls made
through ``from .x import f`` names are seen too.  A span records its name,
start, end and parent; spans are kept in flat arrays in memory and written
out once, when the round ends.  A span's self time is its duration minus
the time its child spans cover.

The pointwise posterior forms run O(k) times per averaging pass or
bisection; they are counted, not spanned, so their time stays in the self
time of the caller (averaging or inversion), and the function passed to
``invert_decreasing`` is counted the same way.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

MODULES = ("kernel", "distributions", "measures", "generators", "bounds", "verify", "formats", "cli")

POINTWISE = ("bounds.zeta_point", "bounds.xi_point", "generators.star_extended")
FEVAL = "kernel.invert_decreasing.f"

# Per-layer times: the summed self time of a group of functions.
LAYER_TIMES = {
    "cli.main_s": ("cli.main",),
    "formats.parse_s": (
        "formats.load_problem", "formats.load_vector", "formats.parse_problem_text",
        "formats.parse_vector_text", "formats.parse_s_grid", "formats.parse_real",
    ),
    "formats.render_s": ("formats.render_rows", "formats.fmt_real"),
    "distributions.validate_s": ("distributions.validate",),
    "measures.chain_check_s": ("measures.chain_check",),
    "measures.measure_value_s": (
        "measures.measure_value", "measures.base_measure", "measures.difference_measure",
        "measures.zeta", "measures.xi",
    ),
    "generators.csiszar_sum_s": ("generators.csiszar_sum",),
    "generators.star_s": ("generators.star",),
    "kernel.invert_s": ("kernel.invert_decreasing",),
    "bounds.averaged_s": ("bounds.averaged_zeta", "bounds.averaged_xi", "bounds.average_f_divergence"),
    "bounds.bound_report_s": (
        "bounds.bound_report", "bounds.bayes_error", "bounds.kailath_bound",
        "bounds.toussaint_bounds", "bounds.lower_bound_family", "bounds.upper_bound_zeta",
        "bounds.upper_bound_xi", "bounds.upper_bound_difference", "bounds.generic_upper_bound",
    ),
    "bounds.comparison_check_s": ("bounds.comparison_check",),
    "verify.draw_s": ("verify.random_strict_pair", "verify.random_problem"),
    "verify.run_verify_s": ("verify.run_verify",),
}

# Per-layer counts: the summed calls of a group of functions.
LAYER_CALLS = {
    "distributions.validate_calls": ("distributions.validate",),
    "measures.chain_check_calls": ("measures.chain_check",),
    "measures.measure_value_calls": ("measures.measure_value",),
    "generators.csiszar_sum_calls": ("generators.csiszar_sum",),
    "generators.star_calls": ("generators.star",),
    "kernel.invert_calls": ("kernel.invert_decreasing",),
    "kernel.invert_fevals": (FEVAL,),
    "bounds.point_evals": POINTWISE,
    "bounds.bound_report_calls": ("bounds.bound_report",),
}


class Tracer:
    """In-memory span and call recorder for one process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.chain_check_bytes = 0

    def _name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.name)
        self.name.append(self._name_id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, qualname: str, fn):
        if qualname in POINTWISE:
            counts = self.counts

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[qualname] += 1
                return fn(*args, **kwargs)

            return counted

        hook = {
            "kernel.invert_decreasing": self._count_fevals,
            "measures.chain_check": self._add_chain_bytes,
        }.get(qualname)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            if hook is not None:
                args = hook(args)
            idx = self.open(qualname)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)

        return spanned

    def _count_fevals(self, args):
        f = args[0]

        def feval(a):
            self.counts[FEVAL] += 1
            return f(a)

        return (feval,) + tuple(args[1:])

    def _add_chain_bytes(self, args):
        self.chain_check_bytes += args[0].probs.nbytes + args[1].probs.nbytes
        return args

    def install(self) -> None:
        """Wrap every public function of the divbound modules wherever it is referenced."""
        mods = [importlib.import_module(f"divbound.{m}") for m in MODULES]
        holders = [importlib.import_module("divbound")] + mods
        for short, mod in zip(MODULES, mods):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                wrapper = self.wrap(f"{short}.{attr}", obj)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, name, wrapper)

    def self_times(self):
        """(calls, self seconds) per span name, as two dicts."""
        names = np.frombuffer(self.name, dtype=np.int32)
        parents = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.int64) - np.frombuffer(self.start, dtype=np.int64)
        child = parents >= 0
        covered = np.bincount(parents[child], weights=dur[child], minlength=len(dur))
        own = np.bincount(names, weights=dur - covered, minlength=len(self.names))
        calls = np.bincount(names, minlength=len(self.names))
        return (
            {n: int(calls[i]) for i, n in enumerate(self.names)},
            {n: float(own[i]) * 1e-9 for i, n in enumerate(self.names)},
        )

    def layer_metrics(self) -> dict:
        calls, own = self.self_times()
        calls.update(self.counts)
        out = {
            metric: sum(own.get(fn, 0.0) for fn in group) for metric, group in LAYER_TIMES.items()
        }
        out.update(
            {metric: sum(calls.get(fn, 0) for fn in group) for metric, group in LAYER_CALLS.items()}
        )
        chain_s = out["measures.chain_check_s"]
        out["measures.chain_check_bytes_per_s"] = (
            self.chain_check_bytes / chain_s if chain_s > 0.0 else 0.0
        )
        out["trace.spans"] = len(self.name)
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
