"""Span tracer for the benchmark's traced runs.

The tracer replaces each traced hydrobohm function at every module that
binds it (``from .specfun import laguerre`` copies the name into several
modules, so patching one binding would miss calls through the others), and
times ``numpy.polynomial.legendre.leggauss`` so the quadrature set-up inside
``hydrogen.overlap`` shows as its own span.  Spans (pass, name, start, end,
parent) stay in memory and are written out when the run ends.  A span's
self time is its duration minus the time its direct child spans cover; the
run is serial, so children never overlap.

Counts marked "computed" in PER_LAYER are derived from call arguments and
results (array sizes, file sizes), not timed, and repeat exactly.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import time
from collections import defaultdict

import numpy as np

# Same boundaries as the three regimes documented in hydrobohm.specfun.
AIRY_SERIES_EDGE = 1.8
AIRY_ASYMPTOTIC_EDGE = 9.0
AIRY_STATIONS = 26  # 13 stations on each side of the origin, 0.6 apart

BINDING_MODULES = (
    "hydrobohm",
    "hydrobohm.core",
    "hydrobohm.specfun",
    "hydrobohm.hydrogen",
    "hydrobohm.madelung",
    "hydrobohm.airy",
    "hydrobohm.reports",
    "hydrobohm.campaigns",
    "hydrobohm.cli",
)

QUADRATURE_SPAN = "numpy.leggauss"


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_points(counts, name, args, kwargs, result):
    counts[name + ".points"] += np.size(result)


def _count_laguerre(counts, name, args, kwargs, result):
    points = np.size(result)
    counts[name + ".points"] += points
    counts[name + ".step_points"] += _arg(args, kwargs, 0, "k") * points


def _count_radial_derivatives(counts, name, args, kwargs, result):
    counts[name + ".points"] += np.size(result[0])
    counts[name + ".scalar_calls"] += np.ndim(_arg(args, kwargs, 1, "r")) == 0


def _count_airy_ai(counts, name, args, kwargs, result):
    magnitude = np.abs(np.asarray(_arg(args, kwargs, 0, "x"), dtype=float))
    series = int(np.count_nonzero(magnitude <= AIRY_SERIES_EDGE))
    asymptotic = int(np.count_nonzero(magnitude >= AIRY_ASYMPTOTIC_EDGE))
    march = magnitude.size - series - asymptotic
    counts[name + ".points"] += magnitude.size
    counts[name + ".series_points"] += series
    counts[name + ".asymptotic_points"] += asymptotic
    counts[name + ".march_points"] += march
    counts[name + ".argmin_cells"] += march * AIRY_STATIONS


def _count_profile(counts, name, args, kwargs, result):
    counts[name + ".points"] += result.values.size
    counts[name + ".masked"] += int(np.count_nonzero(result.node_mask))


def _count_decompose(counts, name, args, kwargs, result):
    counts[name + ".points"] += result.coords.size


def _count_bytes(counts, name, args, kwargs, result):
    counts[name + ".bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _count_grid(counts, name, args, kwargs, result):
    counts["core.grid_points"] += result.points.size


# (module, function, counter) for every traced function.
TRACED = (
    ("core", "make_radial_grid", _count_grid),
    ("core", "make_axis_grid", _count_grid),
    ("specfun", "laguerre", _count_laguerre),
    ("specfun", "laguerre_derivative", None),
    ("specfun", "spherical_harmonic", _count_points),
    ("specfun", "airy_ai", _count_airy_ai),
    ("hydrogen", "radial_R", _count_points),
    ("hydrogen", "radial_R_derivatives", _count_radial_derivatives),
    ("hydrogen", "radial_peaks", None),
    ("hydrogen", "node_mask", None),
    ("hydrogen", "overlap", None),
    ("madelung", "bohm_potential_analytic", _count_profile),
    ("madelung", "bohm_potential_fd", _count_profile),
    ("madelung", "decompose", _count_decompose),
    ("madelung", "hj_residual", None),
    ("madelung", "continuity_residual", None),
    ("madelung", "euler_residual", None),
    ("airy", "airy_psi", _count_points),
    ("airy", "airy_polar", None),
    ("reports", "make_case", None),
    ("reports", "write_csv", _count_bytes),
    ("reports", "write_json", _count_bytes),
    ("reports", "write_svg", _count_bytes),
    ("campaigns", "run_flatness", None),
    ("campaigns", "run_bohr_radii", None),
    ("campaigns", "run_airy", None),
    ("campaigns", "profile_curve", None),
    ("campaigns", "run_levels", None),
    ("cli", "main", None),
)


# Every per-layer metric with its unit, in BENCHMARK.json order.  Units
# ending in "_computed" mark counts derived from sizes rather than timed.
PER_LAYER = (
    [
        ("specfun.laguerre.calls", "count"),
        ("specfun.laguerre.points", "points"),
        ("specfun.laguerre.self_s", "s"),
        ("specfun.laguerre.step_points", "points_computed"),
        ("specfun.laguerre_derivative.calls", "count"),
        ("madelung.bohm_potential_analytic.calls", "count"),
        ("madelung.bohm_potential_analytic.points", "points"),
        ("madelung.bohm_potential_analytic.self_s", "s"),
        ("madelung.bohm_potential_analytic.masked_ratio", "ratio"),
        ("hydrogen.radial_R_derivatives.calls", "count"),
        ("hydrogen.radial_R_derivatives.points", "points"),
        ("hydrogen.radial_R_derivatives.self_s", "s"),
        ("hydrogen.radial_R_derivatives.scalar_calls", "count"),
        ("hydrogen.radial_peaks.calls", "count"),
        ("hydrogen.radial_peaks.self_s", "s"),
        ("hydrogen.radial_peaks.total_s", "s"),
        ("hydrogen.node_mask.calls", "count"),
        ("hydrogen.node_mask.self_s", "s"),
        ("specfun.airy_ai.calls", "count"),
        ("specfun.airy_ai.points", "points"),
        ("specfun.airy_ai.self_s", "s"),
        ("specfun.airy_ai.series_points", "points_computed"),
        ("specfun.airy_ai.march_points", "points_computed"),
        ("specfun.airy_ai.asymptotic_points", "points_computed"),
        ("specfun.airy_ai.argmin_cells", "cells_computed"),
        ("airy.airy_psi.calls", "count"),
        ("airy.airy_psi.points", "points"),
        ("airy.airy_psi.self_s", "s"),
        ("airy.airy_polar.calls", "count"),
        ("airy.airy_polar.self_s", "s"),
        ("madelung.decompose.calls", "count"),
        ("madelung.decompose.points", "points"),
        ("madelung.decompose.self_s", "s"),
        ("madelung.hj_residual.self_s", "s"),
        ("madelung.continuity_residual.self_s", "s"),
        ("madelung.euler_residual.self_s", "s"),
        ("madelung.bohm_potential_fd.calls", "count"),
        ("madelung.bohm_potential_fd.points", "points"),
        ("madelung.bohm_potential_fd.self_s", "s"),
        ("madelung.bohm_potential_fd.masked_ratio", "ratio"),
        ("hydrogen.overlap.calls", "count"),
        ("hydrogen.overlap.self_s", "s"),
        ("hydrogen.overlap.quadrature_s", "s"),
        ("hydrogen.overlap.quadrature_builds", "builds_computed"),
        ("specfun.spherical_harmonic.calls", "count"),
        ("specfun.spherical_harmonic.points", "points"),
        ("specfun.spherical_harmonic.self_s", "s"),
        ("hydrogen.radial_R.calls", "count"),
        ("hydrogen.radial_R.points", "points"),
        ("hydrogen.radial_R.self_s", "s"),
    ]
    + [
        (f"reports.write_{kind}.{stat}", unit)
        for kind in ("csv", "json", "svg")
        for stat, unit in (("calls", "count"), ("bytes", "bytes_computed"), ("self_s", "s"))
    ]
    + [("reports.make_case.calls", "count"), ("cli.main.calls", "count"), ("cli.main.self_s", "s")]
    + [
        (f"campaigns.{campaign}.{stat}", unit)
        for campaign in ("run_flatness", "run_bohr_radii", "run_airy", "profile_curve", "run_levels")
        for stat, unit in (("calls", "count"), ("self_s", "s"))
    ]
    + [
        ("core.grid_points", "points_computed"),
        ("trace.pass_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


class Tracer:
    """Collects spans and per-pass counts while installed."""

    def __init__(self) -> None:
        self.spans: list = []  # (pass, name, start_ns, end_ns, parent index)
        self.counts: dict = defaultdict(int)
        self.pass_index = -1
        self._stack: list[int] = []

    def begin_pass(self, index: int) -> int:
        """Start a new pass; returns the index of its first span."""
        self.pass_index = index
        self.counts = defaultdict(int)
        return len(self.spans)

    def _wrap(self, name, function, counter):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = (self.pass_index, name, start, end, parent)
                self.counts[name + ".calls"] += 1
            if counter is not None:
                counter(self.counts, name, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Patch every binding of every traced function; restore on exit."""
        modules = [importlib.import_module(name) for name in BINDING_MODULES]
        undo = []
        try:
            for layer, function_name, counter in TRACED:
                original = getattr(importlib.import_module(f"hydrobohm.{layer}"), function_name)
                wrapper = self._wrap(f"{layer}.{function_name}", original, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            undo.append((module, attr, original))
                            setattr(module, attr, wrapper)
            legendre = importlib.import_module("numpy.polynomial.legendre")
            undo.append((legendre, "leggauss", legendre.leggauss))
            legendre.leggauss = self._wrap(QUADRATURE_SPAN, legendre.leggauss, None)
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def pass_metrics(self, first_span: int) -> dict:
        """Per-layer values of the current pass from its spans and counts."""
        spans = self.spans[first_span:]
        child_ns = defaultdict(int)
        for _, _, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        self_ns = defaultdict(int)
        total_ns = defaultdict(int)
        quadrature_ns = 0
        builds = 0
        for offset, (_, name, start, end, parent) in enumerate(spans):
            self_ns[name] += end - start - child_ns[first_span + offset]
            total_ns[name] += end - start
            if name == QUADRATURE_SPAN and parent >= 0 and self.spans[parent][1] == "hydrogen.overlap":
                quadrature_ns += end - start
                builds += 1
        values = dict(self.counts)
        values.update({f"{name}.self_s": ns * 1e-9 for name, ns in self_ns.items()})
        values.update({f"{name}.total_s": ns * 1e-9 for name, ns in total_ns.items()})
        values["hydrogen.overlap.quadrature_s"] = quadrature_ns * 1e-9
        values["hydrogen.overlap.quadrature_builds"] = builds
        for name in ("madelung.bohm_potential_analytic", "madelung.bohm_potential_fd"):
            points = values.get(name + ".points", 0)
            values[name + ".masked_ratio"] = values.get(name + ".masked", 0) / points if points else 0.0
        return values

    def write(self, path) -> None:
        """Write every span as CSV: pass, index, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8", newline="\n") as stream:
            stream.write("pass,index,parent,name,start_ns,end_ns\n")
            for index, (pass_index, name, start, end, parent) in enumerate(self.spans):
                stream.write(f"{pass_index},{index},{parent},{name},{start},{end}\n")


def layer_metrics(per_pass: list[dict], traced_walls: list[float], overhead_s: float) -> dict:
    """Median over traced passes of every PER_LAYER value; absent means 0."""
    values = {}
    for name, _ in PER_LAYER:
        values[name] = statistics.median(float(entry.get(name, 0)) for entry in per_pass)
    values["trace.pass_s"] = statistics.median(traced_walls)
    values["trace.overhead_s"] = overhead_s
    return values
