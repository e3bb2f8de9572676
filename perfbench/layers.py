"""The traced layers: which chroma functions get spans, and what they report.

Layers are modules.  ``entropy``, ``patterns``, ``cli``, ``rng`` and
``errors`` are not traced: the first runs in no workload, the per-vertex
pattern predicates are too fine to wrap without distorting them, the CLI
is argument parsing around the functions below, and the last two do no
work of their own.

Counts and self times are per pass of a workload's op list.  ``ms_per_call``
and ``heat_bath_sweep.us_per_site_update`` use inclusive span time, so the
per-call set-up counts; ``sweep.us_per_site_update`` uses the self time of
``run_experiment``, where the sweeps run.  A metric of a layer that does not
run in a workload reads 0.
"""

from __future__ import annotations

from collections import defaultdict

from spans import Span, self_times

TARGETS = {
    "exact": ["count_colorings", "transfer_count", "exact_marginal", "toy_ratio",
              "allowed_masks"],
    "sampler": ["run_experiment", "heat_bath_sweep", "cluster_step",
                "swappable_components"],
    "decomposition": ["decompose", "construct_breakup", "verify_breakup"],
    "geometry": ["regularity_check", "separating_set", "weak_approximation"],
    "coloring": ["repair_transform", "repair_inverse", "is_proper"],
    "lattice": ["connected_components", "expand", "vertex_boundaries",
                "closed_neighborhood"],
    "suites": ["run_suite"],
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _run_experiment_probe(args, kwargs, stats):
    cfg = _arg(args, kwargs, 0, "cfg")
    return {"site_updates": cfg.sweeps * cfg.chains * len(stats.vertex_ids)}


def _cluster_step_probe(args, kwargs, out):
    before = _arg(args, kwargs, 0, "f").values
    flipped = sum(1 for x, y in zip(before, out.values) if x != y)
    return {"flipped": flipped, "cells": len(_arg(args, kwargs, 2, "domain"))}


PROBES = {
    "exact.count_colorings": lambda a, k, r: {"method": r.method, "count": r.count},
    "sampler.run_experiment": _run_experiment_probe,
    "sampler.heat_bath_sweep": lambda a, k, r: {
        "site_updates": len(_arg(a, k, 2, "domain"))},
    "sampler.cluster_step": _cluster_step_probe,
    "sampler.swappable_components": lambda a, k, r: {"components": len(r)},
    "decomposition.verify_breakup": lambda a, k, r: {"ok": r.ok},
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], passes: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from the spans of ``passes`` passes."""
    selfs = self_times(spans)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name]) / passes

    def self_s(name, keep=lambda s: True):
        return sum(selfs[s.id] for s in by_name[name] if keep(s)) / passes

    def total_s(name):
        return sum(s.duration for s in by_name[name])

    def ms_per_call(name):
        return 1e3 * _ratio(total_s(name), len(by_name[name]))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name[name] if s.attrs)

    def backtracking(s):
        return bool(s.attrs) and s.attrs["method"] == "backtracking"

    marginal_ids = {s.id for s in by_name["exact.exact_marginal"]}
    marginal_children = sum(
        1 for s in by_name["exact.count_colorings"] if s.parent in marginal_ids)
    cluster = by_name["sampler.cluster_step"]
    verify = by_name["decomposition.verify_breakup"]

    out = {
        "exact.count_colorings.calls": (calls("exact.count_colorings"), "count"),
        "exact.count_colorings.self_s": (self_s("exact.count_colorings"), "s"),
        "exact.backtrack.colorings_per_s": (_ratio(
            sum(s.attrs["count"] for s in by_name["exact.count_colorings"]
                if backtracking(s)),
            passes * self_s("exact.count_colorings", backtracking)), "1/s"),
        "exact.transfer_count.calls": (calls("exact.transfer_count"), "count"),
        "exact.transfer_count.self_s": (self_s("exact.transfer_count"), "s"),
        "exact.exact_marginal.self_s": (self_s("exact.exact_marginal"), "s"),
        "exact.exact_marginal.child_counts": (marginal_children / passes, "count"),
        "exact.toy_ratio.self_s": (self_s("exact.toy_ratio"), "s"),
        "exact.allowed_masks.calls": (calls("exact.allowed_masks"), "count"),
        "exact.allowed_masks.self_s": (self_s("exact.allowed_masks"), "s"),
        "sampler.run_experiment.self_s": (self_s("sampler.run_experiment"), "s"),
        "sampler.sweep.us_per_site_update": (1e6 * _ratio(
            passes * self_s("sampler.run_experiment"),
            attr_sum("sampler.run_experiment", "site_updates")), "us"),
        "sampler.heat_bath_sweep.calls": (calls("sampler.heat_bath_sweep"), "count"),
        "sampler.heat_bath_sweep.us_per_site_update": (1e6 * _ratio(
            total_s("sampler.heat_bath_sweep"),
            attr_sum("sampler.heat_bath_sweep", "site_updates")), "us"),
        "sampler.cluster_step.calls": (calls("sampler.cluster_step"), "count"),
        "sampler.cluster_step.ms_per_call": (ms_per_call("sampler.cluster_step"), "ms"),
        "sampler.cluster_step.flip_frac": (_ratio(
            attr_sum("sampler.cluster_step", "flipped"),
            attr_sum("sampler.cluster_step", "cells")), "ratio"),
        "sampler.cluster_step.wait_s": (
            sum(s.duration - s.cpu for s in cluster) / passes, "s"),
        "sampler.swappable_components.components_per_call": (_ratio(
            attr_sum("sampler.swappable_components", "components"),
            len(by_name["sampler.swappable_components"])), "count"),
        "decomposition.decompose.calls": (calls("decomposition.decompose"), "count"),
        "decomposition.decompose.self_s": (self_s("decomposition.decompose"), "s"),
        "decomposition.construct_breakup.ms_per_call": (
            ms_per_call("decomposition.construct_breakup"), "ms"),
        "decomposition.verify_breakup.ms_per_call": (
            ms_per_call("decomposition.verify_breakup"), "ms"),
        "decomposition.verify_breakup.ok_frac": (_ratio(
            sum(1 for s in verify if s.attrs and s.attrs["ok"]), len(verify)), "ratio"),
        "geometry.regularity_check.calls": (calls("geometry.regularity_check"), "count"),
        "geometry.regularity_check.self_s": (self_s("geometry.regularity_check"), "s"),
        "geometry.separating_set.ms_per_call": (
            ms_per_call("geometry.separating_set"), "ms"),
        "geometry.weak_approximation.ms_per_call": (
            ms_per_call("geometry.weak_approximation"), "ms"),
        "coloring.repair_transform.ms_per_call": (
            ms_per_call("coloring.repair_transform"), "ms"),
        "coloring.repair_inverse.ms_per_call": (
            ms_per_call("coloring.repair_inverse"), "ms"),
        "coloring.is_proper.calls": (calls("coloring.is_proper"), "count"),
        "coloring.is_proper.self_s": (self_s("coloring.is_proper"), "s"),
    }
    for fn in TARGETS["lattice"]:
        out[f"lattice.{fn}.calls"] = (calls(f"lattice.{fn}"), "count")
        out[f"lattice.{fn}.self_s"] = (self_s(f"lattice.{fn}"), "s")
    out["suites.run_suite.self_s"] = (self_s("suites.run_suite"), "s")
    for module in TARGETS:
        raised = {s.error for s in spans
                  if s.error is not None and s.name.startswith(module + ".")}
        out[f"{module}.errors"] = (len(raised), "count")
    return out
