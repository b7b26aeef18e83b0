"""Which package functions the traced pass wraps, and the per-layer metrics.

The layers are the package modules.  `cli` is off the path: the
workloads enter at `harness.run_experiment`, and `cli` only maps flags
onto an `ExperimentConfig`.
"""
from __future__ import annotations

import os
import sys

from pbklab import (asymptotics, circle_spectral, cp1_geometry,
                    exact_kernels, harness, rotated_observables)

import spans

TRACED = {
    exact_kernels: ["partial_coeff", "section_coeff", "equivariant_coeff",
                    "bergman_coeff", "hilbert_route_terms"],
    circle_spectral: ["spectral_projector_quadrature", "expm_series",
                      "spectral_projector_eig",
                      "random_integer_spectrum_operator"],
    rotated_observables: ["projection_product_norm",
                          "operator_norm_power_iteration",
                          "rotated_height_operator", "su2_rep_matrix"],
    asymptotics: ["error_metric", "loglog_fit", "linear_fit"],
    cp1_geometry: ["height", "rotate", "gradient_flow", "xh_norm",
                   "level_point", "projective_equal"],
    harness: ["run_experiment", "write_csv"]
             + [runner.__name__ for runner in harness._RUNNERS.values()],
}
# ProjectivePoint is built once per heatmap cell and asked for its chart
# coordinate twice per kernel call, so its methods are cp1_geometry's work
# on the orbit grid
TRACED_METHODS = {
    cp1_geometry: (cp1_geometry.ProjectivePoint,
                   ["__init__", "affine", "log_affine"]),
}

# the layer statistics reported as one group
GROUPS = {"asymptotics.loglog_fit": "asymptotics.fits",
          "asymptotics.linear_fit": "asymptotics.fits"}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[1]


def _levels(args, kwargs):
    cfg = args[0]
    cut = max(cfg.cut_index, 0)
    return cfg.k, max(cfg.k + 1 - cut, 0)


def _route_nodes(args, kwargs):
    cfg = args[0]
    nodes = args[3] if len(args) > 3 else kwargs.get("nodes")
    return cfg.k, nodes if nodes is not None else 8 * (cfg.k + 1)


def _quadrature_nodes(args, kwargs):
    op, energy = args[0], args[1]
    nodes = args[2] if len(args) > 2 else kwargs.get("nodes")
    if nodes is None:
        nodes = circle_spectral.default_node_count(op, energy)
    return op.dimension, nodes


def _matrix_dim(args, kwargs):
    return args[0].shape[0], 0


def _weight(args, kwargs):
    return args[0], 0


def _csv_bytes(args, kwargs):
    path = args[0]
    return 0, os.path.getsize(path) if os.path.exists(path) else 0


MEASURES = {
    "exact_kernels.partial_coeff": _levels,
    "exact_kernels.hilbert_route_terms": _route_nodes,
    "circle_spectral.spectral_projector_quadrature": _quadrature_nodes,
    "circle_spectral.expm_series": _matrix_dim,
    "rotated_observables.su2_rep_matrix": _weight,
    "harness.write_csv": _csv_bytes,
}


def targets() -> list[tuple]:
    """(span name, owner, attribute, measure) for every traced function."""
    out = []
    for module, names in TRACED.items():
        for attr in names:
            name = f"{_short(module)}.{attr}"
            out.append((name, module, attr, MEASURES.get(name)))
    for module, (cls, names) in TRACED_METHODS.items():
        for attr in names:
            name = f"{_short(module)}.{cls.__name__}.{attr}"
            out.append((name, cls, attr, MEASURES.get(name)))
    return out


def namespaces() -> list:
    """Every loaded module of the package; the benchmark's own modules
    reach the package through module attributes, never copied names."""
    return [module for name, module in list(sys.modules.items())
            if name == "pbklab" or name.startswith("pbklab.")]


def install(tracer: spans.Tracer):
    return spans.install(tracer, targets(), namespaces())


def _layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


def metrics(tracer: spans.Tracer, deviations: dict[str, float]) -> dict:
    """Every per-layer metric of one traced pass, by name.

    `deviations` holds the largest deviation each identity check saw:
    quadrature vs eigen oracle and Hilbert assembly vs level sum.
    """
    groups = dict(GROUPS)
    for name, *_ in targets():
        if _layer_of(name) in ("cp1_geometry", "harness"):
            groups.setdefault(name, _layer_of(name))
    stats = spans.summarize(tracer, groups)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "work": 0.0,
             "samples": []}

    def stat(key: str) -> dict:
        return stats.get(key, empty)

    out = {}
    pc = stat("exact_kernels.partial_coeff")
    out["exact_kernels.partial_coeff.calls"] = pc["calls"]
    out["exact_kernels.partial_coeff.self_s"] = pc["self_s"]
    out["exact_kernels.partial_coeff.ns_per_level"] = (
        pc["busy_s"] / pc["work"] * 1e9 if pc["work"] else 0.0)
    out["exact_kernels.partial_coeff.size_exponent"] = \
        spans.size_exponent(pc["samples"])
    for fn in ("section_coeff", "equivariant_coeff", "bergman_coeff"):
        for key in ("calls", "busy_s"):
            out[f"exact_kernels.{fn}.{key}"] = stat(f"exact_kernels.{fn}")[key]
    hr = stat("exact_kernels.hilbert_route_terms")
    out["exact_kernels.hilbert_route_terms.calls"] = hr["calls"]
    out["exact_kernels.hilbert_route_terms.busy_s"] = hr["busy_s"]
    out["exact_kernels.hilbert_route_terms.nodes"] = hr["work"]
    out["exact_kernels.hilbert_route_terms.size_exponent"] = \
        spans.size_exponent(hr["samples"])
    out["exact_kernels.hilbert_route_terms.max_rel_dev"] = \
        deviations.get("hilbert_vs_level_sum", 0.0)

    sq = stat("circle_spectral.spectral_projector_quadrature")
    out["circle_spectral.spectral_projector_quadrature.calls"] = sq["calls"]
    out["circle_spectral.spectral_projector_quadrature.self_s"] = sq["self_s"]
    out["circle_spectral.spectral_projector_quadrature.nodes"] = sq["work"]
    out["circle_spectral.spectral_projector_quadrature.size_exponent"] = \
        spans.size_exponent(sq["samples"])
    for fn in ("expm_series", "spectral_projector_eig",
               "random_integer_spectrum_operator"):
        for key in ("calls", "busy_s"):
            out[f"circle_spectral.{fn}.{key}"] = \
                stat(f"circle_spectral.{fn}")[key]
    out["circle_spectral.max_abs_dev"] = \
        deviations.get("quadrature_vs_eig", 0.0)

    for fn in ("projection_product_norm", "operator_norm_power_iteration",
               "rotated_height_operator", "su2_rep_matrix"):
        for key in ("calls", "busy_s", "self_s"):
            out[f"rotated_observables.{fn}.{key}"] = \
                stat(f"rotated_observables.{fn}")[key]
    out["rotated_observables.su2_rep_matrix.size_exponent"] = \
        spans.size_exponent(stat("rotated_observables.su2_rep_matrix")["samples"])

    em = stat("asymptotics.error_metric")
    out["asymptotics.error_metric.calls"] = em["calls"]
    out["asymptotics.error_metric.self_s"] = em["self_s"]
    out["asymptotics.fits.busy_s"] = stat("asymptotics.fits")["busy_s"]

    out["cp1_geometry.calls"] = stat("cp1_geometry")["calls"]
    out["cp1_geometry.busy_s"] = stat("cp1_geometry")["busy_s"]
    out["harness.self_s"] = stat("harness")["self_s"]
    out["harness.write_csv.busy_s"] = stat("harness.write_csv")["busy_s"]
    out["harness.write_csv.bytes"] = stat("harness.write_csv")["work"]
    out["trace.spans"] = len(tracer.spans)
    return out
