"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests -q
"""
import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import compare  # noqa: E402
import layers  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from pbklab import harness  # noqa: E402

# the per-layer counters each workload must drive; a missed rebinding
# leaves one of them at zero
EXPECTED = {
    "orbit-grid": ["exact_kernels.partial_coeff.calls",
                   "exact_kernels.section_coeff.calls",
                   "exact_kernels.equivariant_coeff.calls",
                   "cp1_geometry.calls", "harness.self_s",
                   "harness.write_csv.busy_s", "harness.write_csv.bytes"],
    "weight-sweep": ["exact_kernels.partial_coeff.calls",
                     "exact_kernels.partial_coeff.ns_per_level",
                     "exact_kernels.section_coeff.calls",
                     "exact_kernels.equivariant_coeff.calls",
                     "exact_kernels.bergman_coeff.calls",
                     "asymptotics.error_metric.calls",
                     "asymptotics.fits.busy_s", "cp1_geometry.calls"],
    "hilbert-identity": [
        "exact_kernels.hilbert_route_terms.calls",
        "exact_kernels.hilbert_route_terms.nodes",
        "exact_kernels.hilbert_route_terms.max_rel_dev",
        "circle_spectral.spectral_projector_quadrature.calls",
        "circle_spectral.spectral_projector_quadrature.nodes",
        "circle_spectral.expm_series.calls",
        "circle_spectral.spectral_projector_eig.calls",
        "circle_spectral.random_integer_spectrum_operator.calls",
        "circle_spectral.max_abs_dev"],
    "cap-orthogonality": [
        "rotated_observables.projection_product_norm.calls",
        "rotated_observables.operator_norm_power_iteration.calls",
        "rotated_observables.rotated_height_operator.calls",
        "rotated_observables.su2_rep_matrix.calls",
        "circle_spectral.expm_series.calls",
        "circle_spectral.spectral_projector_eig.calls"],
}
ONLY_ON = {"exact_kernels.hilbert_route_terms.calls": "hilbert-identity",
           "circle_spectral.spectral_projector_quadrature.calls":
               "hilbert-identity",
           "rotated_observables.su2_rep_matrix.calls": "cap-orthogonality"}


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _bindings():
    """Every callable the tracer may rebind: module globals, the values of
    module-level dicts and the traced methods."""
    seen = {}
    for module in layers.namespaces():
        table = vars(module)
        for key, value in table.items():
            if callable(value):
                seen[(module.__name__, key)] = value
            if isinstance(value, dict) and key != "__builtins__":
                for inner, item in value.items():
                    if callable(item):
                        seen[(module.__name__, key, inner)] = item
    for module, (cls, names) in layers.TRACED_METHODS.items():
        for name in names:
            seen[(cls.__name__, name)] = vars(cls)[name]
    return seen


def _lookup(key):
    if len(key) == 2 and key[0] in sys.modules:
        return vars(sys.modules[key[0]])[key[1]]
    if len(key) == 3:
        return vars(sys.modules[key[0]])[key[1]][key[2]]
    cls = next(c for c, _ in layers.TRACED_METHODS.values()
               if c.__name__ == key[0])
    return vars(cls)[key[1]]


def test_spec_matches_the_code():
    spec = _spec()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    tracer = spans.Tracer()
    produced = set(layers.metrics(tracer, {})) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == produced


def test_traced_run_restores_every_binding(tmp_path):
    before = _bindings()
    tracer = spans.Tracer()
    restore = layers.install(tracer)
    try:
        assert harness.run_experiment is not before[("pbklab.harness",
                                                     "run_experiment")]
        report = harness.run_experiment(harness.ExperimentConfig(
            experiment="heatmap", k=12, grid_n=8, no_timestamp=True,
            out=str(tmp_path / "h.csv")))
        assert report.exit_code == 0
    finally:
        rebound = restore()
    assert tracer.spans and all(s is not None for s in tracer.spans)
    assert rebound
    for container, key, original in rebound:
        current = (vars(container)[key] if isinstance(container, type)
                   else container[key])
        assert current is original
    after = _bindings()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert _lookup(key) is value, key


def test_self_time_of_a_synthetic_nested_call():
    ticks = iter([0.0, 1.0, 3.0, 4.0, 7.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))

    def inner(size):
        return size

    traced_inner = tracer.wrap("m.inner", inner, lambda a, k: (a[0], 1))

    def outer():
        traced_inner(2)     # covers 1.0 .. 3.0
        traced_inner(20)    # covers 4.0 .. 7.0

    tracer.wrap("m.outer", outer)()
    stats = spans.summarize(tracer, {})
    assert stats["m.outer"]["calls"] == 1
    assert stats["m.outer"]["busy_s"] == pytest.approx(10.0)
    assert stats["m.outer"]["self_s"] == pytest.approx(10.0 - 2.0 - 3.0)
    assert stats["m.inner"]["calls"] == 2
    assert stats["m.inner"]["busy_s"] == pytest.approx(5.0)
    assert stats["m.inner"]["self_s"] == pytest.approx(5.0)
    assert stats["m.inner"]["work"] == 2
    # a group counts the outer interval once, not again for its children
    grouped = spans.summarize(tracer, {"m.outer": "m", "m.inner": "m"})
    assert grouped["m"]["busy_s"] == pytest.approx(10.0)
    assert grouped["m"]["self_s"] == pytest.approx(10.0)
    assert grouped["m"]["calls"] == 3
    # per-call time grows 1.5x for a 10x size: exponent log(1.5)/log(10)
    assert spans.size_exponent(stats["m.inner"]["samples"]) == \
        pytest.approx(0.17609125905568124)


@pytest.mark.parametrize("workload", list(EXPECTED))
def test_every_layer_in_the_table_gets_spans(workload, tmp_path):
    report = worker.run_pass(workload, 5, str(tmp_path), trace=True)
    assert all(op["ok"] for op in report["ops"]), report["ops"]
    metrics = report["layers"]
    for name in EXPECTED[workload]:
        assert metrics[name] > 0, name
    for name, home in ONLY_ON.items():
        if home != workload:
            assert metrics[name] == 0, name


def test_compare_verdicts():
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 9.8, 10.3, 10.0, 10.1, 9.9]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.3 for v in parent]
    same = list(reversed(parent))
    noisy = [5.0, 15.0, 10.0, 20.0, 4.0, 12.0, 9.0, 18.0, 6.0, 10.0]

    def word(change, bound=0.1):
        return compare.verdict(parent, change, list(zip(parent, change)),
                               "lower", bound)[0]

    assert word(faster) == "improved"
    assert word(slower) == "worse"
    assert word(same) == "unchanged"
    assert word(noisy) == "unresolved"
    assert compare.verdict([0.0], [0.1], [(0.0, 0.1)], "lower",
                           None)[0] == "worse"
