"""Tests of the benchmark itself:  python3 -m pytest perfbench -q"""

import json
import os
import sys

import pytest

import gauge
import run
import spans
import workloads

sys.path.insert(0, run.SRC)

COUNT_METRICS = [name for name, unit in run.PER_LAYER.items() if unit in ("count", "bytes")]


@pytest.fixture
def tb():
    return run.import_package()


def traced_pass(tb, workload, seed=7):
    inputs = workloads.make_inputs(tb, workload, seed)
    tracer = spans.Tracer(tb)
    tracer.install()
    try:
        results = run.run_pass(inputs, tracer.span("cli", tb.cli.main), gauge.Gauge(),
                               split=False)
    finally:
        tracer.uninstall()
    return tracer, results


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_counts_repeat_exactly_across_traced_runs(workload):
    first, _, _ = run.measure(workload, seed=11, seconds=0, trace=True)
    second, _, _ = run.measure(workload, seed=11, seconds=0, trace=True)
    assert first["correct"] and second["correct"]
    for name in COUNT_METRICS:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["matrices.mul.count"]["value"] > 0


def test_every_binding_site_is_traced(tb):
    # At this commit: build_system runs once per build job (bound in cli) and
    # once per verified system inside involutions_check (bound in system);
    # the tampered document has no idempotents, so no involution checks.
    # A verified array document builds twice: in cli and in involutions_check.
    tracer, results = traced_pass(tb, "verify")
    assert tracer.stats["cli"][0] == len(results) == 12
    assert tracer.stats["system.build_system"][0] == 4 + 4 + 3 * 2
    # lagrange_idempotents: build (system), decode (serialize), verify_axioms
    # and the involution rebuild (system) per verified system document,
    # decode plus verify_axioms for the tampered one, and build, verify_axioms
    # and the rebuild per verified array document.
    assert tracer.stats["matrices.lagrange_idempotents"][0] == 4 + 4 * 3 + 2 + 3 * 3
    tracer, _ = traced_pass(tb, "triple-ext")
    assert tracer.stats["triple.build_C"][0] == 4
    assert tracer.stats["matrices.lagrange_idempotents"][0] == 4 * 3   # bound in triple
    assert tracer.stats["matrices.inverse"][0] == 4 * 46


def test_uninstall_restores_every_original(tb):
    originals = (tb.cli.build_system, tb.system.build_system, tb.serialize.lagrange_idempotents,
                 tb.matrices.Matrix.__mul__, tb.fields.Field.parse)
    tracer = spans.Tracer(tb)
    tracer.install()
    assert tb.cli.build_system is not originals[0]
    tracer.uninstall()
    assert (tb.cli.build_system, tb.system.build_system, tb.serialize.lagrange_idempotents,
            tb.matrices.Matrix.__mul__, tb.fields.Field.parse) == originals


def test_gate_rejects_a_wrong_verdict():
    pinned = workloads.load_pinned()
    case = next(c for c in workloads.WORKLOADS["verify"] if c.tamper)
    key = workloads.job_key("verify", case, "verify", 0)
    right = workloads.Verdict(1, (workloads.SANDWICH,), None, 14, pinned[key])
    assert workloads.mismatch(key, case, "verify", right, pinned) is None
    for wrong in (right.__class__(0, (), None, 14, pinned[key]),
                  right.__class__(1, ("other",), None, 14, pinned[key]),
                  right.__class__(1, right.failing, None, 25, pinned[key]),
                  right.__class__(1, right.failing, None, 14, "0" * 64)):
        assert workloads.mismatch(key, case, "verify", wrong, pinned) is not None


def test_minus_one_is_square():
    assert [workloads.minus_one_is_square(s) for s in
            ("Q", "Q(i)", "Q(sqrt:2)", "Q(sqrt:-4)", "Fp:101", "Fp:103", "Fp2:103")] == \
        [False, True, False, True, True, False, True]


def test_seed_fixes_the_inputs(tb):
    assert workloads.make_inputs(tb, "verify", 5) == workloads.make_inputs(tb, "verify", 5)


def test_benchmark_json_matches_the_harness():
    path = os.path.join(os.path.dirname(run.HERE), "BENCHMARK.json")
    with open(path) as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert {w["name"]: w["why"] for w in bench["workloads"]} == workloads.WHY


def test_gauge_divides_by_the_reference_slowdown(monkeypatch):
    # A reference loop running at half the reference speed halves the time.
    monkeypatch.setattr(gauge, "_reference", lambda units: (2 * gauge.REF_UNIT_S * units, units))
    result, raw, scaled = gauge.Gauge().time(sum, [1, 2])
    assert result == 3
    assert scaled == pytest.approx(raw / 2)
