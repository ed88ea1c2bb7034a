"""Tests of the benchmark's own mechanics.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import importlib
import json
import sys
from bisect import bisect_right
from collections import Counter
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(BENCH)]

from agodel import Signature, dump_structure, print_formula  # noqa: E402
from conftest import make_rng, random_core_sentence, random_structure  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def namespaces():
    """Every attribute of every agodel module, by identity."""
    return {(name, attr): value
            for name in tracer.MODULES
            for attr, value in vars(importlib.import_module(name)).items()}


def test_seed_33001_reproduces_the_criterion_3_corpus():
    # the generation loop of tests/test_acceptance.py, criterion 3
    rng = make_rng(33001)
    sig = Signature(predicates={"P": 1, "Q": 2})
    expected = []
    for _ in range(1000):
        struct = random_structure(rng, sig, size=rng.randint(1, 3))
        phi = random_core_sentence(rng, sig, depth=4, qdepth=2)
        expected.append((print_formula(phi), dump_structure(struct)))
    got = [(print_formula(phi), dump_structure(struct))
           for phi, struct in workloads.criterion3_pairs(33001, 1000)]
    assert got == expected


def test_every_translate_seed_gets_the_default_cost_mix():
    default = workloads.criterion3_pairs(33001, workloads.TRANSLATE_PAIRS)
    cost = [workloads.predicted_cost(*pair) for pair in default]
    edges, quota = workloads.cost_bands(cost, workloads.TRANSLATE_STRATA)
    limit = 4 * workloads.TRANSLATE_PAIRS
    # the default seed's corpus is its stream's first pairs, unchanged
    assert workloads.matched_pairs(33001, edges, quota, limit) == default
    other = workloads.matched_pairs(5, edges, quota, limit)
    bands = Counter(bisect_right(edges, workloads.predicted_cost(*pair)) for pair in other)
    assert bands == quota


def test_calibrated_latency_is_scaled_by_the_nearby_kernel_time():
    meter = calibrate.Meter()
    meter.times = [0.0, 1.0, 2.0, 10.0, 11.0]
    meter.durations = [1e-3, 1e-3, 1e-3, 4e-3, 4e-3]
    ref = calibrate.REFERENCE_KERNEL_S
    assert meter.scale(0.4, 0.6) == pytest.approx(ref / 1e-3)
    assert meter.scale(10.2, 10.4) == pytest.approx(ref / 4e-3)
    assert meter.scale(5.0, 5.1) == pytest.approx(ref / 1e-3)  # none nearby: all samples
    loop = run.closed_loop([query("x")] * 3, 60.0, max_queries=3)
    assert len(loop.scale) == 3 and all(s > 0 for s in loop.scale)


def query(verdict):
    return workloads.Query("q", lambda: (verdict, None))


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_traced_and_untraced_runs_give_identical_verdicts(name, tmp_path):
    workload = workloads.WORKLOADS[name](workloads.DEFAULT_SEEDS[name], tmp_path)
    queries = workload.queries[:12]
    plain = run.closed_loop(queries, 60.0, max_queries=len(queries))
    t = tracer.Tracer()
    with t.installed():
        traced = run.closed_loop(queries, 60.0, max_queries=len(queries), tracer=t)
    assert traced.verdicts == plain.verdicts
    assert run.judge(workload, [plain, traced], workload.load_reference())[0] == 0
    assert t.spans and all(span is not None for span in t.spans)


def test_every_wrapped_attribute_is_restored():
    before = namespaces()
    t = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with t.installed():
            during = namespaces()
            raise RuntimeError("leave the block early")
    swapped = {key for key, value in before.items() if during[key] is not value}
    assert len(swapped) >= len(tracer.TARGETS)
    after = namespaces()
    assert all(after[key] is value for key, value in before.items())
    assert t.restored


def test_own_recursion_is_never_wrapped():
    sites = {(module.__name__, attr) for module, attr, _, _ in tracer.patch_sites()}
    for name in ("free_vars", "substitute", "expand_derived"):
        assert ("agodel.syntax", name) not in sites
        assert ("agodel", name) in sites
    assert ("agodel.syntax", "parse") in sites  # not recursive: parse_theory calls it
    assert ("agodel.solver", "satisfies") in sites
    assert ("agodel.semantics", "satisfies") not in sites


def test_nested_spans_split_self_time_and_count_outer_calls_once():
    import agodel
    t = tracer.Tracer()
    sig = Signature(predicates={"P": 1})
    with t.installed():
        agodel.parse_theory("forall x. P(x)\nexists x. P(x)\n", sig)
    assert t.calls["syntax.parse"] == 1
    inner = [s for s in t.spans if s[3] != -1]
    assert len(inner) == 2 and all(s[0] == "syntax.parse" for s in inner)
    outer = next(s for s in t.spans if s[3] == -1)
    assert t.self_s["syntax.parse"] == pytest.approx(outer[2] - outer[1])


def test_resource_limit_is_recorded_with_the_raising_call():
    workload = workloads.Solve(44001, None)
    index = next(i for i, q in enumerate(workload.queries)
                 if q.qid == "ladder:forall-exists-P:n3")
    loop = run.closed_loop([workload.queries[index]], 60.0, max_queries=1)
    assert loop.verdicts == ["limit:compile_inf"]
    assert loop.limits == [("ladder:forall-exists-P:n3", "compile_inf")]


def test_a_wrong_verdict_counts_as_failed(tmp_path):
    workload = workloads.Family(77001, tmp_path)
    loop = run.closed_loop(workload.queries[:4], 60.0, max_queries=4)
    loop.verdicts[1] = "separated"
    failed, reasons = run.judge(workload, [loop], None)
    assert failed == 1 and "equiv:0" in reasons[0]


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    t = tracer.Tracer()
    layer = set(tracer.layer_metrics(t, 1)) | {"trace.overhead_qps"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    loop = run.Loop()
    loop.verdicts, loop.latency, loop.elapsed = ["x"] * 20, [0.1] * 20, 2.0
    loop.scale = [1.0] * 20
    e2e = set(run.end_to_end(loop, 0.1, 0))
    assert {m["name"] for m in spec["end_to_end"]} == e2e
