"""Tests of the benchmark itself: plans, references, checks and tracing.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import reference as ref  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from chainsaw import (  # noqa: E402
    ChainsawParams,
    count_via_elimination,
    family_graph,
    independence_polynomial,
    make_cycle,
    make_path,
)


@pytest.fixture(scope="module")
def cli():
    return worker.load_cli()


def _argvs(plan):
    return [r["argv"] for g in plan for r in g["requests"]]


@pytest.mark.parametrize("workload", ["sweep", "elim"])
def test_same_seed_same_argv_and_other_seed_other_argv(workload):
    assert _argvs(workloads.build(workload, 7)) == _argvs(workloads.build(workload, 7))
    assert _argvs(workloads.build(workload, 7)) != _argvs(workloads.build(workload, 8))


def test_every_workload_carries_every_metric_group():
    plan = workloads.build("sweep", 1)
    assert [g["metric"] for g in plan] == list(workloads.METRICS)
    assert all(g["requests"] for g in plan)
    assert [g["metric"] for g in plan if not g["light"]] == ["verify_s", "brute_s"]


@pytest.mark.parametrize("family", ["chainsaw", "broken"])
def test_transfer_matrix_polynomial_matches_elimination(family):
    for n in range(1, 9):
        for a in range(1, 5):
            for b in range(1, a + 1):
                graph = family_graph(ChainsawParams(n, a, b), family)
                assert ref.chainsaw_poly(family, n, a, b) == independence_polynomial(graph), (n, a, b)
                assert ref.family_count(family, n, a, b) == count_via_elimination(graph)


def test_binomial_forms_match_elimination():
    for n in range(1, 30):
        assert ref.path_poly(n) == independence_polynomial(make_path(n))
        assert ref.cycle_poly(n) == independence_polynomial(make_cycle(n))


def test_text_residues_agree_with_integer_residues():
    for value in (0, 7, -7, 10**18, -(10**18) - 1, 3**200, -(7**301), 12345678901234567890123):
        assert ref.text_residues(f"{value}\n") == ref.int_residues(value)
    for bad in ("12", "012\n", "-\n", "1 2\n", "\n", "١٢\n"):
        assert ref.text_residues(bad) is None


def test_modular_recurrence_matches_exact_loop():
    for kind in "UVDE":
        exact = ref.lucas(kind, 500, -7, -3)
        assert ref.lucas(kind, 500, -7, -3, ref.MODULUS) == exact % ref.MODULUS


def test_residues_catch_any_single_digit_change():
    text = f"{9 * 10**60 + 123456}\n"  # a 9 -> 0 change is invisible mod 9; mod 11 sees it
    expect = {"exit": 0, "residues": ref.int_residues(int(text))}
    assert ref.check(expect, 0, text)
    for i in range(len(text) - 1):
        for d in "0123456789":
            if d != text[i] and not (i == 0 and d == "0"):
                assert not ref.check(expect, 0, text[:i] + d + text[i + 1 :]), (i, d)


def test_wrong_exit_code_and_off_by_one_fail():
    expect = ref.expect_int(ref.family_count("chainsaw", 40, 3, 2))
    value = int(expect["text"])
    assert ref.check(expect, 0, f"{value}\n")
    assert not ref.check(expect, 0, f"{value + 1}\n")
    assert not ref.check(expect, 1, f"{value}\n")
    assert not ref.check({"exit": 3, "text": ""}, 0, "")


def test_corrupted_verify_report_fails(cli):
    expect = ref.expect_verify(3, 2)
    code, out, _ = worker.call(cli, ["verify", "--n-max", "3", "--a-max", "2", "--brute-cap", "12"])
    assert ref.check(expect, code, out)
    wrong = out.replace('"left": "5"', '"left": "6"', 1).replace('"right": "5"', '"right": "6"', 1)
    assert wrong != out and not ref.check(expect, code, wrong)
    assert not ref.check(expect, 1, out)


def test_negative_control_is_counted_as_failed():
    corrupted, caught = run.negative_control()
    assert caught == corrupted == 3


def test_slots_cover_each_heavy_request_once_and_light_groups_every_time(cli):
    plan = workloads.build("big-index", 2)
    slots = [run.slot_jobs(plan, k) for k in range(run.SLOTS)]
    for g, group in enumerate(plan):
        ran = [job["index"] for jobs in slots for job in jobs if job["group"] == g]
        per_slot = run.SLOTS if group["light"] else 1
        assert sorted(ran) == sorted(list(range(len(group["requests"]))) * per_slot)
    result = worker.run_jobs(slots[3], lambda argv: worker.call(cli, argv))
    assert result["failed"] == 0 and len(result["times"]) == len(slots[3])


def test_self_times_add_up_to_each_request(cli):
    tracer = tracing.Tracer()
    requests = [
        ["verify", "--n-max", "2", "--a-max", "2", "--brute-cap", "10"],
        ["count", "--family", "broken", "--n", "30", "--a", "3", "--b", "2", "--method", "eliminate"],
        ["count", "--family", "cycle", "--n", "40", "--method", "brute"],
    ]
    tracer.install()
    try:
        codes = [worker.call(cli, argv, tracer)[0] for argv in requests]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 3]
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals
    selfs = tracing.self_times(tracer.spans)
    assert tracing.request_balance(tracer.spans, selfs) < 1e-9
    for span in tracer.spans:
        if span[3] >= 0:
            parent = tracer.spans[span[3]]
            assert parent[1] <= span[1] <= span[2] <= parent[2]
    layers = tracing.layer_metrics(tracing.layer_totals(tracer.spans), 1)
    for name in ("kernels.calls", "counting.elim_calls", "verify.checks", "graphs.vertices"):
        assert layers[name] > 0, name
    assert layers["counting.oracle_s"] > 0  # the over-cap request still opens its oracle span


def test_declared_metrics_are_the_ones_reported():
    assert set(run._declared("end_to_end")) == {*workloads.METRICS, "setup_s", "peak_rss_mb", "ok_frac"}
    layers = set(tracing.layer_metrics(tracing.layer_totals([]), 1))
    layers |= {"cli.output_bytes", "trace.overhead_frac"}
    assert set(run._declared("per_layer")) == layers
