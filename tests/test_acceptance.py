"""End-to-end acceptance gate.

Eight criteria, each printing one ACCEPTANCE line directly to the terminal
so a log scan shows the verdicts at a glance; the assertions underneath
carry the diagnostics. Time budgets are asserted with perf_counter around
the computation only; the warm-up fixture keeps one-time set-up out of the
timed sections. Criteria 2 and 3 confirm the whole 8x4 sweep with the
brute-force oracle, up to order 35, above the default cap of 26.
"""

import json
import random
import time

import pytest

from chainsaw.cli import main as cli_main
from chainsaw.counting import (
    brute_force_strata,
    closed_form_count,
    count_brute_force,
    count_via_elimination,
    independence_polynomial,
    stratified_closed_form,
)
from chainsaw.graphs import (
    ChainsawParams,
    Graph,
    export_graph,
    make_broken_chainsaw,
    make_chainsaw,
    make_cycle,
    make_path,
)
from chainsaw.sequences import SequenceSpec, dickson_D_sum, dickson_E_sum, evaluate, lucas_U, lucas_V
from helpers import binom, random_graph


def announce(capsys, number, ok):
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'}")


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # the first kernel calls pay one-time import and allocation costs; pay them before any timing
    g = make_cycle(4)
    count_brute_force(g)
    brute_force_strata(g)


def test_criterion_1_path_and_cycle_counts(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 19):
        if count_via_elimination(make_path(n)) != lucas_U(n + 2, 1, -1):
            failures.append(("path", n))
        if count_via_elimination(make_cycle(n)) != lucas_V(n, 1, -1):
            failures.append(("cycle", n))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 10.0
    announce(capsys, 1, ok)
    assert not failures, failures
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_2_family_counts_match_lucas(capsys):
    start = time.perf_counter()
    failures = []
    for n in range(1, 9):
        for a in range(1, 5):
            for b in range(1, a + 1):
                params = ChainsawParams(n, a, b)
                cases = (
                    ("chainsaw", make_chainsaw(params), lucas_V(n, a, -b)),
                    ("broken", make_broken_chainsaw(params), lucas_U(n + 2, a, -b)),
                )
                for family, graph, want in cases:
                    if count_via_elimination(graph) != want:
                        failures.append((family, "eliminate", n, a, b))
                    if count_brute_force(graph, cap=35) != want:
                        failures.append((family, "brute", n, a, b))
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 60.0
    announce(capsys, 2, ok)
    assert not failures, failures
    assert elapsed < 60.0, f"took {elapsed:.2f}s"


def test_criterion_3_strata_match_closed_form(capsys):
    failures = []
    for n in range(1, 9):
        for a in range(1, 5):
            for b in range(1, a + 1):
                params = ChainsawParams(n, a, b)
                for family, graph in (
                    ("chainsaw", make_chainsaw(params)),
                    ("broken", make_broken_chainsaw(params)),
                ):
                    if brute_force_strata(graph, cap=35) != stratified_closed_form(params, family):
                        failures.append((family, n, a, b))
    ok = not failures
    announce(capsys, 3, ok)
    assert not failures, failures


def test_criterion_4_path_and_cycle_coefficients(capsys):
    failures = []
    for n in range(1, 19):
        path_want = [binom(n - t + 1, t) for t in range((n + 1) // 2 + 1)]
        cycle_want = [binom(n - t, t) + binom(n - t - 1, t - 1) for t in range(n // 2 + 1)]
        if independence_polynomial(make_path(n)) != path_want:
            failures.append(("path", n))
        if independence_polynomial(make_cycle(n)) != cycle_want:
            failures.append(("cycle", n))
    ok = not failures
    announce(capsys, 4, ok)
    assert not failures, failures


def test_criterion_5_dickson_lucas_identity(capsys):
    failures = []
    for n in range(41):
        for x in range(-3, 4):
            for y in range(-3, 4):
                if dickson_D_sum(n, x, y) != lucas_V(n, x, y):
                    failures.append(("D", n, x, y))
                if dickson_E_sum(n, x, y) != lucas_U(n + 1, x, y):
                    failures.append(("E", n, x, y))
    ok = not failures
    announce(capsys, 5, ok)
    assert not failures, failures


def test_criterion_6_engine_agreement(capsys):
    failures = []
    for kind in ("U", "V", "D", "E"):
        for x in range(-3, 4):
            for y in range(-3, 4):
                for n in range(201):
                    rec = evaluate(SequenceSpec(kind, n, x, y, "recurrence"))
                    mat = evaluate(SequenceSpec(kind, n, x, y, "matrix"))
                    if rec != mat:
                        failures.append((kind, n, x, y))
    rng = random.Random(18200)
    for i in range(200):
        g = random_graph(rng, max_order=18)
        count = count_brute_force(g)
        if count_via_elimination(g) != count:
            failures.append(("graph", i, g.order))
        # the oracle is the frontier pass run to the end, so only the branching is an independent route
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("chainsaw.counting._PASS_STATES", 0)
            if count_via_elimination(g) != count:
                failures.append(("branching", i, g.order))
    ok = not failures
    announce(capsys, 6, ok)
    assert not failures, failures[:10]


def test_criterion_7_performance_floor(capsys):
    start = time.perf_counter()
    big = evaluate(SequenceSpec("V", 100_000, 7, -3, "matrix"))
    sequence_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    elim = count_via_elimination(make_chainsaw(ChainsawParams(30, 3, 2)))
    elimination_elapsed = time.perf_counter() - start
    closed = closed_form_count(ChainsawParams(30, 3, 2), "chainsaw")

    # magnitude sanity without materializing ~87k decimal digits
    plausible = 250_000 < big.bit_length() < 320_000
    ok = sequence_elapsed < 5.0 and elimination_elapsed < 30.0 and elim == closed and plausible
    announce(capsys, 7, ok)
    assert sequence_elapsed < 5.0, f"sequence route took {sequence_elapsed:.2f}s"
    assert elimination_elapsed < 30.0, f"elimination took {elimination_elapsed:.2f}s"
    assert elim == closed
    assert plausible, big.bit_length()


def test_criterion_8_negative_control(capsys, tmp_path):
    params = ChainsawParams(4, 2, 1)
    intact = make_chainsaw(params)
    perturbed = Graph.build(intact.order, intact.edges()[1:], intact.loops, intact.roles)

    def verify_with(graph):
        path = tmp_path / "injected.json"
        path.write_text(export_graph(graph, "json"), encoding="utf-8")
        rc = cli_main(
            [
                "verify", "--n-max", "1", "--a-max", "1",
                "--inject-graph", str(path), "--inject-family", "chainsaw",
                "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
            ]
        )
        return rc, json.loads(capsys.readouterr().out)

    rc_intact, report_intact = verify_with(intact)
    rc_perturbed, report_perturbed = verify_with(perturbed)
    injected = [c for c in report_perturbed["checks"] if c["identity"].startswith("injected")]

    ok = (
        rc_intact == 0
        and report_intact["summary"]["all_pass"] is True
        and rc_perturbed == 1
        and report_perturbed["summary"]["all_pass"] is False
        and len(injected) == 1
        and injected[0]["pass"] is False
    )
    announce(capsys, 8, ok)
    assert rc_intact == 0
    assert rc_perturbed == 1
    assert len(injected) == 1 and injected[0]["pass"] is False
