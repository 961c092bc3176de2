"""Exit codes, output shapes, and determinism of the command-line surface."""

import collections
import contextlib
import io
import json
import math
import re
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chainsaw import _kernels, cli
from chainsaw.cli import build_parser, main
from chainsaw.counting import (
    DEFAULT_BRUTE_CAP,
    _ENCODING,
    ComputationAbandoned,
    OracleCapExceeded,
    closed_form_count,
    closed_form_polynomial,
    decimal_text,
    family_graph,
    stratified_closed_form,
)
from chainsaw.graphs import ChainsawParams, Graph, NotAnInt, export_graph, make_chainsaw, make_path
from chainsaw.sequences import KINDS, SequenceSpec, evaluate, lucas_U, lucas_V
from chainsaw.verify import InjectedGraph, report_text, run_verification
from helpers import reference_broken_chainsaw
from test_pins import PINS, check_pin, run_cli


def pin_rows(command, row_id):
    """Parametrize over the pin table's rows of one command, each id made by ``row_id`` from the argv."""
    rows = [row for row in PINS if row[0].split()[0] == command]
    return pytest.mark.parametrize("argv,code,kind,expected", rows, ids=[row_id(row[0].split()) for row in rows])


class TestGenerate:
    def test_edge_list(self, capsys):
        rc, out, _ = run_cli(capsys, "generate", "--family", "cycle", "--n", "2", "--format", "edge-list")
        assert (rc, out) == (0, "0 1\n")

    def test_json(self, capsys):
        rc, out, _ = run_cli(
            capsys, "generate", "--family", "chainsaw", "--n", "2", "--a", "2", "--b", "1",
            "--format", "json",
        )
        assert rc == 0
        obj = json.loads(out)
        assert obj["order"] == 4
        assert len(obj["edges"]) == 5

    def test_constraint_violation_is_a_usage_error(self, capsys):
        rc, out, err = run_cli(capsys, "generate", "--family", "chainsaw", "--n", "1", "--a", "2", "--b", "3")
        assert rc == 2
        assert out == ""
        assert "a >= b >= 1" in err

    def test_blade_options_rejected_for_plain_families(self, capsys):
        rc, _, err = run_cli(capsys, "generate", "--family", "path", "--n", "3", "--a", "2")
        assert rc == 2
        assert "--a" in err

    @pytest.mark.parametrize("fmt", ["edge-list", "dimacs", "json"])
    @pytest.mark.parametrize("n,a,b", [(1, 1, 1), (1, 2, 1), (3, 3, 3), (5, 3, 2), (7, 4, 1)])
    def test_broken_prints_the_reference_bytes(self, capsys, fmt, n, a, b):
        expected = export_graph(reference_broken_chainsaw(ChainsawParams(n, a, b)), fmt)
        rc, out, _ = run_cli(capsys, "generate", "--family", "broken", "--n", str(n), "--a", str(a),
                             "--b", str(b), "--format", fmt)
        assert (rc, out) == (0, expected)

    # the table's generate rows, under the ids they had before tests/test_pins.py held them
    @pin_rows("generate", lambda argv: "".join(argv[2:-2]) + "-" + argv[-1])
    def test_byte_pins(self, capsys, argv, code, kind, expected):
        check_pin(capsys, argv, code, kind, expected)

    def test_unknown_format_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["generate", "--family", "path", "--n", "3", "--format", "graphml"])
        assert exc.value.code == 2


class TestCount:
    def test_methods_agree(self, capsys):
        outputs = set()
        for method in ("brute", "eliminate", "closed-form"):
            rc, out, _ = run_cli(capsys, "count", "--family", "chainsaw", "--n", "3", "--a", "2", "--b", "1",
                                 "--method", method)
            assert rc == 0
            outputs.add(out)
        assert outputs == {"14\n"}

    def test_brute_over_cap_exits_3(self, capsys):
        rc, out, err = run_cli(capsys, "count", "--family", "chainsaw", "--n", "7", "--a", "4", "--b", "1",
                               "--method", "brute")
        assert rc == 3
        assert out == ""
        assert "oracle cap exceeded" in err

    @pytest.mark.parametrize("env", ["5", "abc"])
    def test_brute_cap_ignores_the_environment(self, capsys, monkeypatch, env):
        # count holds the oracle at 26: no environment variable sets its cap
        monkeypatch.setenv("CHAINSAW_BRUTE_CAP", env)
        assert run_cli(capsys, "count", "--family", "path", "--n", "10", "--method", "brute") == (0, "144\n", "")

    @pytest.mark.parametrize(
        "family,order",
        [(["--family", "chainsaw", "--n", "1000000", "--a", "3", "--b", "2"], 3000000),
         (["--family", "broken", "--n", "300000", "--a", "3", "--b", "2"], 900002),
         (["--family", "broken", "--n", "0", "--a", "28", "--b", "5"], 27),
         (["--family", "path", "--n", "27"], 27),
         (["--family", "cycle", "--n", "27"], 27)],
    )
    def test_brute_over_cap_exits_3_before_building_the_graph(self, capsys, monkeypatch, family, order):
        def no_graph(params, family):
            raise AssertionError("the graph was built")

        monkeypatch.setattr("chainsaw.cli.family_graph", no_graph)
        rc, out, err = run_cli(capsys, "count", *family, "--method", "brute")
        assert (rc, out, err) == (3, "", f"error: oracle cap exceeded: graph has {order} vertices, cap is 26\n")

    @pytest.mark.parametrize("n", ["-1", "-3"])
    @pytest.mark.parametrize("method", ["brute", "eliminate", "closed-form"])
    def test_negative_path_length_exits_2(self, capsys, method, n):
        # the path's own domain, with no a or b, since none was given
        rc, out, err = run_cli(capsys, "count", "--family", "path", "--n", n, "--method", method)
        assert (rc, out, err) == (2, "", f"error: family 'path' requires n >= 0, got n={n}\n")

    @pytest.mark.parametrize("family", ["path", "cycle"])
    @pytest.mark.parametrize("method", ["brute", "eliminate", "closed-form"])
    def test_blade_options_rejected_for_plain_families_by_every_method(self, capsys, family, method):
        rc, out, err = run_cli(capsys, "count", "--family", family, "--n", "5", "--a", "3", "--b", "1",
                               "--method", method)
        assert (rc, out) == (2, "")
        assert err == "error: --a and --b apply only to the chainsaw and broken families\n"

    @pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (3, 2), (6, 4)])
    def test_broken_at_zero_is_the_orphaned_blade(self, capsys, a, b):
        # P(0, a, b) = K_{a-1}: a independent sets by every method, coefficients [1, a-1]
        family = ["--family", "broken", "--n", "0", "--a", str(a), "--b", str(b)]
        edges = "".join(f"{u} {v}\n" for u in range(a - 1) for v in range(u + 1, a - 1))
        assert run_cli(capsys, "generate", *family) == (0, edges, "")
        for method in ("brute", "eliminate", "closed-form"):
            assert run_cli(capsys, "count", *family, "--method", method) == (0, f"{a}\n", "")
        assert run_cli(capsys, "poly", *family) == (0, f"[1, {a - 1}]\n" if a > 1 else "[1]\n", "")

    @pytest.mark.parametrize(
        "family",
        [["--family", "cycle"], ["--family", "chainsaw", "--a", "1", "--b", "1"],
         ["--family", "chainsaw", "--a", "3", "--b", "2"]],
    )
    @pytest.mark.parametrize(
        "command",
        [["generate"], ["count", "--method", "brute"], ["count", "--method", "eliminate"],
         ["count", "--method", "closed-form"], ["poly"]],
    )
    def test_chainsaw_at_zero_exits_2(self, capsys, family, command):
        rc, out, err = run_cli(capsys, *command, *family, "--n", "0")
        assert (rc, out) == (2, "")
        assert err.startswith("error: ") and "n=0" in err and err.count("\n") == 1

    UNIT_ROWS = {"path": "broken", "cycle": "chainsaw"}  # the table rows path and cycle count by

    def summation_outcome(self, family, n, a=None, b=None):
        """(exit, stdout, stderr) of printing the Dickson summation, with main's mapping of its errors."""
        table, a, b = (self.UNIT_ROWS[family], 1, 1) if family in self.UNIT_ROWS else (family, a, b)
        try:
            return 0, f"{decimal_text(closed_form_count(ChainsawParams(n, a, b), table))}\n", ""
        except ValueError as exc:
            if family in self.UNIT_ROWS:  # the CLI names the family typed, not its table row
                exc = f"family {family!r} requires n >= {1 - _ENCODING[table][1]}, got n={n}"
            return 2, "", f"error: {exc}\n"

    @pytest.mark.parametrize("family", ["path", "cycle", "chainsaw", "broken"])
    def test_closed_form_prints_the_summation(self, capsys, family):
        # n = -1 and chainsaw's n = 0 are refused, by the summation's message for the family typed
        blades = [()] if family in self.UNIT_ROWS else [(1, 1), (2, 1), (3, 2), (4, 4), (7, 3)]
        for n in range(-1, 41):
            for ab in blades:
                argv = ["count", "--family", family, f"--n={n}", *(f"--{k}={v}" for k, v in zip("ab", ab))]
                got = run_cli(capsys, *argv, "--method", "closed-form")
                assert got == self.summation_outcome(family, n, *ab), argv

    @pytest.mark.parametrize(
        "family", [["chainsaw", "--a", "3", "--b", "2"], ["broken", "--a", "4", "--b", "2"], ["cycle"]]
    )
    def test_closed_form_past_the_print_budget_exits_3(self, capsys, monkeypatch, family):
        argv = ("count", "--family", family[0], "--n", "3000", *family[1:], "--method", "closed-form")
        rc, out, _ = run_cli(capsys, *argv)
        digits = len(out) - 1
        assert rc == 0 and digits > 600
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", digits)  # exactly the budget still prints
        assert run_cli(capsys, *argv) == (0, out, "")
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", digits - 1)
        assert run_cli(capsys, *argv) == (3, "", f"error: result has more than {digits - 1} digits to print\n")
        with pytest.raises(ComputationAbandoned):  # where the summation's text was refused too
            decimal_text(int(out))

    def test_closed_form_never_runs_the_summation(self, capsys, monkeypatch):
        def summation(*args):
            raise AssertionError("the Dickson summation ran")

        monkeypatch.setattr("chainsaw.sequences._dickson_sum", summation)
        monkeypatch.setattr("chainsaw.sequences._dickson_weights", summation)
        monkeypatch.setattr("chainsaw.counting._dickson_sum", summation)
        for family, want in (("chainsaw", lucas_V(5000, 3, -2)), ("broken", lucas_U(5002, 3, -2))):
            argv = ("count", "--family", family, "--n", "5000", "--a", "3", "--b", "2", "--method", "closed-form")
            assert run_cli(capsys, *argv) == (0, f"{decimal_text(want)}\n", "")

    def test_missing_blade_options_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, "count", "--family", "chainsaw", "--n", "3")
        assert rc == 2
        assert "requires --a and --b" in err

    def test_out_of_memory_exits_3(self, capsys, monkeypatch):
        def exhausted(params, family):
            raise MemoryError

        monkeypatch.setattr("chainsaw.cli.family_graph", exhausted)
        rc, out, err = run_cli(capsys, "count", "--family", "chainsaw", "--n", "3000000", "--a", "3", "--b", "2")
        assert (rc, out, err) == (3, "", "error: out of memory\n")


class TestPoly:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["poly", "--family", "path", "--n", "4"], "[1, 4, 3]\n"),
            (["poly", "--family", "cycle", "--n", "4"], "[1, 4, 2]\n"),
            (["poly", "--family", "chainsaw", "--n", "1", "--a", "1", "--b", "1"], "[1]\n"),
        ],
    )
    def test_frozen_examples(self, capsys, argv, expected):
        rc, out, _ = run_cli(capsys, *argv)
        assert (rc, out) == (0, expected)

    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["--family", "path", "--n", "6"], "[1, 6, 10, 4]\n"),
            (["--family", "cycle", "--n", "6"], "[1, 6, 9, 2]\n"),
            (["--family", "chainsaw", "--n", "3", "--a", "3", "--b", "2"], "[1, 9, 21, 14]\n"),
            (["--family", "broken", "--n", "5", "--a", "3", "--b", "2"], "[1, 17, 111, 357, 601, 507, 169]\n"),
        ],
    )
    def test_no_family_reaches_elimination(self, capsys, monkeypatch, argv, expected):
        def refuse(*_):
            raise AssertionError("poly ran elimination")

        monkeypatch.setattr("chainsaw.counting._eliminate", refuse)
        assert run_cli(capsys, "poly", *argv) == (0, expected, "")

    @pytest.mark.parametrize("family", ["chainsaw", "broken"])
    def test_text_is_the_text_of_the_coefficients(self, capsys, family):
        # poly prints the library's coefficients as decimal_text writes them:
        # every 1 <= b <= a <= 6 on n <= 6, and the a = 1 rows further out
        rows = [(n, a, b) for n in range(7) for a in range(1, 7) for b in range(1, a + 1)]
        rows += [(n, 1, 1) for n in range(7, 41)]
        for n, a, b in rows:
            if n == 0 and family == "chainsaw":
                continue
            want = decimal_text(closed_form_polynomial(ChainsawParams(n, a, b), family))
            argv = ("poly", "--family", family, "--n", str(n), "--a", str(a), "--b", str(b))
            assert run_cli(capsys, *argv) == (0, f"{want}\n", ""), (n, a, b)

    @pytest.mark.parametrize("plain,row", [("path", "broken"), ("cycle", "chainsaw")])
    def test_unit_blades_never_pack(self, capsys, monkeypatch, plain, row):
        # at a = 1 every vertex is a chain vertex, so the strata are the coefficients
        def refuse(*_):
            raise AssertionError("poly ran the recurrence on a polynomial with no blades")

        for n in [*range(0 if plain == "path" else 1, 41), 1000]:
            expected = run_cli(capsys, "poly", "--family", plain, "--n", str(n))
            assert expected[0] == 0
            with monkeypatch.context() as patched:
                patched.setattr("chainsaw.counting._lucas_coefficients", refuse)
                unit = ("--n", str(n), "--a", "1", "--b", "1")
                assert run_cli(capsys, "poly", "--family", row, *unit) == expected
                assert run_cli(capsys, "poly", "--family", plain, "--n", str(n)) == expected

    @pytest.mark.parametrize(
        "argv",
        [
            ("--family", "chainsaw", "--n", "3", "--a", "3", "--b", "2"),
            ("--family", "broken", "--n", "0", "--a", "4", "--b", "2"),
            ("--family", "broken", "--n", "131", "--a", "4", "--b", "4"),
            ("--family", "chainsaw", "--n", "130", "--a", "5", "--b", "1"),
        ],
    )
    def test_blades_need_no_doubling_and_no_summation(self, capsys, monkeypatch, argv):
        # at a >= 2 the coefficients come from the recurrence alone
        expected = run_cli(capsys, "poly", *argv)
        assert expected[0] == 0

        def refuse(*_):
            raise AssertionError("poly ran a doubling or the Dickson summation")

        for route in ("_by_matrix", "_decimal_lucas", "closed_form_count"):
            monkeypatch.setattr(f"chainsaw.counting.{route}", refuse)
        assert run_cli(capsys, "poly", *argv) == expected

    # the table's poly rows, under the ids they had before tests/test_pins.py held them
    @pin_rows("poly", lambda argv: "-".join(argv[2::2]))
    def test_byte_pins(self, capsys, argv, code, kind, expected):
        check_pin(capsys, argv, code, kind, expected)


class TestFamilySurface:
    """Every family option combination maps to exit 0, 2 or 3 and the references' counts."""

    COMMANDS = (
        ("generate",),
        ("count", "--method", "brute"),
        ("count", "--method", "eliminate"),
        ("count", "--method", "closed-form"),
        ("poly",),
    )

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "family,n,least", [("cycle", 0, 1), ("cycle", -2, 1), ("path", -1, 0), ("path", -3, 0)]
    )
    def test_domain_errors_name_the_family_typed(self, capsys, command, family, n, least):
        # not its table row (chainsaw, broken), and not the a and b of the unit blades
        want = f"error: family {family!r} requires n >= {least}, got n={n}\n"
        assert run_cli(capsys, *command, "--family", family, f"--n={n}") == (2, "", want)

    @staticmethod
    def reference(family, n, a, b):
        """i(G) by the plain recurrence loops: U_{n+2} for path and broken, V_n for cycle and chainsaw."""
        if family in ("path", "cycle"):
            a, b = 1, 1
        return lucas_U(n + 2, a, -b) if family in ("path", "broken") else lucas_V(n, a, -b)

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.sampled_from(["path", "cycle", "chainsaw", "broken"]),
        st.sampled_from(COMMANDS),
        st.integers(min_value=-3, max_value=12),
        st.none() | st.integers(min_value=-2, max_value=6),
        st.none() | st.integers(min_value=-2, max_value=6),
    )
    def test_exit_codes_and_counts(self, capsys, family, command, n, a, b):
        argv = [*command, "--family", family, f"--n={n}"]
        argv += [f"--a={a}"] if a is not None else []
        argv += [f"--b={b}"] if b is not None else []
        rc, out, err = run_cli(capsys, *argv)
        assert rc in (0, 2, 3)
        if rc:
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1
        elif command[0] == "count":
            assert out == f"{self.reference(family, n, a, b)}\n"
        elif command[0] == "poly":
            assert sum(json.loads(out)) == self.reference(family, n, a, b)


class TestSeq:
    @pytest.mark.parametrize(
        "argv,expected",
        [
            (["seq", "--kind", "V", "--n", "0", "--p", "7", "--q", "9"], "2\n"),
            (["seq", "--kind", "U", "--n", "10", "--p", "1", "--q", "-1"], "55\n"),
            (["seq", "--kind", "D", "--n", "3", "--p", "2", "--q", "1", "--method", "summation"], "2\n"),
        ],
    )
    def test_frozen_examples(self, capsys, argv, expected):
        rc, out, _ = run_cli(capsys, *argv)
        assert (rc, out) == (0, expected)

    def test_summation_of_lucas_kind_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "seq", "--kind", "V", "--n", "3", "--p", "1", "--q", "1",
                             "--method", "summation")
        assert rc == 2
        assert "summation" in err

    def test_negative_index_exits_2(self, capsys):
        rc, _, err = run_cli(capsys, "seq", "--kind", "U", "--n", "-4", "--p", "1", "--q", "1")
        assert rc == 2
        assert "nonnegative" in err

    @pytest.mark.parametrize("method", ["recurrence", "matrix"])
    def test_negative_index_message_is_the_same_by_every_method(self, capsys, method):
        rc, out, err = run_cli(capsys, "seq", "--kind", "U", "--n", "-4", "--p", "1", "--q", "1",
                               "--method", method)
        assert (rc, out) == (2, "")
        assert err == "error: sequence index must be nonnegative, got -4\n"

    @pytest.mark.parametrize("p", range(-4, 5))
    @pytest.mark.parametrize("kind", "UVDE")
    def test_matrix_text_is_the_int_text(self, kind, p):
        # every n <= 60 and q in [-4, 4], parsed by one parser and run by its handlers directly
        parser = build_parser()
        for n in range(61):
            for q in range(-4, 5):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    args = parser.parse_args(["seq", "--kind", kind, "--n", str(n), f"--p={p}",
                                              f"--q={q}", "--method", "matrix"])
                    assert args.handler(args) == 0
                expected = decimal_text(evaluate(SequenceSpec(kind, n, p, q, "matrix")))
                assert out.getvalue() == f"{expected}\n", (kind, n, p, q)

    @pytest.mark.parametrize("kind,n,q", [("V", 3, 1), ("V", 11, 2), ("D", 3, 3), ("E", 11, 1), ("U", 2, 4)])
    def test_a_zero_prints_without_a_sign(self, capsys, kind, n, q):
        # all but U_2 leave a negative zero in the Decimal doubling, from products with p = 0
        assert run_cli(capsys, "seq", "--kind", kind, "--n", str(n), "--p", "0", f"--q={q}",
                       "--method", "matrix") == (0, "0\n", "")

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        kind=st.sampled_from("UVDE"),
        n=st.integers(0, 5000),
        p=st.integers(-50, 50),
        q=st.integers(-50, 50),
    )
    def test_matrix_text_is_the_int_text_at_larger_n(self, capsys, kind, n, p, q):
        expected = decimal_text(evaluate(SequenceSpec(kind, n, p, q, "matrix")))
        assert run_cli(capsys, "seq", "--kind", kind, "--n", str(n), f"--p={p}", f"--q={q}",
                       "--method", "matrix") == (0, f"{expected}\n", "")

    def test_huge_index_prints_in_full(self, capsys):
        rc, out, _ = run_cli(capsys, "seq", "--kind", "V", "--n", "30000", "--p", "7", "--q", "-3",
                             "--method", "matrix")
        assert rc == 0
        # ~26k digits; would exceed the default int-to-str guard
        assert len(out.strip()) > 20000
        assert out.strip().isdigit()


class TestVerify:
    def test_small_sweep_passes(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--n-max", "1", "--a-max", "1")
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["all_pass"] is True
        assert report["summary"]["failed"] == 0
        singleton = [
            c
            for c in report["checks"]
            if c["identity"] == "chainsaw count: closed form == V(n, a, -b)"
            and c["params"] == {"n": 1, "a": 1, "b": 1}
        ]
        assert singleton == [
            {
                "identity": "chainsaw count: closed form == V(n, a, -b)",
                "params": {"n": 1, "a": 1, "b": 1},
                "left": "1",
                "right": "1",
                "pass": True,
            }
        ]

    def test_every_value_serializes_as_a_string(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--n-max", "2", "--a-max", "2")
        assert rc == 0
        for check in json.loads(out)["checks"]:
            assert isinstance(check["left"], str)
            assert isinstance(check["right"], str)

    def test_brute_cap_above_the_default_oracle_cap(self, capsys):
        rc, out, _ = run_cli(capsys, "verify", "--n-max", "7", "--a-max", "4", "--brute-cap", "28")
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["all_pass"] is True
        orders = set()
        for c in report["checks"]:
            family, _, identity = c["identity"].partition(" ")
            if identity == "strata: brute force == closed form":
                orders.add(family_graph(ChainsawParams(**c["params"]), family).order)
        assert {27, 28} <= orders
        assert max(orders) == 28

    GRID_IDENTITIES = (
        "chainsaw count: elimination == stratified closed form",
        "chainsaw count: closed form == V(n, a, -b)",
        "broken count: elimination == stratified closed form",
        "broken count: closed form == U(n+2, a, -b)",
        "lucas V: recurrence == matrix",
        "lucas U: recurrence == matrix",
    )
    STRATA_IDENTITIES = (
        "chainsaw strata: brute force == closed form",
        "broken strata: brute force == closed form",
    )
    PER_N_IDENTITIES = (
        "path coefficients == C(n-t+1, t)",
        "cycle coefficients == C(n-t, t) + C(n-t-1, t-1)",
    )

    def test_default_report_checks_each_identity_once(self, capsys):
        rc, out, _ = run_cli(capsys, "verify")
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["all_pass"] is True
        assert report["parameters"] == {"n_max": 8, "a_max": 4, "brute_cap": DEFAULT_BRUTE_CAP}
        labels = {c["identity"] for c in report["checks"]}
        assert labels == set(self.GRID_IDENTITIES + self.STRATA_IDENTITIES + self.PER_N_IDENTITIES)
        rows = [(c["identity"], tuple(c["params"].values())) for c in report["checks"]]
        assert len(rows) == len(set(rows)) == report["summary"]["total"] == 636
        grid = [(n, a, b) for n in range(1, 9) for a in range(1, 5) for b in range(1, a + 1)]
        for identity in self.GRID_IDENTITIES:
            assert sorted(t for i, t in rows if i == identity) == sorted(grid)
        for identity in self.STRATA_IDENTITIES:
            family = identity.split()[0]
            within = [t for t in grid if family_graph(ChainsawParams(*t), family).order <= 26]
            assert sorted(t for i, t in rows if i == identity) == sorted(within)
        for identity in self.PER_N_IDENTITIES:
            assert sorted(t for i, t in rows if i == identity) == [(n,) for n in range(1, 9)]

    def test_brute_cap_is_the_oracle_cap(self, capsys):
        def strata_orders(*argv):
            rc, out, _ = run_cli(capsys, "verify", "--n-max", "3", "--a-max", "4", *argv)
            assert rc == 0
            report = json.loads(out)
            orders = {
                family_graph(ChainsawParams(**c["params"]), c["identity"].split()[0]).order
                for c in report["checks"]
                if " strata: " in c["identity"]
            }
            return report["parameters"]["brute_cap"], max(orders)

        assert strata_orders() == (26, 15)
        assert strata_orders("--brute-cap", "5") == (5, 5)

    @pytest.mark.parametrize("env", ["5", "abc"])
    def test_brute_cap_default_ignores_the_environment(self, capsys, monkeypatch, env):
        # the cap is an argument: no environment variable sets its default
        monkeypatch.setenv("CHAINSAW_BRUTE_CAP", env)
        rc, out, err = run_cli(capsys, "verify", "--n-max", "2", "--a-max", "1")
        assert (rc, err) == (0, "")
        assert json.loads(out)["parameters"]["brute_cap"] == 26

    @pytest.mark.parametrize("n_max,a_max,cap", [(4, 3, 4), (4, 3, 10), (8, 4, 26), (13, 4, 51)])
    def test_strata_rows_cover_exactly_the_graphs_within_the_cap(self, capsys, monkeypatch, n_max, a_max, cap):
        # no kernel call above the cap, and no graph within it skipped, past 48 vertices too
        kernel = _kernels.strata_by_chain_count

        def within_cap(adjacency, loops, chain, order):
            assert order <= cap
            return kernel(adjacency, loops, chain, order)

        monkeypatch.setattr("chainsaw._kernels.strata_by_chain_count", within_cap)
        rc, out, _ = run_cli(capsys, "verify", "--n-max", str(n_max), "--a-max", str(a_max), "--brute-cap", str(cap))
        assert rc == 0
        report = json.loads(out)
        assert report["summary"]["all_pass"] is True
        assert report["parameters"]["brute_cap"] == cap
        grid = [(n, a, b) for n in range(1, n_max + 1) for a in range(1, a_max + 1) for b in range(1, a + 1)]
        for family in ("chainsaw", "broken"):
            rows = sorted(
                tuple(c["params"].values())
                for c in report["checks"]
                if c["identity"] == f"{family} strata: brute force == closed form"
            )
            orders = {t: family_graph(ChainsawParams(*t), family).order for t in grid}
            assert rows == sorted(t for t in grid if orders[t] <= cap)
            assert max(orders.values()) > cap

    @pytest.mark.parametrize("cap", ["-3", "0"])
    def test_brute_cap_option_below_one_exits_2(self, capsys, cap):
        rc, out, err = run_cli(capsys, "verify", "--n-max", "2", "--a-max", "1", "--brute-cap", cap)
        assert (rc, out, err) == (2, "", f"error: --brute-cap must be at least 1, got {cap}\n")

    @pytest.mark.parametrize("option,bounds", [("--n-max", "n_max=0, a_max=4"), ("--a-max", "n_max=8, a_max=0")])
    def test_sweep_bound_below_one_exits_2(self, capsys, option, bounds):
        message = f"error: sweep bounds must be at least 1, got {bounds}\n"
        assert run_cli(capsys, "verify", option, "0") == (2, "", message)

    @pytest.mark.parametrize("value", [True, 2.5, math.nan, None], ids=repr)
    @pytest.mark.parametrize("keyword,what", [("n_max", "n_max"), ("a_max", "a_max"), ("brute_cap", "--brute-cap")])
    def test_sweep_bounds_and_cap_are_exact_ints(self, monkeypatch, keyword, what, value):
        def no_sweep(*args):
            raise AssertionError("the sweep ran before its bounds were checked")

        monkeypatch.setattr("chainsaw.verify._sweep_path_cycle", no_sweep)
        with pytest.raises(NotAnInt, match=re.escape(f"{what} must be an int, got {value!r}")):
            run_verification(**{keyword: value})

    def test_brute_cap_option_not_an_integer_exits_2(self, capsys):
        rc, out, err = usage_error(capsys, "verify", "--n-max", "2", "--a-max", "1", "--brute-cap", "abc")
        assert (rc, out) == (2, "")
        assert "argument --brute-cap: invalid int value: 'abc'" in err

    def test_injection_flags_must_come_together(self, capsys):
        rc, _, err = run_cli(capsys, "verify", "--n-max", "1", "--a-max", "1", "--inject-n", "4")
        assert rc == 2
        assert "together" in err

    def test_intact_injection_passes(self, capsys, tmp_path):
        params = ChainsawParams(4, 2, 1)
        path = tmp_path / "intact.json"
        path.write_text(export_graph(make_chainsaw(params), "json"), encoding="utf-8")
        rc, out, _ = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert rc == 0
        assert json.loads(out)["summary"]["all_pass"] is True

    @pytest.mark.parametrize("family,code", [("broken", 0), ("chainsaw", 2)])
    def test_injection_declared_at_zero_chain_length(self, capsys, monkeypatch, tmp_path, family, code):
        # P(0, 3, 2) is the K_2 injected here; C(0, 3, 2) is refused before any sweep row is computed
        path = tmp_path / "k2.json"
        path.write_text(export_graph(family_graph(ChainsawParams(0, 3, 2), "broken"), "json"), encoding="utf-8")
        if code:
            def refuse(*_):
                raise AssertionError("the sweep ran")

            monkeypatch.setattr("chainsaw.verify._sweep_path_cycle", refuse)
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", family,
            "--inject-n", "0", "--inject-a", "3", "--inject-b", "2",
        )
        assert rc == code
        if code:
            assert out == ""
            assert "n=0" in err
        else:
            assert json.loads(out)["checks"][-1]["right"] == "3"

    def test_perturbed_injection_fails_but_reports_fully(self, capsys, tmp_path):
        params = ChainsawParams(4, 2, 1)
        g = make_chainsaw(params)
        perturbed = Graph.build(g.order, g.edges()[1:], g.loops, g.roles)
        path = tmp_path / "perturbed.json"
        path.write_text(export_graph(perturbed, "json"), encoding="utf-8")
        rc, out, _ = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert rc == 1
        report = json.loads(out)
        assert report["summary"]["all_pass"] is False
        assert report["summary"]["failed"] == 1
        injected = [c for c in report["checks"] if c["identity"].startswith("injected")]
        assert len(injected) == 1 and injected[0]["pass"] is False
        # the sweep itself still ran and passed
        assert report["summary"]["total"] > 1

    def test_spider_reaches_the_injected_row(self, capsys, tmp_path):
        # 8 legs of 40 vertices on a centre, through elimination's branching: the injected row's left
        # is F_42^8 + F_41^8, and the declared P(1, 1, 1), whose count is U_3(1, -1) = 2, fails it
        edges = [(0, 1 + 40 * k) for k in range(8)] + [(v, v + 1) for v in range(1, 321) if v % 40]
        path = tmp_path / "spider.json"
        path.write_text(export_graph(Graph.build(321, edges), "json"), encoding="utf-8")
        rc, out, err = run_cli(capsys, "verify", "--n-max", "1", "--a-max", "1", "--inject-graph", str(path),
                               "--inject-family", "broken", "--inject-n", "1", "--inject-a", "1", "--inject-b", "1")
        f41, f42 = 0, 1
        for _ in range(41):
            f41, f42 = f42, f41 + f42
        row = json.loads(out)["checks"][-1]
        assert (rc, err, row["identity"].split()[0]) == (1, "", "injected")
        assert (row["left"], row["right"], row["pass"]) == (str(f42 ** 8 + f41 ** 8), "2", False)

    def test_missing_injection_file_exits_2(self, capsys, tmp_path):
        rc, _, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(tmp_path / "absent.json"), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert rc == 2
        assert err.startswith("error:")

    def test_huge_injected_order_exits_2_before_allocating(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps({"order": 10**9, "edges": [], "loops": [], "roles": ["chain"]}))
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert (rc, out) == (2, "")
        assert err == "error: 1 roles given for order 1000000000\n"

    def test_malformed_injection_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "noise.json"
        path.write_text('{"order": "soup"}\n')
        rc, _, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert rc == 2
        assert "malformed" in err

    def test_empty_injection_file_is_malformed_graph_json(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert (rc, out) == (2, "")
        assert err == "error: malformed graph json: Expecting value: line 1 column 1 (char 0)\n"

    def test_deeply_nested_injection_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: malformed graph json: ") and err.count("\n") == 1

    def test_injected_vertex_that_is_not_an_int_exits_2(self, capsys, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({"order": 3, "edges": [[0, 1], [1, 2]], "loops": [0.5],
                                    "roles": ["chain"] * 3}))
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(path), "--inject-family", "broken",
            "--inject-n", "3", "--inject-a", "1", "--inject-b", "1",
        )
        assert (rc, out) == (2, "")
        assert err == "error: malformed graph json: looped vertex must be an int, got 0.5\n"


class TestReportBytes:
    """verify prints `json.dumps(report, indent=2)` and a newline, byte for byte, through its own writer."""

    @pytest.mark.parametrize(
        "argv,kwargs",
        [
            ([], {}),
            (["--n-max", "1", "--a-max", "1"], {"n_max": 1, "a_max": 1}),
            (["--brute-cap", "1"], {"brute_cap": 1}),  # no strata rows
        ],
    )
    def test_sweep_report(self, capsys, argv, kwargs):
        rc, out, _ = run_cli(capsys, "verify", *argv)
        assert rc == 0
        assert out == json.dumps(run_verification(**kwargs), indent=2) + "\n"

    @pytest.mark.parametrize("perturbed,code", [(False, 0), (True, 1)])
    def test_injected_report(self, capsys, tmp_path, perturbed, code):
        g = make_chainsaw(ChainsawParams(4, 2, 1))
        if perturbed:
            g = Graph.build(g.order, g.edges()[1:], g.loops, g.roles)
        path = tmp_path / "inject.json"
        path.write_text(export_graph(g, "json"), encoding="utf-8")
        rc, out, _ = run_cli(
            capsys, "verify", "--n-max", "2", "--a-max", "2",
            "--inject-graph", str(path), "--inject-family", "chainsaw",
            "--inject-n", "4", "--inject-a", "2", "--inject-b", "1",
        )
        assert rc == code
        inject = InjectedGraph(g, "chainsaw", ChainsawParams(4, 2, 1))
        assert out == json.dumps(run_verification(2, 2, inject=inject), indent=2) + "\n"
        assert ('"pass": false' in out) == perturbed
        assert '"family": "chainsaw"' in out

    AWKWARD = 'quote " backslash \\ slash / tab \t nul \x00 bell \x07 del \x7f e\u0301 \u00e9 \u2028 \u2603 \U0001d53d'

    def test_writer_escapes_as_json_dumps(self):
        report = {
            "parameters": {"n_max": 1, "a_max": 1, "brute_cap": 5},
            "checks": [
                {"identity": self.AWKWARD, "params": {"family": self.AWKWARD, "n": -3, "a": 10**30},
                 "left": "\x1f\n", "right": self.AWKWARD, "pass": False},
                {"identity": "plain", "params": {"n": 0}, "left": "", "right": "[1, 2]", "pass": True},
            ],
            "summary": {
                "total": 2,
                "failed": 1,
                "by_identity": {self.AWKWARD: {"checks": 1, "failed": 1}, "plain": {"checks": 1, "failed": 0}},
                "all_pass": False,
            },
        }
        assert report_text(report) == json.dumps(report, indent=2)

    @settings(max_examples=200, deadline=None)
    @given(st.text(), st.text(), st.text(), st.text(), st.booleans())
    def test_writer_matches_json_dumps_for_any_strings(self, identity, family, left, right, passed):
        check = {"identity": identity, "params": {"family": family, "n": 1}, "left": left, "right": right,
                 "pass": passed}
        summary = {"total": 1, "failed": int(not passed), "by_identity": {identity: {"checks": 1}}}
        report = {"parameters": {"n_max": 1}, "checks": [check, check], "summary": summary}
        assert report_text(report) == json.dumps(report, indent=2)

    def test_each_lucas_value_is_doubled_once(self, monkeypatch):
        calls = collections.Counter()

        def counted(spec):
            calls[spec] += 1
            return evaluate(spec)

        monkeypatch.setattr("chainsaw.verify.evaluate", counted)
        report = run_verification(n_max=3, a_max=2)
        assert report["summary"]["all_pass"] is True
        # per (n, a, b): V_n and U_{n+2} once by each method, so two matrix and two recurrence calls
        grid = [(n, a, b) for n in range(1, 4) for a in range(1, 3) for b in range(1, a + 1)]
        assert calls == collections.Counter(
            SequenceSpec(kind, n + shift, a, -b, method)
            for n, a, b in grid
            for kind, shift in (("V", 0), ("U", 2))
            for method in ("matrix", "recurrence")
        )


def usage_error(capsys, *argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


class TestChoiceLists:
    """Option choices are read from the tables they name, so a new kind or family needs no second edit."""

    @staticmethod
    def choices(command, option):
        commands = build_parser()._commands
        return next(a.choices for a in commands[command]._actions if option in a.option_strings)

    def test_seq_kinds_are_the_sequence_kinds(self):
        assert self.choices("seq", "--kind") is KINDS

    def test_injected_families_are_the_family_table(self, monkeypatch):
        assert self.choices("verify", "--inject-family") == ("chainsaw", "broken")
        monkeypatch.setitem(_ENCODING, "twin", _ENCODING["chainsaw"])
        assert self.choices("verify", "--inject-family") == ("chainsaw", "broken", "twin")


def outcome(capsys, argv):
    """(exit code, stdout, stderr) of main(argv), a usage error's SystemExit included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """main parses every call with the parser its first call built; no call may see an earlier one."""

    SEQUENCE = [
        ["count", "--family", "cycle", "--n", "5", "--method", "fast"],  # usage error, exit 2
        ["count", "--family", "chainsaw", "--n", "9", "--a", "3", "--b", "2", "--method", "brute"],  # exit 3
        ["seq", "--kind", "U", "--n", "-4", "--p", "1", "--q", "1"],  # exit 2 from the engine
        ["count", "--family", "chainsaw", "--n", "4", "--a", "3", "--b", "2", "--method", "brute"],
        ["count", "--family", "cycle", "--n", "5"],
        ["seq", "--kind", "E", "--n", "40", "--p", "3", "--q", "2", "--method", "matrix"],
        ["seq", "--kind", "V", "--n", "7", "--p", "1", "--q=-1"],
        ["poly", "--family", "broken", "--n", "5", "--a", "3", "--b", "2"],
        ["generate", "--family", "path", "--n", "3", "--format", "json"],
        ["verify", "--n-max", "2", "--a-max", "2"],
        ["count", "--family", "path", "--n", "6", "--method", "closed-form"],
    ]

    def test_reuse_matches_a_fresh_parser_per_call(self, capsys, monkeypatch):
        builds = []

        def counted():
            builds.append(None)
            return build_parser()

        monkeypatch.setattr(cli, "_parser", None)
        monkeypatch.setattr(cli, "build_parser", counted)
        reused = [outcome(capsys, argv) for argv in self.SEQUENCE]
        assert len(builds) == 1
        fresh = []
        for argv in self.SEQUENCE:
            monkeypatch.setattr(cli, "_parser", None)
            fresh.append(outcome(capsys, argv))
        assert len(builds) == 1 + len(self.SEQUENCE)
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 3, 2, 0, 0, 0, 0, 0, 0, 0, 0]
        assert reused[1][1:] == ("", "error: oracle cap exceeded: graph has 27 vertices, cap is 26\n")
        assert reused[4] == (0, "11\n", "")


def top_level_outcome(capsys, argv):
    """(exit code, stdout, stderr) of argv parsed whole by the top-level parser, with main's exception mapping."""
    try:
        args = build_parser().parse_args(list(argv))
        code = args.handler(args)
    except SystemExit as exc:
        code = exc.code
    except (OracleCapExceeded, ComputationAbandoned) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        code = 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = 2
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def argv_id(argv):
    return " ".join(argv) or "no arguments"


FAMILY = ["--family", "broken", "--n", "3", "--a", "3", "--b", "2"]


class TestDispatch:
    """main parses a command's arguments with that command's parser alone, as the top-level parse would."""

    COMMANDS = [
        ["generate", *FAMILY, "--format", "json"],
        ["count", *FAMILY],
        ["count", "--family", "chainsaw", "--n", "9", "--a", "3", "--b", "2", "--method", "brute"],  # exit 3
        ["poly", *FAMILY],
        ["seq", "--kind", "V", "--n", "7", "--p", "1", "--q=-2", "--method", "matrix"],
        ["verify", "--n-max", "2", "--a-max", "2"],
        ["count", "-h"],
        ["seq", "--kind", "U", "--n", "-4", "--p", "1", "--q", "1"],  # exit 2 from the engine
        ["count", "--n", "3"],  # a missing required option
        ["count", "--family", "star", "--n", "3"],  # a bad choice
        ["count", "--family", "path", "--n", "three"],
        ["count", "--family", "path", "--n", "3", "--bogus"],  # left over: the top-level parser's message
        ["count", "--family", "path", "--n", "3", "stray", "--bogus=1"],
        ["count", "--fam", "path", "--n", "3"],  # an abbreviated long option
        ["count", "--family", "path", "--n", "3", "--"],
        ["count"],
    ]
    TOP_LEVEL = [[], ["-h"], ["--help"], ["bogus", "--n", "3"], ["--n", "3", "count"]]

    @pytest.mark.parametrize("argv", COMMANDS + TOP_LEVEL, ids=argv_id)
    def test_outcome_is_the_top_level_parse(self, capsys, argv):
        assert outcome(capsys, argv) == top_level_outcome(capsys, argv)

    def test_leftovers_get_the_top_level_usage(self, capsys):
        code, out, err = outcome(capsys, ["count", "--family", "path", "--n", "3", "--bogus", "x"])
        assert (code, out) == (2, "")
        assert err.startswith("usage: chainsaw [-h]")
        assert err.endswith("\nchainsaw: error: unrecognized arguments: --bogus x\n")

    def test_a_command_never_reaches_the_top_level_parse(self, capsys, monkeypatch):
        parser = build_parser()

        def refuse(*args, **kwargs):
            raise AssertionError("a command argv reached the top-level parse")

        monkeypatch.setattr(parser, "parse_args", refuse)
        monkeypatch.setattr(parser, "parse_known_args", refuse)
        monkeypatch.setattr(cli, "_parser", parser)
        for argv in self.COMMANDS:
            assert outcome(capsys, argv) == top_level_outcome(capsys, argv)

    @pytest.mark.parametrize("argv", [["count", "--family", "cycle", "--n", "5"], [], ["--help"]], ids=argv_id)
    def test_no_argument_reads_sys_argv(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(sys, "argv", ["chainsaw", *argv])
        try:
            code = main()
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert (code, captured.out, captured.err) == top_level_outcome(capsys, argv)


class TestBench:
    """What the removed `bench` subcommand refused; what it compared is rows of tests/test_pins.py."""

    def test_bench_is_no_longer_a_subcommand(self, capsys):
        # engine timing lives in perfbench, method agreement in count --method and verify
        rc, out, err = usage_error(capsys, "bench", "--family", "cycle", "--n", "12",
                                   "--methods", "brute", "eliminate")
        assert (rc, out) == (2, "")
        assert "invalid choice" in err and "bench" in err

    def test_seq_bench_requires_sequence_options(self, capsys):
        rc, out, err = usage_error(capsys, "seq", "--n", "10", "--p", "1", "--q", "1", "--method", "matrix")
        assert (rc, out) == (2, "")
        assert "--kind" in err

    @pytest.mark.parametrize("method", ["brute-jit", "brute-numpy"])
    def test_backend_methods_are_unknown_and_exit_2_before_timing_anything(self, capsys, method):
        rc, out, err = usage_error(capsys, "count", "--family", "cycle", "--n", "8", "--method", method)
        assert (rc, out) == (2, "")
        assert f"invalid choice: {method!r}" in err

    def test_unknown_method_exits_2(self, capsys):
        rc, out, err = usage_error(capsys, "count", "--family", "cycle", "--n", "8", "--method", "quantum")
        assert (rc, out) == (2, "")
        assert "quantum" in err


class TestDeterminism:
    @pytest.mark.parametrize(
        "argv",
        [
            ["generate", "--family", "chainsaw", "--n", "3", "--a", "3", "--b", "2", "--format", "json"],
            ["generate", "--family", "broken", "--n", "2", "--a", "3", "--b", "1", "--format", "dimacs"],
            ["count", "--family", "chainsaw", "--n", "4", "--a", "2", "--b", "2", "--method", "eliminate"],
            ["poly", "--family", "cycle", "--n", "9"],
            ["seq", "--kind", "E", "--n", "40", "--p", "3", "--q", "2", "--method", "matrix"],
            ["verify", "--n-max", "2", "--a-max", "2"],
        ],
    )
    def test_repeat_invocations_are_byte_identical(self, capsys, argv):
        first = run_cli(capsys, *argv)
        second = run_cli(capsys, *argv)
        assert first == second
        assert first[0] == 0


class TestInterpreterState:
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["count", "--family", "cycle", "--n", "5"], 0),
            # about 26k digits: exit 0 means they printed past the caller's limit
            (["seq", "--kind", "V", "--n", "30000", "--p", "7", "--q", "-3", "--method", "matrix"], 0),
            (["seq", "--kind", "U", "--n", "-4", "--p", "1", "--q", "1"], 2),
        ],
    )
    @pytest.mark.parametrize("limit", [5000, 0])  # 0 means no limit
    def test_int_to_str_limit_is_restored(self, capsys, argv, code, limit):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            assert run_cli(capsys, *argv)[0] == code
            assert sys.get_int_max_str_digits() == limit
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.parametrize("limit", [640, 0])  # the lowest limit Python accepts, and no limit
    def test_output_never_depends_on_the_int_to_str_limit(self, capsys, monkeypatch, tmp_path,
                                                          no_int_limit, limit):
        # the long values are written out while no limit applies, then the
        # CLI runs under the caller's limit with no way to change it
        seq = f"{lucas_V(30000, 7, -3)}\n"  # about 26k digits
        cycle = stratified_closed_form(ChainsawParams(400, 1, 1), "chainsaw").values()
        poly = "[" + ", ".join(str(c) for c in cycle) + "]\n"
        # 1201 coefficients, most of them past 640 digits
        saw = closed_form_polynomial(ChainsawParams(1200, 4, 2), "chainsaw")
        assert max(saw).bit_length() > 2200
        saw_poly = "[" + ", ".join(str(c) for c in saw) + "]\n"
        path_count = str(lucas_U(3502, 1, -1))  # i(path of 3500 vertices), 732 digits
        graph = tmp_path / "path.json"
        graph.write_text(export_graph(make_path(3500), "json"), encoding="utf-8")
        sys.set_int_max_str_digits(limit)

        def refuse(_):
            raise AssertionError("the CLI changed the int-to-str limit")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        assert run_cli(capsys, "seq", "--kind", "V", "--n", "30000", "--p", "7", "--q=-3",
                       "--method", "matrix") == (0, seq, "")
        assert run_cli(capsys, "poly", "--family", "cycle", "--n", "400") == (0, poly, "")
        assert run_cli(capsys, "poly", "--family", "chainsaw", "--n", "1200", "--a", "4",
                       "--b", "2") == (0, saw_poly, "")
        rc, out, err = run_cli(
            capsys, "verify", "--n-max", "1", "--a-max", "1",
            "--inject-graph", str(graph), "--inject-family", "chainsaw",
            "--inject-n", "3", "--inject-a", "1", "--inject-b", "1",
        )
        assert (rc, err) == (1, "")
        injected = json.loads(out)["checks"][-1]
        assert (injected["left"], injected["right"], injected["pass"]) == (path_count, "4", False)
        assert sys.get_int_max_str_digits() == limit

    def test_result_past_the_print_budget_exits_3(self, capsys, monkeypatch):
        # the ~26k-digit value is over a 5000-digit budget: a resource cap, not a usage error
        monkeypatch.setattr("chainsaw.counting.MAX_DIGITS", 5000)
        rc, out, err = run_cli(
            capsys, "seq", "--kind", "V", "--n", "30000", "--p", "7", "--q=-3", "--method", "matrix"
        )
        assert (rc, out) == (3, "")
        assert err == "error: result has more than 5000 digits to print\n"


class TestEntryPoints:
    def test_module_invocation(self):
        out = subprocess.run(
            [sys.executable, "-m", "chainsaw", "count", "--family", "cycle", "--n", "5"],
            capture_output=True,
            text=True,
        )
        assert out.returncode == 0
        assert out.stdout == "11\n"

    def test_the_cli_imports_no_numpy(self):
        code = "import sys, chainsaw.cli; sys.exit('numpy' in sys.modules)"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_the_cli_imports_no_dataclasses_or_inspect(self):
        # both cost start-up time; the value classes are __slots__ classes
        code = "import sys, chainsaw.cli; sys.exit(bool({'dataclasses', 'inspect'} & set(sys.modules)))"
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0

    def test_missing_subcommand_is_an_argparse_error(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
