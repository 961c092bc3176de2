"""Seed values, frozen examples, and engine agreement for the sequence module."""

import math
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from chainsaw import sequences
from chainsaw.counting import decimal_text, sequence_text
from chainsaw.graphs import NotAnInt
from chainsaw.sequences import (
    _BLOCK_BITS,
    _BLOCK_STEPS,
    KINDS,
    METHODS,
    SequenceSpec,
    _by_matrix,
    _by_recurrence,
    _dickson_terms,
    dickson_D_sum,
    dickson_E_sum,
    evaluate,
    lucas_U,
    lucas_V,
)
from helpers import binom, reference_recurrence

PQ_EXAMPLES = [(1, -1), (7, 9), (-2, 3), (0, -5)]


def binomial_definition_terms(kind, n, x, y):
    """Summands of D_n(x, y) or E_n(x, y), each from its binomial weight and fresh powers."""
    if kind == "D" and n == 0:
        return [2]
    terms = []
    for t in range(n // 2 + 1):
        weight = math.comb(n - t, t)
        if kind == "D" and t > 0:
            weight += math.comb(n - t - 1, t - 1)  # n/(n-t) * C(n-t, t), kept in the integers
        terms.append(weight * (-y) ** t * x ** (n - 2 * t))
    return terms


class TestBinom:
    def test_outside_support_is_zero(self):
        assert binom(5, -1) == 0
        assert binom(3, 5) == 0

    def test_small_values(self):
        assert binom(0, 0) == 1
        assert binom(6, 2) == 15

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=0, max_value=80), st.integers(min_value=-2, max_value=82))
    def test_pascal_identity(self, n, k):
        assert binom(n + 1, k) == binom(n, k) + binom(n, k - 1)


class TestLucasSeeds:
    @pytest.mark.parametrize("p,q", PQ_EXAMPLES)
    def test_U_seeds(self, p, q):
        assert lucas_U(0, p, q) == 0
        assert lucas_U(1, p, q) == 1

    @pytest.mark.parametrize("p,q", PQ_EXAMPLES)
    def test_V_seeds(self, p, q):
        assert lucas_V(0, p, q) == 2
        assert lucas_V(1, p, q) == p


class TestLucasValues:
    def test_frozen_values(self):
        assert lucas_U(10, 1, -1) == 55
        assert lucas_U(3, 2, -1) == 5
        assert lucas_V(5, 1, -1) == 11
        assert lucas_V(2, 2, -1) == 6

    def test_fibonacci_specialization(self):
        fib = [0, 1]
        while len(fib) < 31:
            fib.append(fib[-1] + fib[-2])
        assert [lucas_U(n, 1, -1) for n in range(31)] == fib

    def test_lucas_number_specialization(self):
        luc = [2, 1]
        while len(luc) < 31:
            luc.append(luc[-1] + luc[-2])
        assert [lucas_V(n, 1, -1) for n in range(31)] == luc


class TestDicksonSums:
    def test_first_kind_frozen_values(self):
        # n = 3 expands to x^3 - 3xy
        assert dickson_D_sum(3, 2, 1) == 2
        assert dickson_D_sum(5, 1, -1) == 11

    @pytest.mark.parametrize("x,y", [(4, 9), (-3, 2), (0, 0)])
    def test_first_kind_low_indices(self, x, y):
        assert dickson_D_sum(0, x, y) == 2
        assert dickson_D_sum(1, x, y) == x

    def test_second_kind_frozen_values(self):
        assert dickson_E_sum(4, 1, -1) == 5
        assert dickson_E_sum(2, 2, -1) == 5

    @pytest.mark.parametrize("x,y", [(4, 9), (-3, 2), (0, 0)])
    def test_second_kind_low_indices(self, x, y):
        assert dickson_E_sum(0, x, y) == 1
        assert dickson_E_sum(1, x, y) == x

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["D", "E"]),
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=-4, max_value=4),
        st.integers(min_value=-4, max_value=4),
    )
    @example("D", 0, 3, -2)
    @example("E", 0, 3, -2)
    @example("D", 400, 0, 3)
    @example("E", 399, 0, -4)
    @example("D", 399, 4, 0)
    @example("E", 400, -4, 0)
    def test_terms_match_the_binomial_definition(self, kind, n, x, y):
        want = binomial_definition_terms(kind, n, x, y)
        assert _dickson_terms(kind, n, x, y) == want
        total = dickson_D_sum(n, x, y) if kind == "D" else dickson_E_sum(n, x, y)
        assert total == sum(want)

    def test_same_argument_lucas_identities(self):
        # D_n(x, y) = V_n(x, y) and E_n(x, y) = U_{n+1}(x, y): both sides
        # satisfy the same recurrence from the same seeds.
        for n in range(25):
            for x in range(-3, 4):
                for y in range(-3, 4):
                    assert dickson_D_sum(n, x, y) == lucas_V(n, x, y)
                    assert dickson_E_sum(n, x, y) == lucas_U(n + 1, x, y)


class TestEvaluate:
    def test_constants_are_stable(self):
        assert KINDS == ("U", "V", "D", "E")
        assert METHODS == ("recurrence", "summation", "matrix")

    def test_default_method_is_recurrence(self):
        spec = SequenceSpec("U", 7, 1, -1)
        assert spec.method == "recurrence"
        assert evaluate(spec) == 13

    def test_matrix_frozen_value(self):
        assert evaluate(SequenceSpec("V", 50, 1, -1, "matrix")) == 28143753123

    @pytest.mark.parametrize("p,q", PQ_EXAMPLES)
    def test_matrix_at_the_seeds(self, p, q):
        assert evaluate(SequenceSpec("U", 1, p, q, "matrix")) == 1
        assert evaluate(SequenceSpec("U", 0, p, q, "matrix")) == 0
        assert evaluate(SequenceSpec("V", 0, p, q, "matrix")) == 2

    def test_dickson_recurrence_matches_summation(self):
        for kind in ("D", "E"):
            for n in (0, 1, 2, 7, 20):
                for x, y in ((3, 2), (-2, 5), (1, -1)):
                    rec = evaluate(SequenceSpec(kind, n, x, y, "recurrence"))
                    summ = evaluate(SequenceSpec(kind, n, x, y, "summation"))
                    assert rec == summ, (kind, n, x, y)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(KINDS),
        st.integers(min_value=0, max_value=300),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
    )
    def test_matrix_matches_recurrence(self, kind, n, p, q):
        rec = evaluate(SequenceSpec(kind, n, p, q, "recurrence"))
        mat = evaluate(SequenceSpec(kind, n, p, q, "matrix"))
        assert rec == mat

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            evaluate(SequenceSpec("X", 3, 1, 1))

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError, match="method"):
            evaluate(SequenceSpec("U", 3, 1, 1, "telescoping"))

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize("field", ["n", "p", "q"])
    def test_a_field_that_is_not_an_int_is_rejected(self, field, method):
        # a float p once gave D_10(0.5, 2) = 13.1103515625 by every method
        for value in (0.5, 10.0, True):
            spec = SequenceSpec(**{"kind": "D", "n": 10, "p": 3, "q": 2, "method": method, field: value})
            with pytest.raises(NotAnInt, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
                evaluate(spec)

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            evaluate(SequenceSpec("U", -1, 1, 1))

    @pytest.mark.parametrize("kind", ["U", "V"])
    def test_summation_applies_only_to_dickson_kinds(self, kind):
        with pytest.raises(ValueError, match="summation"):
            evaluate(SequenceSpec(kind, 3, 1, 1, "summation"))


NAMED = [lucas_U, lucas_V, dickson_D_sum, dickson_E_sum]


class TestNamedFunctionsAreEvaluate:
    """Each named function is ``evaluate`` with a fixed kind and method, so it rejects what that rejects.

    They once ran the engines unchecked: lucas_U(-5, 1, -1) gave 0 (U_{-5}(1, -1) = F_{-5} = 5),
    lucas_U(True, 1, -1) gave 1 and dickson_D_sum(3, 2.5, 1) the float 8.125.
    """

    @pytest.mark.parametrize("fn", NAMED, ids=lambda fn: fn.__name__)
    def test_negative_index(self, fn):
        with pytest.raises(ValueError, match="^sequence index must be nonnegative, got -5$"):
            fn(-5, 1, -1)

    @pytest.mark.parametrize("field,value", [("n", True), ("n", 2.5), ("p", 2.5), ("q", 2.5)])
    @pytest.mark.parametrize("fn", NAMED, ids=lambda fn: fn.__name__)
    def test_an_argument_that_is_not_an_int(self, fn, field, value):
        # a Dickson x and y are the spec's p and q, and the message names them so
        args = {"n": 3, "p": 2, "q": 1, field: value}
        with pytest.raises(NotAnInt, match=f"^{field} must be an int, got {re.escape(repr(value))}$"):
            fn(args["n"], args["p"], args["q"])


def counted_ints():
    """An int subclass whose results stay in the class, and the list its long products append to.

    A product is long when both operands exceed 64 bits.
    """
    long_products = []

    class Counted(int):
        def __mul__(self, other):
            if self.bit_length() > 64 and other.bit_length() > 64:
                long_products.append((self.bit_length(), other.bit_length()))
            return Counted(int(self) * int(other))

        __rmul__ = __mul__

        def __add__(self, other):
            return Counted(int(self) + int(other))

        __radd__ = __add__

        def __sub__(self, other):
            return Counted(int(self) - int(other))

        def __rsub__(self, other):
            return Counted(int(other) - int(self))

        def __floordiv__(self, other):
            return Counted(int(self) // int(other))

    return Counted, long_products


class TestIndexDoubling:
    GRID_PQ = [(p, q) for p in range(-4, 5) for q in range(-4, 5)]  # p = 0, q = 0 and p^2 = 4q among them

    @pytest.mark.parametrize("kind", KINDS)
    def test_matches_the_recurrence_on_a_grid(self, kind):
        for n in range(65):
            for p, q in self.GRID_PQ:
                want = evaluate(SequenceSpec(kind, n, p, q, "recurrence"))
                assert evaluate(SequenceSpec(kind, n, p, q, "matrix")) == want, (n, p, q)

    @pytest.mark.parametrize("kind", KINDS)
    def test_decimal_text_matches_the_recurrence_on_a_grid(self, kind):
        # byte for byte: no exponent (1E+5), no -0 and no .0 from the Decimal doubling
        for n in range(65):
            for p, q in self.GRID_PQ:
                want = decimal_text(evaluate(SequenceSpec(kind, n, p, q, "recurrence")))
                assert sequence_text(SequenceSpec(kind, n, p, q, "matrix")) == want, (n, p, q)

    @pytest.mark.parametrize(
        "kind,n",
        [("U", 2**20), ("V", 2**20 + 1), ("E", 2**20 - 3), ("D", 2**20 - 1)],  # m = 2^19 or 2^19 - 1
    )
    def test_two_long_products_per_level_and_one_to_finish(self, kind, n):
        # at q = -1 the powers q^k stay short, so only U_k V_k, V_k^2 and the finish are long
        Counted, long_products = counted_ints()
        value = _by_matrix(kind, n, Counted(1), Counted(-1))
        assert value == evaluate(SequenceSpec(kind, n, 1, -1, "matrix"))
        m = (n + (kind == "E")) >> 1
        starts = [m >> s for s in range(m.bit_length() - 1, 0, -1)]  # k before each doubling

        def bits(kind, k):
            return evaluate(SequenceSpec(kind, k, 1, -1, "matrix")).bit_length()

        levels = [k for k in starts if bits("U", k) > 64]
        assert len(levels) == 12
        # no level has a long V_k but a short U_k, so each level has both products or neither
        assert all(bits("V", k) <= 64 for k in starts if k not in levels)
        assert len(long_products) == 2 * len(levels) + 1


class TestBlockedRecurrence:
    """``_by_recurrence`` moves k steps a block; the reference moves one."""

    @staticmethod
    def seed_pairs(p):
        return ((0, 1), (2, p), (1, p))  # U, V and D, E

    def test_matches_one_step_on_a_grid(self):
        # p = 0, q = 0 and p^2 = 4q are on the grid; n up to 200 has blocks and left-over steps
        for p in range(-6, 7):
            for q in range(-6, 7):
                for w0, w1 in self.seed_pairs(p):
                    want = [reference_recurrence(n, p, q, w0, w1) for n in range(201)]
                    assert [_by_recurrence(n, p, q, w0, w1) for n in range(201)] == want, (p, q, w0, w1)

    @pytest.mark.parametrize("p,q", [(10**30, 3), (-(10**30), -7), (3, 10**40), (2**_BLOCK_BITS, 1)])
    def test_coefficients_past_the_bound(self, p, q):
        # U_2 = p or U_3 = p^2 - q is past the bound, so every step runs one at a time
        for n in (0, 1, 2, 3, 17, 200, 513):
            for w0, w1 in self.seed_pairs(p):
                assert _by_recurrence(n, p, q, w0, w1) == reference_recurrence(n, p, q, w0, w1), (n, w0, w1)

    @pytest.mark.parametrize("p,q", [(1, 1), (0, 0), (1, 0), (-1, 1), (2, 1)])
    def test_coefficients_that_stay_small(self, p, q):
        # U is periodic, zero, constant or U_k = k: only the length cap ends the block
        for n in (8 * _BLOCK_STEPS - 1, 8 * _BLOCK_STEPS, 8 * _BLOCK_STEPS + 1, 3001, 100_000):
            for w0, w1 in self.seed_pairs(p):
                assert _by_recurrence(n, p, q, w0, w1) == reference_recurrence(n, p, q, w0, w1), (n, w0, w1)

    @pytest.mark.parametrize("kind", ["V", "E"])
    @pytest.mark.parametrize("p", [7, -7])
    def test_benchmark_shape_matches_the_doubling(self, kind, p):
        # the big-index requests: about 29k-bit values at n about 10^4
        for n in (10_000, 10_101):
            rec = evaluate(SequenceSpec(kind, n, p, -3, "recurrence"))
            assert rec == evaluate(SequenceSpec(kind, n, p, -3, "matrix"))
            assert rec.bit_length() > 28_000

    def test_shares_no_code_with_the_doubling(self, monkeypatch):
        # so verify's "lucas ...: recurrence == matrix" rows compare independent routes
        want = {kind: evaluate(SequenceSpec(kind, 3000, 7, -3, "matrix")) for kind in KINDS}

        def refuse(*args):
            raise AssertionError("the recurrence called the doubling")

        monkeypatch.setattr(sequences, "_step", refuse)
        monkeypatch.setattr(sequences, "_by_matrix", refuse)
        assert {kind: evaluate(SequenceSpec(kind, 3000, 7, -3, "recurrence")) for kind in KINDS} == want

    def test_long_products_per_block(self):
        # at (7, -3) U grows about 2.9 bits a step, so a block is dozens of steps and four
        # products touch the long pair, against two products a step one at a time
        Counted, _ = counted_ints()
        long_products = []
        mul = Counted.__mul__

        def counting_mul(self, other):
            if max(self.bit_length(), other.bit_length()) > _BLOCK_BITS:
                long_products.append(1)
            return mul(self, other)

        Counted.__mul__ = Counted.__rmul__ = counting_mul
        n = 10_000
        assert _by_recurrence(n, 7, -3, Counted(2), Counted(7)) == lucas_V(n, 7, -3)
        assert 0 < len(long_products) < n // 8
