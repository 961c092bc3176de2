"""Reference values and output checks, written independently of chainsaw.

Nothing here imports the package under test. Counts come from a plain
integer loop over the Lucas recurrence; chainsaw and broken-chainsaw
polynomials from a 4-state transfer matrix; path and cycle polynomials from
their binomial forms. Decimal outputs too long to compare as text are
compared through residues (mod 10^18, 9 and 11) that a linear scan of the
text yields, against the same residues from a modular recurrence, so no
output is ever parsed back in quadratic time.
"""

from __future__ import annotations

import json
import math
import re

TAIL = 10**18
MODULUS = 99 * TAIL  # 9 * 11 * 10^18; the three factors are pairwise coprime
EXACT_BITS = 10_000  # above this, integers are checked through residues


def lucas(kind: str, n: int, p: int, q: int, modulus: int | None = None) -> int:
    """W_n of W_k = p W_{k-1} - q W_{k-2} with the seeds of `kind`, by a plain loop."""
    w0, w1 = {"U": (0, 1), "V": (2, p), "D": (2, p), "E": (1, p)}[kind]
    if modulus is None:
        for _ in range(n):
            w0, w1 = w1, p * w1 - q * w0
        return w0
    w0, w1 = w0 % modulus, w1 % modulus
    for _ in range(n):
        w0, w1 = w1, (p * w1 - q * w0) % modulus
    return w0


def family_count(family: str, n: int, a: int = 1, b: int = 1) -> int:
    """i(G) for the named family: V_n(a,-b) for cycles, U_{n+2}(a,-b) for paths."""
    if family in ("chainsaw", "cycle"):
        return lucas("V", n, a, -b)
    return lucas("U", n + 2, a, -b)


def _binom(n: int, k: int) -> int:
    return math.comb(n, k) if 0 <= k <= n else 0


def path_poly(n: int) -> list[int]:
    return [_binom(n - t + 1, t) for t in range((n + 1) // 2 + 1)]


def cycle_poly(n: int) -> list[int]:
    return [_binom(n - t, t) + _binom(n - t - 1, t - 1) for t in range(n // 2 + 1)]


def chainsaw_poly(family: str, n: int, a: int, b: int) -> list[int]:
    """Independence polynomial by a 4-state transfer matrix around the cycle.

    Each chain vertex and its blade form one unit, in state chain, low blade
    (one of the a-b blade vertices wired to the previous chain vertex), high
    blade (one of the other b-1) or none, with weights x, (a-b)x, (b-1)x, 1.
    A chain unit may not be followed by a chain or a low-blade unit. The
    chainsaw polynomial is trace(T^n); the broken chainsaw is C(n+1, a, b)
    with unit 0 barred from the chain state. Polynomials are packed into one
    integer at x = 2^k (Kronecker substitution), which stays exact because
    no coefficient reaches 2^k.
    """
    units = n + 1 if family == "broken" else n
    k = 8 * ((((a + 1) ** units).bit_length() + 8) // 8)
    starts = (1, 2, 3) if family == "broken" else (0, 1, 2, 3)
    total = 0
    for s0 in starts:
        vec = [0, 0, 0, 0]
        vec[s0] = 1
        for _ in range(units):
            chain, low, high, none = vec
            free = low + high + none
            every = free + chain
            vec = [free << k, (free * (a - b)) << k, (every * (b - 1)) << k, every]
        total += vec[s0]
    raw = total.to_bytes((total.bit_length() + 7) // 8, "little")
    step = k // 8
    coeffs = [int.from_bytes(raw[i : i + step], "little") for i in range(0, len(raw), step)]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def int_residues(value: int) -> list[int]:
    r = value % MODULUS
    return [r % TAIL, r % 9, r % 11]


def _digit_sum(digits: str) -> int:
    return sum(digits.count(c) * int(c) for c in "123456789")


def text_residues(out: str) -> list[int] | None:
    """Residues of the integer printed in `out`, by one linear scan; None if malformed."""
    if not out.endswith("\n"):
        return None
    body = out[:-1]
    neg = body.startswith("-")
    digits = body[1:] if neg else body
    if not (digits.isascii() and digits.isdigit()) or (digits[0] == "0" and digits != "0"):
        return None
    rev = digits[::-1]
    alternating = _digit_sum(rev[0::2]) - _digit_sum(rev[1::2])
    res = [int(digits[-18:]) % TAIL, _digit_sum(digits) % 9, alternating % 11]
    if neg:
        res = [(-res[0]) % TAIL, (-res[1]) % 9, (-res[2]) % 11]
    return res


def expect_int(value: int) -> dict:
    """Expectation for a command that prints one integer and exits 0."""
    if abs(value).bit_length() <= EXACT_BITS:
        return {"exit": 0, "text": f"{value}\n"}
    return {"exit": 0, "residues": int_residues(value)}


def expect_seq(kind: str, n: int, p: int, q: int) -> dict:
    if n <= 20_000:
        return expect_int(lucas(kind, n, p, q))
    return {"exit": 0, "residues": int_residues(lucas(kind, n, p, q, MODULUS))}


def expect_verify(n_max: int, a_max: int) -> dict:
    """Reference tables for the rows of a verify report over the given sweep."""
    grid = [
        (n, a, b) for n in range(1, n_max + 1) for a in range(1, a_max + 1) for b in range(1, a + 1)
    ]
    return {
        "exit": 0,
        "verify": {
            "grid": [list(t) for t in grid],
            "V": {f"{n},{a},{b}": str(lucas("V", n, a, -b)) for n, a, b in grid},
            "U": {f"{n},{a},{b}": str(lucas("U", n + 2, a, -b)) for n, a, b in grid},
            "path": {str(n): str(lucas("U", n + 2, 1, -1)) for n in range(1, n_max + 1)},
            "cycle": {str(n): str(lucas("V", n, 1, -1)) for n in range(1, n_max + 1)},
            "path_poly": {str(n): str(path_poly(n)) for n in range(1, n_max + 1)},
            "cycle_poly": {str(n): str(cycle_poly(n)) for n in range(1, n_max + 1)},
        },
    }


_STRATUM = re.compile(r"(\d+): (\d+)")

# Row label prefix -> (reference table, whether the value is a strata listing).
_ROW_TABLES = {
    "chainsaw count:": ("V", False),
    "broken count:": ("U", False),
    "chainsaw strata:": ("V", True),
    "broken strata:": ("U", True),
    "lucas V:": ("V", False),
    "lucas U:": ("U", False),
    "dickson D:": ("V", False),  # D_n(a, -b) = V_n(a, -b)
    "dickson E:": ("U", False),  # E_{n+1}(a, -b) = U_{n+2}(a, -b)
    "path count": ("path", False),
    "cycle count": ("cycle", False),
    "path coefficients": ("path_poly", False),
    "cycle coefficients": ("cycle_poly", False),
}


def _verify_ok(out: str, ref: dict) -> bool:
    try:
        return _verify_rows_ok(json.loads(out), ref)
    except (ValueError, KeyError, TypeError, AttributeError):
        return False


def _verify_rows_ok(report: dict, ref: dict) -> bool:
    checks, summary = report["checks"], report["summary"]
    if summary.get("all_pass") is not True or summary.get("total") != len(checks):
        return False
    covered = set()
    for row in checks:
        if row.get("pass") is not True or row.get("left") != row.get("right"):
            return False
        label = next((p for p in _ROW_TABLES if row["identity"].startswith(p)), None)
        if label is None:
            continue  # a row this benchmark has no reference for; pass/left == right suffices
        table, strata = _ROW_TABLES[label]
        params = row["params"]
        key = str(params["n"]) if "a" not in params else f"{params['n']},{params['a']},{params['b']}"
        value = row["left"]
        if strata:
            value = str(sum(int(c) for _, c in _STRATUM.findall(value)))
        if ref[table].get(key) != value:
            return False
        if label.endswith("count:"):
            covered.add((label, key))
    expected = {(f, f"{n},{a},{b}") for n, a, b in ref["grid"] for f in ("chainsaw count:", "broken count:")}
    return covered == expected


def check(expect: dict, code: int, out: str) -> bool:
    """True when a request's exit code and stdout match its expectation."""
    if code != expect["exit"]:
        return False
    if "text" in expect:
        return out == expect["text"]
    if "residues" in expect:
        return text_residues(out) == expect["residues"]
    return _verify_ok(out, expect["verify"])
