"""Exact integer engines for Lucas sequences and Dickson polynomials.

Everything here is the recurrence W_k = p*W_{k-1} - q*W_{k-2} from other seeds; each kind
is U or V at a shifted index, which every route reads from the kind table ``_LUCAS_VALUE``:

    U (first kind):   U_0 = 0, U_1 = 1     (U at (1, -1) is Fibonacci)
    V (second kind):  V_0 = 2, V_1 = p     (V at (1, -1) is Lucas)
    D (Dickson 1st):  D_0 = 2, D_1 = x     (D_n = V_n)
    E (Dickson 2nd):  E_0 = 1, E_1 = x     (E_n = U_{n+1})

D and E also have binomial summations, whose weights ``_dickson_weights`` carries from
term to term: ``_dickson_terms`` lists the summands (the closed-form strata) and
``_dickson_sum`` adds them in Horner form, in linear memory. The ``recurrence`` method
runs U or V up to 64 steps a block, by four products of the pair (W_m, W_{m+1}) with
short U_k (``_by_recurrence``). The ``matrix`` method takes O(log n) doublings of the
triple (U_k, V_k, q^k), which fixes the k-th power of the 2x2 companion matrix, and one
product to finish. ``evaluate`` dispatches on ``_ROUTES``, keyed by ``METHODS``, and
returns arbitrary-precision Python ints; parameters may be negative or zero. ``lucas_U``,
``lucas_V``, ``dickson_D_sum`` and ``dickson_E_sum`` are ``evaluate`` with a fixed kind
and method, so they check and fail as it does. The command line prints a ``matrix``
value from the same doubling on exact Decimals (``counting.sequence_text``), computed
in the base it is printed in.
"""

from __future__ import annotations

from .graphs import _Frozen, _check_int

# kind -> (whether it is the second-kind value V, index shift): D_n = V_n, E_n = U_{n+1}
_LUCAS_VALUE = {"U": (False, 0), "V": (True, 0), "D": (True, 0), "E": (False, 1)}
KINDS = tuple(_LUCAS_VALUE)
_BLOCK_BITS, _BLOCK_STEPS = 120, 64  # bounds on the coefficients of a recurrence block


def _by_recurrence(n: int, p: int, q: int, w0: int, w1: int) -> int:
    """W_n from (W_0, W_1) = (w0, w1), k steps a block: W_{m+k} = U_k W_{m+1} - q U_{k-1} W_m, and at k + 1.

    A block is four products by short coefficients, not 3k long operations. U_0 .. U_{k+1} come from
    the recurrence on small ints, below 2^_BLOCK_BITS, with k <= _BLOCK_STEPS (U stays small at (1, 1))
    and k <= n / 8. The n mod k steps left over, or all n if k < 2, run one at a time first, on the seeds.
    """
    u = [0, 1]  # U_0 .. U_{k+1}
    while len(u) < min(n // 8, _BLOCK_STEPS) + 2 and (w := p * u[-1] - q * u[-2]).bit_length() <= _BLOCK_BITS:
        u.append(w)
    blocks, steps = divmod(n, len(u) - 2) if len(u) > 3 else (0, n)  # a one-step block is dearer than a step
    for _ in range(steps):
        w0, w1 = w1, p * w1 - q * w0
    if blocks:  # u ends U_{k-1}, U_k, U_{k+1}
        a, b, c, d = u[-2], q * u[-3], u[-1], q * u[-2]
        for _ in range(blocks):
            w0, w1 = a * w1 - b * w0, c * w1 - d * w0
    return w0


def _recurrence(kind: str, n: int, p: int, q: int) -> int:
    """The kind's U or V at its shifted index, from the seeds (0, 1) or (2, p), in blocks."""
    second, shift = _LUCAS_VALUE[kind]
    return _by_recurrence(n + shift, p, q, *((2, p) if second else (0, 1)))


def _dickson_weights(kind: str, n: int, y: int):
    """The weights c_t = w_t (-y)^t, t = 0..floor(n/2), of D_n(x, y) (kind "D") or E_n(x, y) ("E").

    Term t of the summation is c_t x^(n-2t), with w_t = C(n-t, t) for E and
    n/(n-t) C(n-t, t) for D. c_t is carried to c_{t+1} by -y times the ratio
    (n-2t)(n-2t-1) / ((t+1)(n-t)), n-t-1 in place of n-t for D; the
    division is exact since the result is an integer. So no term needs a
    binomial.
    """
    if n == 0 and kind == "D":
        yield 2  # the seed D_0: the weight is 0/0-shaped here
        return
    shift = 1 if kind == "D" else 0
    carried = 1
    yield carried
    for t in range(n // 2):
        carried = carried * (-y * (n - 2 * t) * (n - 2 * t - 1)) // ((t + 1) * (n - t - shift))
        yield carried


def _dickson_terms(kind: str, n: int, x: int, y: int) -> list[int]:
    """The summands c_t x^(n-2t), t = 0..floor(n/2), of D_n(x, y) or E_n(x, y).

    The powers of x are built upwards by x^2 from the last term, so no term
    needs a fresh power.
    """
    terms, power, x2 = [], (x if n & 1 else 1), x * x
    for c in reversed(list(_dickson_weights(kind, n, y))):  # power is x^(n-2t), t downwards
        terms.append(c * power)
        power *= x2
    return terms[::-1]


def _dickson_sum(kind: str, n: int, x: int, y: int) -> int:
    """D_n(x, y) or E_n(x, y) by its summation, in Horner form in x^2: linear memory."""
    x2, total = x * x, 0
    for c in _dickson_weights(kind, n, y):
        total = total * x2 + c
    return total * x if n & 1 else total


class SequenceSpec(_Frozen):
    """A sequence evaluation request: kind in KINDS, method in METHODS; ``evaluate`` checks it."""

    __slots__ = ("kind", "n", "p", "q", "method")

    def __init__(self, kind: str, n: int, p: int, q: int, method: str = "recurrence") -> None:
        self._init(kind, n, p, q, method)


def _step(p, q, u, v):
    """(U_{k+1}, V_{k+1}) from (U_k, V_k): (p U_k + V_k) / 2 and p U_{k+1} - 2 q U_k.

    Both are linear in the operands. The second equals ((p^2 - 4q) U_k + p V_k) / 2
    but multiplies by p and q alone.
    """
    w = (p * u + v) // 2
    return w, p * w - 2 * (q * u)


def _by_matrix(kind: str, n: int, p, q):
    """The `kind` value at index n by doubling the triple (U_k, V_k, q^k), O(log n) long products.

    The triple fixes the k-th power of the companion matrix M = [[p, -q], [1, 0]],
    as 2 M^k = V_k I + U_k (2M - pI). Doubling it is U_{2k} = U_k V_k,
    V_{2k} = V_k^2 - 2 q^k and q^{2k} = (q^k)^2 (Joye and Quisquater 1996); a step by
    one is ``_step``. Every kind is U or V at a shifted index (``_LUCAS_VALUE``). The
    doubling stops at m = floor(n/2), and one product of half-width factors finishes:
    U_{2m} = U_m V_m, V_{2m} = V_m^2 - 2 q^m, U_{2m+1} = U_{m+1} V_m - q^m and
    V_{2m+1} = V_{m+1} V_m - p q^m. So a level costs two long products and the square
    of q^k, which is short at |q| = 1, and the finish one.

    The halving in ``_step`` is ``//``, exact because each numerator is twice a
    polynomial in p and q with integer coefficients. Nothing but +, -, * and // 2
    touches the operands, so p and q may be ints or exact Decimals.
    """
    second, shift = _LUCAS_VALUE[kind]
    n += shift
    if n < 2:
        return (p if n else 2) if second else n
    u, v, qk = 1, p, q  # (U_k, V_k, q^k) at k = 1
    for bit in bin(n >> 1)[3:]:  # up to k = m
        u, v, qk = u * v, v * v - 2 * qk, qk * qk
        if bit == "1":
            (u, v), qk = _step(p, q, u, v), q * qk
    if n & 1:  # U_{m+1} V_m - q^m or V_{m+1} V_m - p q^m
        u, w = _step(p, q, u, v)
        u, qk = (w, p * qk) if second else (u, qk)
        del w  # dead before the long product
    elif second:  # V_m^2 - 2 q^m
        u, qk = v, 2 * qk
    else:  # U_m V_m
        qk = 0
    return u * v - qk


_ROUTES = {"recurrence": _recurrence, "summation": _dickson_sum, "matrix": _by_matrix}  # route(kind, n, p, q)
METHODS = tuple(_ROUTES)


def _check_spec(spec: SequenceSpec) -> None:
    """ValueError unless `spec` has int n, p and q and names a kind, a method for it and n >= 0."""
    for name in ("n", "p", "q"):
        _check_int(getattr(spec, name), name)
    if spec.kind not in KINDS:
        raise ValueError(f"unknown sequence kind {spec.kind!r}; expected one of {KINDS}")
    if spec.method not in METHODS:
        raise ValueError(f"unknown method {spec.method!r}; expected one of {METHODS}")
    if spec.n < 0:
        raise ValueError(f"sequence index must be nonnegative, got {spec.n}")
    if spec.method == "summation" and spec.kind not in ("D", "E"):
        raise ValueError("summation applies only to Dickson kinds D and E")


def evaluate(spec: SequenceSpec) -> int:
    """Evaluate a checked SequenceSpec by its method's route in ``_ROUTES``."""
    _check_spec(spec)
    return _ROUTES[spec.method](spec.kind, spec.n, spec.p, spec.q)


def lucas_U(n: int, p: int, q: int) -> int:
    """U_n(p, q) from U_0 = 0, U_1 = 1: ``evaluate`` of the U spec by ``recurrence``, with its errors."""
    return evaluate(SequenceSpec("U", n, p, q, "recurrence"))


def lucas_V(n: int, p: int, q: int) -> int:
    """V_n(p, q) from V_0 = 2, V_1 = p: ``evaluate`` of the V spec by ``recurrence``, with its errors."""
    return evaluate(SequenceSpec("V", n, p, q, "recurrence"))


def dickson_D_sum(n: int, x: int, y: int) -> int:
    """D_n(x, y), D_0 = 2: ``evaluate`` of the D spec by ``summation``; its errors name x and y as p and q."""
    return evaluate(SequenceSpec("D", n, x, y, "summation"))


def dickson_E_sum(n: int, x: int, y: int) -> int:
    """E_n(x, y), E_0 = 1: ``evaluate`` of the E spec by ``summation``; its errors name x and y as p and q."""
    return evaluate(SequenceSpec("E", n, x, y, "summation"))
