"""Seeded request plans for the three workloads.

A plan is a list of groups, one per timed end-to-end metric. Each group
holds CLI argument lists with their expected exit code and output, and
whether it is light: a heavy request runs once per round, a light group in
every slot of a round. Every workload carries every group, because every
run reports every metric: the groups a workload is not about are light (a
few milliseconds per pass), where they show per-call overhead.

Costs are pinned per slot so that the seed changes which instances run but
not how much work a pass is: the machine this was tuned on shows run-to-run
noise of several percent, and a seed that also moved the cost would add to it.
"""

from __future__ import annotations

import math
import random

import reference as ref

WORKLOADS = ("sweep", "elim", "big-index")
METRICS = ("verify_s", "brute_s", "eliminate_s", "poly_s", "seq_s", "closed_form_s")
BRUTE_CAP = 26  # the CLI's default oracle cap


def _family_args(family: str, n: int, a: int | None = None, b: int | None = None) -> list[str]:
    args = ["--family", family, "--n", str(n)]
    if a is not None:
        args += ["--a", str(a), "--b", str(b)]
    return args


def _order(family: str, n: int, a: int | None) -> int:
    if a is None:
        return n
    return n * a if family == "chainsaw" else (n + 1) * a - 1


def count_request(method: str, family: str, n: int, a=None, b=None) -> dict:
    if method == "brute" and _order(family, n, a) > BRUTE_CAP:
        expect = {"exit": 3, "text": ""}
    else:
        expect = ref.expect_int(ref.family_count(family, n, a or 1, b or 1))
    return {"argv": ["count", *_family_args(family, n, a, b), "--method", method], "expect": expect}


def poly_request(family: str, n: int, a=None, b=None) -> dict:
    if family == "path":
        coeffs = ref.path_poly(n)
    elif family == "cycle":
        coeffs = ref.cycle_poly(n)
    else:
        coeffs = ref.chainsaw_poly(family, n, a, b)
    return {"argv": ["poly", *_family_args(family, n, a, b)], "expect": {"exit": 0, "text": f"{coeffs}\n"}}


def seq_request(kind: str, n: int, p: int, q: int, method: str) -> dict:
    argv = ["seq", "--kind", kind, "--n", str(n), f"--p={p}", f"--q={q}", "--method", method]
    return {"argv": argv, "expect": ref.expect_seq(kind, n, p, q)}


def _verify(n_max: int, a_max: int, brute_cap: int | None) -> dict:
    argv = ["verify"] if brute_cap is None else [
        "verify", "--n-max", str(n_max), "--a-max", str(a_max), "--brute-cap", str(brute_cap)
    ]
    return {"argv": argv, "expect": ref.expect_verify(n_max, a_max)}


def _jitter(rng: random.Random, n: int, frac: float) -> int:
    return max(1, round(n * (1 + rng.uniform(-frac, frac))))


def _dense_of_order(rng: random.Random, order: int) -> tuple[str, int, int, int]:
    """A chainsaw or broken chainsaw with a >= 2 and exactly `order` vertices."""
    shapes = [("chainsaw", order // a, a) for a in range(2, 6) if order % a == 0]
    shapes += [("broken", (order + 1) // a - 1, a) for a in range(2, 6) if (order + 1) % a == 0]
    family, n, a = rng.choice([s for s in shapes if s[1] >= 3])
    return family, n, a, rng.randint(1, a)


def _seq_of_bits(rng: random.Random, kind: str, bits: int, p: int, q: int, method: str) -> dict:
    """A seq request whose result has about `bits` bits; the seed picks the sign of p."""
    per_index = math.log2((p + math.sqrt(p * p - 4 * q)) / 2)
    return seq_request(kind, _jitter(rng, round(bits / per_index), 0.01), rng.choice([-p, p]), q, method)


# Light groups: a few milliseconds per pass; the heavy groups of a workload replace them.

def _light_brute(rng):
    return [
        count_request("brute", rng.choice(["path", "cycle"]), 12),
        count_request("brute", *_dense_of_order(rng, 14)),
        count_request("brute", rng.choice(["path", "cycle"]), 30),
    ]


LIGHT_ELIM = (("chainsaw", 25, 3, 2), ("broken", 25, 2, 1), ("cycle", 45, None, None))
LIGHT_CLOSED = (("chainsaw", 150, 3, 2), ("broken", 150, 4, 3), ("cycle", 200, None, None))


def _light_seq(rng):
    kinds = rng.sample("UVDE", 3)
    return [
        _seq_of_bits(rng, kinds[0], 6000, 3, -2, "matrix"),
        _seq_of_bits(rng, kinds[1], 3000, 5, -1, "matrix"),
        _seq_of_bits(rng, kinds[2], 1200, 7, -3, "recurrence"),
        _seq_of_bits(rng, rng.choice("DE"), 430, 7, -3, "summation"),
    ]


# Heavy groups. Each slot pins what the cost depends on; the seed jitters n by 1% and
# picks kinds, signs and which of several equal-cost shapes to use.

def _sweep_brute(rng):
    # Vertex counts 22-26 at the default cap of 26, sparse and dense mixed
    # (the numpy oracle's cost follows the vertex count alone), plus requests
    # over the cap that must exit 3 before any enumeration.
    return [
        count_request("brute", rng.choice(["path", "cycle"]), 22),
        count_request("brute", *_dense_of_order(rng, 23)),
        count_request("brute", rng.choice(["path", "cycle"]), 24),
        count_request("brute", *_dense_of_order(rng, 26)),
        count_request("brute", "path", rng.randint(27, 60)),
        count_request("brute", *_dense_of_order(rng, rng.choice([30, 36, 40, 48]))),
    ]


ELIM_SLOTS = (  # (family, n, a, b): 320 to 2105 vertices
    ("chainsaw", 160, 2, 1),
    ("broken", 250, 3, 2),
    ("chainsaw", 200, 4, 2),
    ("chainsaw", 160, 5, 5),
    ("broken", 420, 5, 3),
)


def _elim_instances(rng):
    return [(f, _jitter(rng, n, 0.01), a, b) for f, n, a, b in ELIM_SLOTS]


SEQ_MATRIX_SLOTS = (  # (result bits, |p|, q): n from about 1.2*10^5 to 3*10^5
    (200_000, 3, -1),
    (300_000, 2, -1),
    (400_000, 5, -2),
    (550_000, 3, -2),
)


def _big_seq(rng):
    return (
        [_seq_of_bits(rng, k, *slot, "matrix") for k, slot in zip(rng.sample("UVDE", 4), SEQ_MATRIX_SLOTS)]
        + [_seq_of_bits(rng, k, 29_000, 7, -3, "recurrence") for k in rng.sample("UVDE", 2)]  # n about 10^4
        + [_seq_of_bits(rng, k, 5_800, 7, -3, "summation") for k in "DE"]  # n about 2000
    )


CLOSED_SLOTS = (
    ("chainsaw", 1000, 3, 2),
    ("broken", 2000, 4, 2),
    ("chainsaw", 3500, 2, 1),
    ("broken", 5000, 3, 2),
)


def _big_closed(rng):
    return [count_request("closed-form", f, _jitter(rng, n, 0.01), a, b) for f, n, a, b in CLOSED_SLOTS]


def build(workload: str, seed: int) -> list[dict]:
    """The request plan of `workload` for `seed`; the same seed gives the same plan."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    rng = random.Random(f"{workload}:{seed}")
    light = {
        "verify_s": [_verify(4, 3, 12)],
        "brute_s": _light_brute(rng),
        "eliminate_s": [count_request("eliminate", *i) for i in LIGHT_ELIM],
        "poly_s": [poly_request(*i) for i in LIGHT_ELIM],
        "seq_s": _light_seq(rng),
        "closed_form_s": [count_request("closed-form", *i) for i in LIGHT_CLOSED],
    }
    if workload == "sweep":
        heavy = {"verify_s": [_verify(8, 4, None)], "brute_s": _sweep_brute(rng)}
    elif workload == "elim":
        instances = _elim_instances(rng)
        heavy = {
            "eliminate_s": [count_request("eliminate", *i) for i in instances],
            "poly_s": [poly_request(*i) for i in instances],
        }
    else:
        heavy = {"seq_s": _big_seq(rng), "closed_form_s": _big_closed(rng)}
    return [
        {"metric": m, "light": m not in heavy, "requests": heavy.get(m) or light[m]} for m in METRICS
    ]
