"""Exact independent-set counting on chainsaw graph families.

The package builds chainsaw graphs C(n, a, b) and broken chainsaws
P(n, a, b), the n-vertex cycle and path being C(n, 1, 1) and P(n, 1, 1);
counts their independent sets with three engines (brute-force enumeration,
memoized elimination, binomial closed forms), the first two sharing one pass
and so checked against the Dickson summation and index doubling, not each
other; and evaluates the Lucas sequences and Dickson polynomials they realize.
"""

from .counting import (
    ComputationAbandoned,
    OracleCapExceeded,
    brute_force_strata,
    closed_form_count,
    closed_form_polynomial,
    count_brute_force,
    count_via_elimination,
    family_graph,
    independence_polynomial,
    stratified_closed_form,
)
from .graphs import (
    BLADE,
    CHAIN,
    ChainsawParams,
    Graph,
    export_graph,
    graph_from_json,
    make_broken_chainsaw,
    make_chainsaw,
    make_cycle,
    make_path,
)
from .sequences import (
    SequenceSpec,
    dickson_D_sum,
    dickson_E_sum,
    evaluate,
    lucas_U,
    lucas_V,
)
from .verify import InjectedGraph, run_verification

__version__ = "0.1.0"

__all__ = [
    "BLADE",
    "CHAIN",
    "ChainsawParams",
    "ComputationAbandoned",
    "Graph",
    "InjectedGraph",
    "OracleCapExceeded",
    "SequenceSpec",
    "brute_force_strata",
    "closed_form_count",
    "closed_form_polynomial",
    "count_brute_force",
    "count_via_elimination",
    "dickson_D_sum",
    "dickson_E_sum",
    "evaluate",
    "export_graph",
    "family_graph",
    "graph_from_json",
    "independence_polynomial",
    "lucas_U",
    "lucas_V",
    "make_broken_chainsaw",
    "make_chainsaw",
    "make_cycle",
    "make_path",
    "run_verification",
    "stratified_closed_form",
    "__version__",
]
