"""Counting answers to conjunctive queries with disequalities and negation.

The package provides exact counting by enumeration, a randomized
approximation scheme built on colour-coding and a homomorphism oracle, and an
exact pipeline via tree decompositions and tree automata for queries of small
fractional hypertree width.
"""

from types import ModuleType as _ModuleType

from .automata import (
    TreeAutomaton,
    build_automaton,
    count_answers_fhw_pipeline,
    count_slice_exact,
)
from .errors import (
    BudgetExceededError,
    ContradictionError,
    CqcountError,
    DatabaseParseError,
    DatabaseValidationError,
    DecompositionError,
    LimitExceededError,
    PairValidationError,
    QueryParseError,
    QueryValidationError,
    UncoverableVertexError,
    UnsupportedQueryError,
)
from .homsolver import (
    Structure,
    build_A,
    build_B,
    count_answers_bruteforce,
    enumerate_answers_bruteforce,
    hom_exists_bruteforce,
    hom_exists_td,
    sol_bag,
)
from .qmodel import (
    Database,
    Query,
    RelationSymbol,
    build_hypergraph,
    dump_database,
    dump_query,
    format_query,
    gen_hampath,
    gen_li_hom,
    gen_random,
    load_database,
    load_graph,
    load_query,
    normalize_equalities,
    parse_query,
    validate_pair,
)
from .reduction import (
    ImplicitAnswerHypergraph,
    OracleStats,
    approx_count_answers,
    build_hat_A,
    build_hat_B,
    count_edges_exact_oracle,
    derive_rng,
    edgefree_bruteforce,
    edgefree_restricted,
    estimate_edges,
)
from .widths import (
    Hypergraph,
    TreeDecomposition,
    fhw_exact_small,
    fhw_of_td,
    fractional_edge_cover_number,
    is_valid_td,
    make_nice,
    treewidth_exact,
    treewidth_heuristic,
)

__version__ = "0.1.0"

# The imports above are the one list of public names. They also bind the
# submodules they load, which are left out.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
) + ["__version__"]
