"""Exact graceful coloring toolkit.

Verify graceful colorings of arbitrary graphs, compute graceful chromatic
numbers by exact search, and compute them for complete graphs through the
equivalence with minimal-span 3-AP-free integer sets.
"""

from .ap3 import Ap3Engine, Ap3Result, SearchStats, is_ap3_free
from .budget import BudgetExhausted, SolveBudget
from .checking import (
    GracefulColoring,
    VerificationReport,
    Violation,
    parse_coloring,
    verify_graceful,
)
from .complete import chi_g_complete
from .graphs import (
    FormatError,
    Graph,
    GraphFamily,
    caterpillar,
    complete,
    complete_bipartite,
    cycle,
    is_connected,
    max_degree,
    parse_graph,
    path,
    random_tree,
    serialize_graph,
    star,
    wheel,
)
from .solver import (
    Characterization,
    SolveReport,
    characterize,
    chi_g,
    chromatic_number,
    graceful_lower_bound,
    solve_graceful_decision,
)
from .tables import (
    ValueCache,
    load_cache,
    render_table,
    store_cache,
    table_report,
)

__version__ = "0.1.0"
