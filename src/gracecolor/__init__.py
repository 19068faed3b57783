"""Exact graceful coloring toolkit.

Verify graceful colorings of arbitrary graphs, compute graceful chromatic
numbers by exact search, and compute them for complete graphs through the
equivalence with minimal-span 3-AP-free integer sets.  Each layer is
imported from its own module; the package root re-exports nothing:

- gracecolor.graphs: the Graph type, generators, parse_graph,
  serialize_graph and FormatError, the one error for malformed input;
- gracecolor.checking: parse_coloring and verify_graceful;
- gracecolor.solver: chi_g, chromatic_number, solve_graceful_decision,
  characterize and graceful_lower_bound;
- gracecolor.ap3: is_ap3_free and Ap3Engine, the 3-AP-free ladder;
- gracecolor.complete: chi_g_complete, chi_g(K_n) from the ladder;
- gracecolor.tables: table_report and the value cache files;
- gracecolor.budget: SolveBudget and BudgetExhausted;
- gracecolor.cli: the command line, also run by python -m gracecolor.
"""
