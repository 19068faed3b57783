"""Command-line front end.

Subcommands:
  verify <graph> <coloring>   check a graceful coloring
  solve <graph>               exact graceful chromatic number
  chromatic <graph>           exact chromatic number
  characterize <graph>        both numbers plus the equality predicates
  complete <n>                graceful chromatic number of the complete graph
  ap3 longest <m>             largest 3-AP-free subset of [1..m]
  ap3 minspan <k>             minimal span of a k-element 3-AP-free set
  ap3 check <list>            test a comma-separated set for progressions
  table <n_max>               reproduce the complete-graph reference table
  gen <family> <params...>    emit a named graph as an edge-list document

Exit codes: 0 success/valid; 1 invalid coloring, failed check, or reference
mismatch; 2 usage error; 3 budget exhausted; 4 I/O, parse or cache error,
or stdout closed by its reader.
Results go to stdout, diagnostics to stderr.  Identical invocations with the
same cache state produce byte-identical output (timings are never printed).
Every subcommand's stdout is written once, in 64 KiB pieces, after its
handler returns, so a reader that closes stdout early always gets exit 4
and nothing on stderr.  A ladder command stores its cache before anything
is printed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import Callable, Sequence, TextIO, TypeVar

from . import ap3, solver, tables
from .budget import BudgetExhausted, SolveBudget
from .checking import parse_coloring, verify_graceful
from .complete import chi_g_complete
from .graphs import (FAMILY_TAGS, FormatError, GraphFamily, parse_graph, read_ints,
                     read_text, serialize_graph)

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_IO = 4

DEFAULT_MAX_NODES = 10 ** 8
DEFAULT_MAX_SECONDS = 60.0
CACHE_ENV_VAR = "GRACECOLOR_CACHE"

T = TypeVar("T")


def _integer(token: str) -> int:
    """The argparse type of every integer argument: the documents' rule,
    graphs.read_ints, which refuses '+1', '0_2' and non-ASCII digits."""
    try:
        return read_ints([token])[0]
    except FormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _seconds(token: str) -> float:
    """The argparse type of --max-seconds: ASCII digits with an optional
    '.' and fraction, or 'inf' for no limit; float() alone would also take
    '+', '_', surrounding whitespace, non-ASCII digits, 'infinity' and
    'nan'."""
    whole, dot, fraction = token.partition(".")
    if token == "inf" or (token.isascii() and whole.isdigit()
                          and (fraction.isdigit() or not dot)):
        return float(token)
    raise argparse.ArgumentTypeError(f"expected seconds or 'inf', got {token!r}")


def _build_parser() -> argparse.ArgumentParser:
    # Each subcommand takes only the flags it acts on: all take --records, the
    # searching ones also a budget, and the ladder ones, which read and extend
    # the cache of proven L levels, also --cache.  Each names its handler,
    # which takes the parsed arguments and returns (exit code, stdout text,
    # stderr note); an empty note writes nothing to stderr.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--records", action="store_true",
                        help="line-oriented machine-readable output")
    search = argparse.ArgumentParser(add_help=False, parents=[common])
    search.add_argument("--max-nodes", type=_integer, default=DEFAULT_MAX_NODES,
                        metavar="N", help="search node limit (default %(default)s)")
    search.add_argument("--max-seconds", type=_seconds, default=DEFAULT_MAX_SECONDS,
                        metavar="S", help="wall-clock limit (default %(default)s)")
    ladder = argparse.ArgumentParser(add_help=False, parents=[search])
    ladder.add_argument("--cache", metavar="PATH",
                        help=f"proven-value cache file (default ${CACHE_ENV_VAR})")

    parser = argparse.ArgumentParser(prog="gracecolor", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common])
    p.set_defaults(handler=_verify)
    p.add_argument("graph")
    p.add_argument("coloring")
    p.add_argument("--palette", type=_integer, default=None,
                   help="palette size l (default: largest color used)")

    for name, handler in (("solve", _solve), ("chromatic", _chromatic),
                          ("characterize", _characterize)):
        p = sub.add_parser(name, parents=[search])
        p.set_defaults(handler=handler)
        p.add_argument("graph")

    p = sub.add_parser("complete", parents=[ladder])
    p.set_defaults(handler=_complete)
    p.add_argument("n", type=_integer)

    p = sub.add_parser("ap3")
    ap3_sub = p.add_subparsers(dest="ap3_command", required=True)
    q = ap3_sub.add_parser("longest", parents=[ladder])
    q.set_defaults(handler=_ap3_longest)
    q.add_argument("m", type=_integer)
    q = ap3_sub.add_parser("minspan", parents=[ladder])
    q.set_defaults(handler=_ap3_minspan)
    q.add_argument("k", type=_integer)
    q = ap3_sub.add_parser("check", parents=[common])
    q.set_defaults(handler=_ap3_check)
    q.add_argument("elements", help="comma-separated integers; put -- before a list "
                                    "that starts with -, as in: ap3 check -- -1,0,1")

    p = sub.add_parser("table", parents=[ladder])
    p.set_defaults(handler=_table)
    p.add_argument("n_max", type=_integer)

    p = sub.add_parser("gen", parents=[common])
    p.set_defaults(handler=_gen)
    p.add_argument("family", choices=FAMILY_TAGS)
    p.add_argument("params", nargs="+", type=_integer)

    return parser


def _budget(args: argparse.Namespace) -> SolveBudget:
    return SolveBudget(args.max_nodes, args.max_seconds)


def _write(out: TextIO, text: str) -> None:
    """Write text in 64 KiB pieces, to out's binary layer when it has one.
    A write whose reader closes the pipe midway returns a short count
    instead of raising, and a text stream over an unbuffered file, as
    stdout is under python -u or PYTHONUNBUFFERED, drops the rest without
    an error.  Here the rest is written again, which raises
    BrokenPipeError."""
    binary = getattr(out, "buffer", None)
    if binary is None:
        for start in range(0, len(text), 1 << 16):
            out.write(text[start:start + (1 << 16)])
        return
    out.flush()
    rest = memoryview(text.encode(out.encoding, out.errors))
    while rest:
        rest = rest[binary.write(rest[:1 << 16]):]


def _csv(values: Sequence[int]) -> str:
    return ",".join(map(str, values))


def run(argv: Sequence[str], stdout: TextIO | None = None,
        stderr: TextIO | None = None) -> int:
    """Execute one CLI invocation; returns the exit code.  Only this function
    writes to stdout and stderr: the handler's text, then its note."""
    out = stdout or sys.stdout
    err = stderr or sys.stderr
    parser = _build_parser()
    try:
        # argparse prints usage, errors and --help to sys.stdout and sys.stderr
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE

    try:
        code, text, note = args.handler(args)
        _write(out, text)
    except BrokenPipeError:
        return EXIT_IO  # the reader closed stdout; nothing left to tell it
    except (FormatError, OSError) as exc:
        code, note = EXIT_IO, f"error: {exc}"
    except BudgetExhausted as exc:
        code, note = EXIT_BUDGET, f"budget exhausted: {exc}"
    except ValueError as exc:
        code, note = EXIT_USAGE, f"error: {exc}"
    if note:
        print(note, file=err)
    return code


def _ladder(args: argparse.Namespace, search: Callable[[ap3.Ap3Engine, SolveBudget], T]) -> T:
    """Run search(engine, budget) on an engine seeded from the cache file,
    and store the engine's proven levels back to it when the search returns
    or runs out of budget.  The file is --cache, or $GRACECOLOR_CACHE, read
    now, when --cache is absent; an empty path means no cache.  A rejected
    argument stores nothing, and so does a search that proves no new level
    on a file already in the stored form."""
    path = os.environ.get(CACHE_ENV_VAR) if args.cache is None else args.cache
    engine = ap3.Ap3Engine()
    cache = None
    if path:
        # store_cache would learn this only after the search, from its temp file
        if not os.path.isdir(os.path.dirname(os.path.abspath(path))):
            raise OSError(f"{path}: directory does not exist")
        cache = tables.load_cache(path) if os.path.exists(path) else tables.ValueCache()
        cache.seed_engine(engine)
    try:
        outcome = search(engine, _budget(args))
    except BudgetExhausted as exc:
        outcome = exc
    if cache is not None:
        cache.absorb_engine(engine)
        if not cache.is_stored():
            tables.store_cache(cache, path)
    if isinstance(outcome, BudgetExhausted):
        raise outcome
    return outcome


def _verify(args: argparse.Namespace) -> tuple[int, str, str]:
    g = parse_graph(read_text(args.graph))
    coloring = parse_coloring(read_text(args.coloring), args.palette)
    report = verify_graceful(g, coloring)
    if report.valid:
        return EXIT_OK, (f"valid {coloring.palette}\n" if args.records else "valid\n"), ""
    violation = report.violation
    if args.records:
        return EXIT_INVALID, f"invalid {violation.kind} {_csv(violation.vertices)}\n", ""
    return EXIT_INVALID, f"invalid: {violation}\n", ""


def _solve(args: argparse.Namespace) -> tuple[int, str, str]:
    report = solver.chi_g(parse_graph(read_text(args.graph)), _budget(args))
    return _solved(report, "chi_g", report.witness and report.witness.colors, args)


def _chromatic(args: argparse.Namespace) -> tuple[int, str, str]:
    report = solver.chromatic_number(parse_graph(read_text(args.graph)), _budget(args))
    return _solved(report, "chi", report.witness, args)


def _solved(report: solver.SolveReport, label: str, colors: Sequence[int] | None,
            args: argparse.Namespace) -> tuple[int, str, str]:
    if report.status == solver.EXHAUSTED:
        return EXIT_BUDGET, "", f"budget exhausted after {report.nodes} nodes"
    if args.records:
        return EXIT_OK, f"{label} {report.value} {_csv(colors)}\n", ""
    return (EXIT_OK, f"{label} = {report.value}\nwitness: {_csv(colors)}\n"
                     f"nodes: {report.nodes}\n", "")


def _characterize(args: argparse.Namespace) -> tuple[int, str, str]:
    result = solver.characterize(parse_graph(read_text(args.graph)), _budget(args))
    if args.records:
        return (EXIT_OK, f"{result.chi} {result.chi_g} "
                         f"{int(result.equal)} {int(result.chi_g_is_3)}\n", "")
    return (EXIT_OK, f"chi = {result.chi}\nchi_g = {result.chi_g}\n"
                     f"equal = {str(result.equal).lower()}\n"
                     f"chi_g_is_3 = {str(result.chi_g_is_3).lower()}\n", "")


def _complete(args: argparse.Namespace) -> tuple[int, str, str]:
    coloring = _ladder(args, lambda engine, budget: chi_g_complete(args.n, budget, engine))
    if args.records:
        return EXIT_OK, f"{args.n} {coloring.palette} {_csv(coloring.colors)}\n", ""
    return (EXIT_OK, f"chi_g(K_{args.n}) = {coloring.palette}\n"
                     f"witness: {_csv(coloring.colors)}\n", "")


def _ap3_longest(args: argparse.Namespace) -> tuple[int, str, str]:
    result = _ladder(args, lambda engine, budget: engine.longest(args.m, budget))
    code = EXIT_OK if result.proven else EXIT_BUDGET
    if args.records:
        status = "proven" if result.proven else "unproven"
        return code, f"{args.m} {result.value} {status} {_csv(result.witness)}\n", ""
    suffix = "" if result.proven else " (unproven lower bound)"
    return code, f"L({args.m}) = {result.value}{suffix}\nwitness: {_csv(result.witness)}\n", ""


def _ap3_minspan(args: argparse.Namespace) -> tuple[int, str, str]:
    result = _ladder(args, lambda engine, budget: engine.min_span(args.k, budget))
    if result.proven:
        if args.records:
            return EXIT_OK, f"{args.k} {result.value} proven {_csv(result.witness)}\n", ""
        return EXIT_OK, f"a({args.k}) = {result.value}\nwitness: {_csv(result.witness)}\n", ""
    if args.records:
        return EXIT_BUDGET, f"{args.k} - unproven\n", ""
    return EXIT_BUDGET, f"a({args.k}) unproven: exceeds {result.value}\n", ""


def _ap3_check(args: argparse.Namespace) -> tuple[int, str, str]:
    try:
        values = tuple(read_ints(args.elements.split(",")))
    except FormatError as exc:
        raise ValueError(f"not a comma-separated integer list: {exc}") from None
    ordered = tuple(sorted(set(values)))
    free = ap3.is_ap3_free(ordered)
    label = "3-AP-free" if free else "not 3-AP-free"
    return (EXIT_OK if free else EXIT_INVALID), f"{label}: ({_csv(values)})\n", ""


def _table(args: argparse.Namespace) -> tuple[int, str, str]:
    rows = _ladder(args, lambda engine, budget: tables.table_report(args.n_max, budget, engine))
    text = tables.render_table(rows, records=args.records)
    statuses = {row.status for row in rows}
    if tables.STATUS_MISMATCH in statuses:
        return EXIT_INVALID, text, "reference mismatch detected"
    return (EXIT_BUDGET if tables.STATUS_UNPROVEN in statuses else EXIT_OK), text, ""


def _gen(args: argparse.Namespace) -> tuple[int, str, str]:
    return EXIT_OK, serialize_graph(GraphFamily(args.family, tuple(args.params)).build()), ""


def main() -> None:
    code = run(sys.argv[1:])
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; point it at devnull so that the flush at
        # exit does not report the pipe a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_IO
    sys.exit(code)
