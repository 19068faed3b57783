"""The three workloads: fixed task lists, timed one task at a time, and checked.

Each workload is set up once from the seed, then run pass after pass.  A
pass runs the whole task list in one closed loop (one client, the next task
starts when the previous one returns) and records each task's time.
check() then verifies the pass's answers, outside the timed loop and outside
any trace; a wrong answer raises WrongAnswer.
"""

from __future__ import annotations

import inspect
import io
import os
import random
import shutil
import time
from dataclasses import dataclass, field

from gracecolor import ap3, checking, cli, solver, tables
from gracecolor.budget import SolveBudget
from gracecolor.graphs import Graph

from corpus import corpus, structured, PINS


class WrongAnswer(Exception):
    """The program returned a value, witness or exit code that is wrong."""


@dataclass
class PassResult:
    task_times: list[float]  # one per step: a task, or one ladder level
    outcomes: list  # one raw result per task, for check()
    chi_g_times: dict[str, float] = field(default_factory=dict)  # graceful only


def _label(tracer, task: str) -> None:
    if tracer is not None:
        tracer.task = task


def _between(gauge) -> None:
    """Between two timed steps: let the speed gauge take a sample when due."""
    if gauge is not None:
        gauge.tick()


# -- independent oracles ------------------------------------------------------


def has_3ap(values) -> bool:
    """True when some three members of the set are in arithmetic progression."""
    members = sorted(set(values))
    present = set(members)
    return any((a + c) % 2 == 0 and (a + c) // 2 in present
               for i, a in enumerate(members) for c in members[i + 1:])


def graceful_ok(g: Graph, colors, palette: int) -> bool:
    """Definition-level check of a graceful coloring."""
    if len(colors) != g.n or any(not 1 <= c <= palette for c in colors):
        return False
    for u in range(g.n):
        seen = set()
        for v in g.adjacency[u]:
            d = abs(colors[u] - colors[v])
            if d == 0 or d in seen:
                return False
            seen.add(d)
    return True


def proper_ok(g: Graph, colors, k: int) -> bool:
    return (len(colors) == g.n and all(1 <= c <= k for c in colors)
            and all(colors[u] != colors[v] for u, v in g.edges))


def a_reference(n: int) -> int:
    return tables.CHI_G_COMPLETE_REFERENCE[n][0]


def l_reference(m: int) -> int:
    """L(m) = the largest n with a(n) <= m (a(1) = 1); valid for 1 <= m <= a(32)."""
    return max((n for n, (a, _) in tables.CHI_G_COMPLETE_REFERENCE.items() if a <= m),
               default=1)


def ap3_witness_ok(witness, size: int, span: int, exact_span: bool) -> bool:
    """A 3-AP-free set of `size` integers within [1..span] (spanning it exactly)."""
    return (len(witness) == size and list(witness) == sorted(set(witness))
            and witness[0] >= 1 and witness[-1] <= span and not has_3ap(witness)
            and (not exact_span or (witness[0] == 1 and witness[-1] == span)))


# -- ladder ---------------------------------------------------------------------


class Ladder:
    """The work of `gracecolor table 20` without a cache, on a fresh Ap3Engine.

    The engine is stepped through L(m) for m = 1..a(20) = 63, one level per
    task, and then table_report(20) reads the rows off the proven ladder.
    This is exactly the search a cold table_report(20) does (the same
    13,461,295 nodes at the commit that introduced the benchmark), split
    into steps so that each level is timed, and checked, on its own.  The
    steps make up one task, as `gracecolor table 20` is one request.
    """

    N_MAX = 20
    ONE_TASK = True

    def __init__(self, seed: int, workdir: str):
        del seed, workdir  # the table has no free input
        self.top = a_reference(self.N_MAX)

    def tasks(self) -> int:
        return 1

    def run_pass(self, tracer=None, gauge=None) -> PassResult:
        engine = ap3.Ap3Engine()
        times, outcomes = [], []
        for m in range(1, self.top + 1):
            _between(gauge)
            _label(tracer, f"L({m})")
            t0 = time.perf_counter()
            outcomes.append(engine.longest(m))
            times.append(time.perf_counter() - t0)
        _between(gauge)
        _label(tracer, f"table {self.N_MAX}")
        t0 = time.perf_counter()
        outcomes.append(tables.table_report(self.N_MAX, engine=engine))
        times.append(time.perf_counter() - t0)
        return PassResult(times, outcomes)

    def check(self, result: PassResult) -> int:
        """Number of proven tasks: the table, once every level and row is right."""
        *levels, rows = result.outcomes
        for m, level in enumerate(levels, start=1):
            if (not level.proven or level.value != l_reference(m)
                    or not ap3_witness_ok(level.witness, level.value, m, False)):
                raise WrongAnswer(f"L({m}) = {level.value} witness {level.witness}, "
                                  f"expected {l_reference(m)}")
        for row in rows:
            if (row.status != tables.STATUS_OK or row.computed != a_reference(row.n)
                    or not ap3_witness_ok(row.witness, row.n, row.computed, True)):
                raise WrongAnswer(f"table row n={row.n}: {row.status} {row.computed} "
                                  f"witness {row.witness}")
        return 1

    def levels(self, result: PassResult) -> list[dict]:
        """Per-level rows of a pass: a level is a refutation when L(m) = L(m-1)."""
        rows, previous = [], 0
        for m, (level, seconds) in enumerate(zip(result.outcomes, result.task_times), start=1):
            if m > self.top:
                break
            rows.append({"layer": "ap3", "m": m, "value": level.value,
                         "outcome": "witness" if level.value > previous else "refute",
                         "nodes": level.stats.nodes, "prunes": level.stats.prunes_by_bound,
                         "seconds": seconds})
            previous = level.value
        return rows


# -- graceful -------------------------------------------------------------------


class Graceful:
    """chi_g and the chromatic number of every corpus graph, under a node cap.

    The cap is in nodes only, never seconds, so which tasks are proven does
    not depend on the machine.  At the commit that introduced the benchmark
    seven of the random trees exhaust it.
    """

    NODE_CAP = 150_000
    ONE_TASK = False

    def __init__(self, seed: int, workdir: str):
        del workdir
        self.entries = corpus(seed)
        self.budget = SolveBudget(max_nodes=self.NODE_CAP)

    def tasks(self) -> int:
        return len(self.entries)

    def run_pass(self, tracer=None, gauge=None) -> PassResult:
        times, chi_g_times, outcomes = [], {}, []
        for entry in self.entries:
            _between(gauge)
            _label(tracer, entry.name)
            t0 = time.perf_counter()
            graceful = solver.chi_g(entry.graph, self.budget)
            t1 = time.perf_counter()
            chromatic = solver.chromatic_number(entry.graph, self.budget)
            t2 = time.perf_counter()
            times.append(t2 - t0)
            chi_g_times[entry.name] = t1 - t0
            outcomes.append((graceful, chromatic))
        return PassResult(times, outcomes, chi_g_times)

    def check(self, result: PassResult) -> int:
        """Number of tasks with both values proven; a wrong value raises."""
        return sum(self._check(entry, *outcome)
                   for entry, outcome in zip(self.entries, result.outcomes))

    def _check(self, entry, graceful, chromatic) -> bool:
        g = entry.graph
        if graceful.status == solver.SOLVED:
            coloring = graceful.witness
            if (graceful.value != entry.chi_g or coloring.palette != graceful.value
                    or not checking.verify_graceful(g, coloring).valid
                    or not graceful_ok(g, coloring.colors, graceful.value)):
                raise WrongAnswer(f"{entry.name}: chi_g {graceful.value}, pinned {entry.chi_g}")
        elif graceful.status != solver.EXHAUSTED:
            raise WrongAnswer(f"{entry.name}: chi_g status {graceful.status}")
        if chromatic.status == solver.SOLVED:
            if chromatic.value != entry.chi or not proper_ok(g, chromatic.witness, entry.chi):
                raise WrongAnswer(f"{entry.name}: chi {chromatic.value}, pinned {entry.chi}")
        elif chromatic.status != solver.EXHAUSTED:
            raise WrongAnswer(f"{entry.name}: chi status {chromatic.status}")
        return graceful.status == solver.SOLVED and chromatic.status == solver.SOLVED

    def levels(self, last: PassResult) -> list[dict]:
        """Decide every palette k from the structural lower bound up to chi_g,
        for each task whose chi_g was proven in `last`."""
        rows = []
        for entry, (graceful, _) in zip(self.entries, last.outcomes):
            if graceful.status != solver.SOLVED:
                continue
            lower = solver.graceful_lower_bound(entry.graph)
            for k in range(max(2, lower), graceful.value + 1):
                start = time.perf_counter()
                report = solver.solve_graceful_decision(entry.graph, k, self.budget)
                seconds = time.perf_counter() - start
                expected = solver.SOLVED if k == entry.chi_g else solver.INFEASIBLE
                if report.status != expected:
                    raise WrongAnswer(f"{entry.name}: k={k} decided {report.status}")
                rows.append({"layer": "solver", "task": entry.name, "k": k,
                             "lower_bound": lower, "outcome": report.status,
                             "nodes": report.nodes, "seconds": seconds})
        return rows

    def pool_times(self, last: PassResult) -> tuple[float, float] | None:
        """(sequential, 2-worker) chi_g seconds summed over the proven tasks of
        `last`, or None when chi_g no longer takes a workers argument."""
        if "workers" not in inspect.signature(solver.chi_g).parameters:
            return None
        sequential = parallel = 0.0
        for entry, (graceful, _) in zip(self.entries, last.outcomes):
            if graceful.status != solver.SOLVED:
                continue
            start = time.perf_counter()
            report = solver.chi_g(entry.graph, self.budget, workers=2)
            parallel += time.perf_counter() - start
            sequential += last.chi_g_times[entry.name]
            if report.status != solver.SOLVED or report.value != entry.chi_g:
                raise WrongAnswer(f"{entry.name}: 2-worker chi_g {report.value}")
        return sequential, parallel


# -- scripting ------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    argv: tuple[str, ...]
    exit: int  # expected exit code
    check: object  # callable(stdout, records) -> bool, True when stdout is right
    records: bool  # called with --records


SMALL_GRAPHS = ("K5", "K6", "W5", "W6", "W7", "C4", "C5", "C6", "C7", "P4", "P5", "P6",
                "P7", "S4", "S5", "S6", "S7", "K2,2", "K2,3", "K2,4", "K3,3", "K3,4",
                "cat3-121", "petersen")
CACHE_FRONTIER = 40  # levels proven in the pre-warmed cache: a(15) = 40
FAMILIES = ("path", "cycle", "complete", "wheel", "star", "complete_bipartite",
            "caterpillar", "random_tree")


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in text.split(","))


def _lines(stdout: str) -> list[str]:
    return stdout.splitlines()


def _family_edges(tag: str, p: tuple[int, ...]) -> tuple[int, set] | None:
    """Independent edge sets for the deterministic families (None for random_tree)."""
    if tag == "path":
        return p[0], {(i, i + 1) for i in range(p[0] - 1)}
    if tag == "cycle":
        return p[0], {tuple(sorted((i, (i + 1) % p[0]))) for i in range(p[0])}
    if tag == "complete":
        return p[0], {(u, v) for u in range(p[0]) for v in range(u + 1, p[0])}
    if tag == "wheel":
        n = p[0]
        return n, {(0, i) for i in range(1, n)} | {(i, i + 1) for i in range(1, n - 1)} | {(1, n - 1)}
    if tag == "star":
        return p[0], {(0, i) for i in range(1, p[0])}
    if tag == "complete_bipartite":
        return p[0] + p[1], {(u, p[0] + v) for u in range(p[0]) for v in range(p[1])}
    if tag == "caterpillar":
        spine, legs = p[0], p[1:]
        edges, nxt = {(i, i + 1) for i in range(spine - 1)}, spine
        for i, count in enumerate(legs):
            for _ in range(count):
                edges.add((i, nxt))
                nxt += 1
        return nxt, edges
    return None


def _gen_ok(tag: str, params: tuple[int, ...], stdout: str) -> bool:
    lines = _lines(stdout)
    n, m = map(int, lines[0].split())
    edges = [tuple(map(int, line.split())) for line in lines[1:]]
    if len(edges) != m or edges != sorted(set(edges)) or any(u >= v for u, v in edges):
        return False
    expected = _family_edges(tag, params)
    if expected is not None:
        return (n, set(edges)) == expected
    # random tree: n - 1 edges that connect all n vertices
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x
    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return n == params[0] and m == n - 1


def _sidon(rng: random.Random, size: int) -> list[int]:
    """Random colors whose pairwise differences are all distinct, so they
    color any graph on `size` vertices gracefully."""
    colors, diffs = [], set()
    while len(colors) < size:
        c = rng.randint(1, 4 * size * size)
        new = {abs(c - x) for x in colors}
        if c in colors or new & diffs or len(new) < len(colors):
            continue
        colors.append(c)
        diffs |= new
    return colors


class Scripting:
    """Short in-process `gracecolor` CLI calls, the way a script drives it."""

    ONE_TASK = False

    def __init__(self, seed: int, workdir: str):
        rng = random.Random(seed)
        self.workdir = workdir
        self.cache = os.path.join(workdir, "cache.txt")
        self.pristine = os.path.join(workdir, "cache.pristine")
        engine = ap3.Ap3Engine()
        engine.longest(CACHE_FRONTIER)
        cache = tables.ValueCache()
        cache.absorb_engine(engine)
        tables.store_cache(cache, self.pristine)

        graphs = dict(structured())
        files = {}
        for name in SMALL_GRAPHS:
            files[name] = self._write(f"g-{name}.txt", _edge_list(graphs[name]))
        colorings = []  # (graph name, coloring path, --palette value or None, colors)
        for i in range(80):
            name = rng.choice(SMALL_GRAPHS)
            g = graphs[name]
            colors = _sidon(rng, g.n)
            if i % 2:  # break it: repeat a difference at u, or an endpoint color
                u, v = rng.choice(g.edges)
                w = rng.choice(g.adjacency[u])
                if w != v and 2 * colors[u] - colors[v] >= 1:
                    colors[w] = 2 * colors[u] - colors[v]
                else:
                    colors[v] = colors[u]
            palette = rng.choice((None, max(colors), max(colors) - 1, max(colors) + 3))
            path = self._write(f"c-{i}.txt", " ".join(map(str, colors)) + "\n")
            colorings.append((name, path, palette, colors))

        calls: list[Call] = []
        for i in range(300):
            name, path, palette, colors = colorings[(2 * rng.randrange(40)) + i % 2]
            argv = ["verify", files[name], path]
            if palette is not None:
                argv += ["--palette", str(palette)]
            valid = graceful_ok(graphs[name], colors, palette or max(max(colors), 2))
            calls.append(self._call(rng, argv, 0 if valid else 1, _verify_check(valid)))
        for name in SMALL_GRAPHS:
            chi_g, chi = PINS[name]
            g = graphs[name]
            for _ in range(4):
                calls.append(self._call(rng, ["solve", files[name]], 0,
                                        _solve_check("chi_g", chi_g, g, graceful_ok)))
                calls.append(self._call(rng, ["chromatic", files[name]], 0,
                                        _solve_check("chi", chi, g, proper_ok)))
        for _ in range(150):
            values = rng.sample(range(1, 41), rng.randint(3, 8))
            free = not has_3ap(values)
            calls.append(self._call(rng, ["ap3", "check", ",".join(map(str, values))],
                                    0 if free else 1, _check_check(free)))
        for k in range(25 * len(FAMILIES)):
            tag = FAMILIES[k % len(FAMILIES)]
            params = _family_params(rng, tag)
            calls.append(self._call(rng, ["gen", tag, *map(str, params)], 0,
                                    lambda out, records, t=tag, p=params: _gen_ok(t, p, out)))
        ladder = []  # (argv tail, expected check), each with and without the cache
        ladder += [(["complete", str(n)], _complete_check(n)) for n in range(2, 10)] * 7
        ladder += [(["ap3", "minspan", str(k)], _minspan_check(k)) for k in range(2, 11)] * 6
        ladder += [(["ap3", "longest", str(m)], _longest_check(m)) for m in range(5, 31)] * 2
        for argv, check in ladder:
            calls.append(self._call(rng, argv, 0, check))
        cached = [(["complete", str(n)], _complete_check(n)) for n in range(2, 15)] * 4
        cached += [(["ap3", "minspan", str(k)], _minspan_check(k)) for k in range(2, 16)] * 4
        # m above the pre-warmed frontier: these calls extend the cache
        cached += [(["ap3", "longest", str(m)], _longest_check(m))
                   for m in range(5, CACHE_FRONTIER + 6)]
        for argv, check in cached:
            calls.append(self._call(rng, argv + ["--cache", self.cache], 0, check))
        rng.shuffle(calls)
        self.calls = calls

    def _write(self, name: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        return path

    @staticmethod
    def _call(rng: random.Random, argv: list[str], code: int, check) -> Call:
        records = argv[0] != "gen" and rng.random() < 0.5
        return Call(tuple(argv + ["--records"] if records else argv), code, check, records)

    def tasks(self) -> int:
        return len(self.calls)

    def run_pass(self, tracer=None, gauge=None) -> PassResult:
        shutil.copyfile(self.pristine, self.cache)
        results, times = [], []
        for index, call in enumerate(self.calls):
            _between(gauge)
            _label(tracer, f"call {index}")
            out, err = io.StringIO(), io.StringIO()
            t0 = time.perf_counter()
            code = cli.run(list(call.argv), out, err)
            times.append(time.perf_counter() - t0)
            results.append((code, out.getvalue(), err.getvalue()))
        return PassResult(times, results)

    def check(self, result: PassResult) -> int:
        """Number of calls, once every exit code and output is right."""
        for call, (code, stdout, stderr) in zip(self.calls, result.outcomes):
            try:
                ok = code == call.exit and call.check(stdout, call.records)
            except (ValueError, IndexError, KeyError):
                ok = False
            if not ok:
                raise WrongAnswer(f"gracecolor {' '.join(call.argv)}: exit {code}, "
                                  f"stdout {stdout!r}, stderr {stderr!r}")
        return len(self.calls)


def _edge_list(g: Graph) -> str:
    return "".join([f"{g.n} {len(g.edges)}\n"] + [f"{v} {u}\n" for u, v in g.edges])


def _family_params(rng: random.Random, tag: str) -> tuple[int, ...]:
    if tag == "complete_bipartite":
        return rng.randint(1, 6), rng.randint(1, 6)
    if tag == "caterpillar":
        spine = rng.randint(1, 6)
        return (spine, *(rng.randint(0, 3) for _ in range(spine)))
    if tag == "random_tree":
        return rng.randint(2, 40), rng.randrange(1000)
    low = {"path": 2, "cycle": 3, "complete": 2, "wheel": 4, "star": 2}[tag]
    return (rng.randint(low, 12 if tag == "complete" else 40),)


def _verify_check(valid: bool):
    def check(stdout: str, records: bool) -> bool:
        verdict = _lines(stdout)[0].split()[0]
        return verdict == ("valid" if valid else "invalid" if records else "invalid:")
    return check


def _check_check(free: bool):
    def check(stdout: str, records: bool) -> bool:
        return stdout.startswith("3-AP-free:" if free else "not 3-AP-free:")
    return check


def _solve_check(label: str, value: int, g: Graph, valid):
    def check(stdout: str, records: bool) -> bool:
        lines = _lines(stdout)
        if records:
            name, got, colors = lines[0].split(" ")
        else:
            name, got = lines[0].split(" = ")
            colors = lines[1].removeprefix("witness: ")
        return name == label and int(got) == value and valid(g, _ints(colors), value)
    return check


def _complete_check(n: int):
    a = a_reference(n)

    def check(stdout: str, records: bool) -> bool:
        lines = _lines(stdout)
        if records:
            got_n, got, colors = lines[0].split(" ")
            ok = int(got_n) == n
        else:
            ok = lines[0] == f"chi_g(K_{n}) = {a}"
            got, colors = a, lines[1].removeprefix("witness: ")
        return ok and int(got) == a and ap3_witness_ok(_ints(colors), n, a, True)
    return check


def _minspan_check(k: int):
    a = a_reference(k)

    def check(stdout: str, records: bool) -> bool:
        lines = _lines(stdout)
        if records:
            got_k, got, status, colors = lines[0].split(" ")
            ok = int(got_k) == k and status == "proven" and int(got) == a
        else:
            ok = lines[0] == f"a({k}) = {a}"
            colors = lines[1].removeprefix("witness: ")
        return ok and ap3_witness_ok(_ints(colors), k, a, True)
    return check


def _longest_check(m: int):
    value = l_reference(m)

    def check(stdout: str, records: bool) -> bool:
        lines = _lines(stdout)
        if records:
            got_m, got, status, colors = lines[0].split(" ")
            ok = int(got_m) == m and status == "proven" and int(got) == value
        else:
            ok = lines[0] == f"L({m}) = {value}"
            colors = lines[1].removeprefix("witness: ")
        return ok and ap3_witness_ok(_ints(colors), value, m, False)
    return check


WORKLOADS = {"ladder": Ladder, "graceful": Graceful, "scripting": Scripting}
