"""Embedded reference values and the persistent cache of proven results.

The reference table lists published graceful chromatic numbers of complete
graphs on 2..32 vertices together with witness color sets.  The witnesses
are embedded verbatim as fixture data so that transcription slips are caught
by the internal-consistency test instead of being trusted silently.

The value cache persists the proven ladder between runs: m -> (L(m),
witness), where L(m) is the size of the largest 3-AP-free subset of [1..m].
It holds every a(n) as well, since a(n) = min{m : L(m) >= n}.  File format
as written, bit exact: UTF-8 with LF endings, one record per line, sorted by m,

    L <m> <L(m)> <witness>

where witness is comma-separated ascending integers with no spaces.  The
loader reads lines as graphs.document_lines does: CRLF and CR end a line
too, and blank and '#' lines are skipped.  Only proven values are ever
written.  Files written before the cache held only levels also contain
"A <n> <a(n)> <witness>" records; the loader skips them and the next store
drops them.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass, field

from .ap3 import Ap3Engine, check_level
from .budget import SolveBudget
from .graphs import FormatError, document_lines, read_text

# Reference results: n -> (chi_g of the complete graph on n vertices, witness).
CHI_G_COMPLETE_REFERENCE: dict[int, tuple[int, tuple[int, ...]]] = {
    2: (2, (1, 2)),
    3: (4, (1, 2, 4)),
    4: (5, (1, 2, 4, 5)),
    5: (9, (1, 2, 4, 8, 9)),
    6: (11, (1, 2, 4, 5, 10, 11)),
    7: (13, (1, 2, 4, 5, 10, 11, 13)),
    8: (14, (1, 2, 4, 5, 10, 11, 13, 14)),
    9: (20, (1, 2, 6, 7, 9, 14, 15, 18, 20)),
    10: (24, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24)),
    11: (26, (1, 2, 5, 7, 11, 16, 18, 19, 23, 24, 26)),
    12: (30, (1, 3, 4, 8, 9, 11, 20, 22, 23, 27, 28, 30)),
    13: (32, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 32)),
    14: (36, (1, 2, 4, 8, 9, 13, 21, 23, 26, 27, 30, 32, 35, 36)),
    15: (40, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40)),
    16: (41, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41)),
    17: (51, (1, 2, 4, 5, 10, 13, 14, 17, 31, 35, 37, 38, 40, 46, 47, 50, 51)),
    18: (54, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54)),
    19: (58, (1, 2, 5, 6, 12, 14, 15, 17, 21, 31, 38, 39, 42, 43, 49, 51, 52, 54, 58)),
    20: (63, (1, 2, 5, 7, 11, 16, 18, 19, 24, 26, 38, 39, 42, 44, 48, 53, 55, 56, 61,
              63)),
    21: (71, (1, 2, 5, 7, 10, 17, 20, 22, 26, 31, 41, 46, 48, 49, 53, 54, 63, 64, 68,
              69, 71)),
    22: (74, (1, 2, 7, 9, 10, 14, 20, 22, 23, 25, 29, 46, 50, 52, 53, 55, 61, 65, 66,
              68, 73, 74)),
    23: (82, (1, 2, 4, 8, 9, 11, 19, 22, 23, 26, 28, 31, 49, 57, 59, 62, 63, 66, 68,
              71, 78, 81, 82)),
    24: (84, (1, 3, 4, 8, 9, 16, 18, 21, 22, 25, 30, 37, 48, 55, 60, 63, 64, 67, 69,
              76, 77, 81, 82, 84)),
    25: (92, (1, 2, 6, 8, 9, 13, 19, 21, 22, 27, 28, 39, 58, 62, 64, 67, 68, 71, 73,
              81, 83, 86, 87, 90, 92)),
    26: (95, (1, 2, 4, 5, 10, 11, 22, 23, 25, 26, 31, 32, 55, 56, 64, 65, 67, 68, 76,
              77, 82, 83, 91, 92, 94, 95)),
    27: (100, (1, 3, 6, 7, 10, 12, 20, 22, 25, 26, 29, 31, 35, 62, 66, 68, 71, 72, 75,
               77, 85, 87, 90, 91, 94, 96, 100)),
    28: (104, (1, 5, 7, 10, 11, 14, 16, 24, 26, 29, 30, 33, 35, 39, 66, 70, 72, 75, 76,
               79, 81, 89, 91, 94, 95, 98, 100, 104)),
    29: (111, (1, 2, 5, 6, 13, 15, 19, 26, 27, 30, 31, 38, 42, 44, 66, 68, 72, 77, 80,
               81, 84, 89, 93, 95, 99, 104, 107, 108, 111)),
    30: (114, (1, 2, 4, 9, 12, 13, 18, 19, 28, 30, 31, 33, 40, 45, 46, 69, 70, 75, 82,
               84, 85, 87, 96, 97, 102, 103, 106, 111, 113, 114)),
    31: (121, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41, 82, 83, 85,
               86, 91, 92, 94, 95, 109, 110, 112, 113, 118, 119, 121)),
    32: (122, (1, 2, 4, 5, 10, 11, 13, 14, 28, 29, 31, 32, 37, 38, 40, 41, 82, 83, 85,
               86, 91, 92, 94, 95, 109, 110, 112, 113, 118, 119, 121, 122)),
}

# L(m) = #{n : a(n) <= m} for m = 0..122, as the reference table fixes it
# ((m >= 1) counts a(1) = 1; a is strictly increasing and a(32) = 122, so
# a(33) > 122).  Cache records must agree with it.
_FIXED_LENGTHS: tuple[int, ...] = tuple(
    (m >= 1) + sum(span <= m for span, _ in CHI_G_COMPLETE_REFERENCE.values())
    for m in range(max(span for span, _ in CHI_G_COMPLETE_REFERENCE.values()) + 1))


def known_chi_g_complete(n: int) -> int | None:
    """Embedded reference value for the complete graph on n vertices, if any."""
    entry = CHI_G_COMPLETE_REFERENCE.get(n)
    return entry[0] if entry else None


@dataclass
class ValueCache:
    """Proven ladder levels, m -> (L(m), witness), loadable from and storable
    to disk."""

    levels: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)

    def seed_engine(self, engine: Ap3Engine) -> int:
        """Feed contiguous proven levels into an engine; returns levels applied.

        An inconsistent level, such as a step other than 0 or 1, raises
        FormatError."""
        try:
            return engine.seed(self.levels)
        except ValueError as exc:
            raise FormatError(f"inconsistent L records: {exc}") from None

    def absorb_engine(self, engine: Ap3Engine) -> None:
        """Record every proven level of an engine.  They are not checked again:
        the engine proved them or seed checked them."""
        self.levels.update((m, (value, witness))
                           for m, value, witness in engine.proven_levels())


def load_cache(path: str) -> ValueCache:
    """Read a cache file; a malformed or invalid record is rejected with its
    line number.  Each L record must pass ap3.check_level, against the record
    of m-1 when the file has one, and agree with the reference table."""
    records: dict[int, tuple[int, int, tuple[int, ...]]] = {}  # m -> (line, L, witness)
    for lineno, line in document_lines(read_text(path)):
        parts = line.split(" ")
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields, got {len(parts)}", lineno)
        kind, m_s, value_s, witness_s = parts
        try:
            m, value = int(m_s), int(value_s)
            witness = tuple(int(tok) for tok in witness_s.split(","))
        except ValueError:
            raise FormatError(f"bad integer field in {line!r}", lineno) from None
        if kind == "A":  # a(n) record of an older file: derivable from L, not trusted
            continue
        if kind != "L":
            raise FormatError(f"unknown kind {kind!r}", lineno)
        if m in records:
            raise FormatError(f"duplicate record L {m}", lineno)
        records[m] = (lineno, value, witness)
    for m, (lineno, value, witness) in records.items():
        prev = records[m - 1][1] if m - 1 in records else None
        try:
            check_level(m, value, witness, prev)
            if m < len(_FIXED_LENGTHS) and value != _FIXED_LENGTHS[m]:
                raise ValueError(f"L {m} {value} contradicts the reference table, "
                                 f"which gives {_FIXED_LENGTHS[m]}")
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    return ValueCache({m: (value, witness) for m, (_, value, witness) in records.items()})


def store_cache(cache: ValueCache, path: str) -> None:
    """Write the cache sorted by m; atomic via temp file + rename.  The file
    keeps the mode of the one it replaces; a new one gets the mode that
    open(path, "w") would give it."""
    lines = [f"L {m} {value} {','.join(map(str, witness))}\n"
             for m, (value, witness) in sorted(cache.levels.items())]
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # the umask is read by setting it; the strictest value stands in meanwhile
        umask = os.umask(0o077)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-", text=True)
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            os.fchmod(fd, mode)
            handle.writelines(lines)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# -- reproduction report -------------------------------------------------------

STATUS_OK = "ok"
STATUS_MISMATCH = "mismatch"
STATUS_UNPROVEN = "unproven"
STATUS_COMPUTED = "computed"


@dataclass(frozen=True)
class TableRow:
    n: int
    computed: int | None
    reference: int | None
    witness: tuple[int, ...]
    status: str


def table_report(n_max: int, budget: SolveBudget | None = None,
                 engine: Ap3Engine | None = None) -> list[TableRow]:
    """Compute graceful chromatic numbers of complete graphs for n = 2..n_max
    and compare each against the embedded reference.

    The budget spans one climb of the ladder to a(n_max).  Row n is proven
    exactly when the climb reached a(n), that is n <= L(frontier), and is
    then read off the proven ladder; every other row is reported unproven.
    Unproven rows never report a value.
    """
    if n_max < 2:
        raise ValueError("n_max must be >= 2")
    engine = engine or Ap3Engine()
    engine.min_span(n_max, budget)
    reached = engine.length(engine.frontier)
    rows: list[TableRow] = []
    for n in range(2, n_max + 1):
        reference = known_chi_g_complete(n)
        if n > reached:
            rows.append(TableRow(n, None, reference, (), STATUS_UNPROVEN))
            continue
        result = engine.min_span(n)  # reached: no search
        if reference is None:
            status = STATUS_COMPUTED
        elif result.value == reference:
            status = STATUS_OK
        else:
            status = STATUS_MISMATCH
        rows.append(TableRow(n, result.value, reference, result.witness, status))
    return rows


def render_table(rows: list[TableRow], records: bool = False) -> str:
    """Aligned text table, or line-oriented records "n chi_g status"."""
    if records:
        out = []
        for row in rows:
            value = row.computed if row.computed is not None else "-"
            out.append(f"{row.n} {value} {row.status}")
        return "\n".join(out) + "\n"
    lines = [f"{'n':>3}  {'chi_g':>6}  {'reference':>9}  {'status':>10}  witness"]
    for row in rows:
        computed = str(row.computed) if row.computed is not None else "-"
        reference = str(row.reference) if row.reference is not None else "-"
        witness = ",".join(map(str, row.witness))
        status = "** MISMATCH" if row.status == STATUS_MISMATCH else row.status
        lines.append(f"{row.n:>3}  {computed:>6}  {reference:>9}  {status:>10}  {witness}")
    return "\n".join(lines) + "\n"
