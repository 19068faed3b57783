"""The persistent cache of proven results and the reproduction report.

The reference table of published graceful chromatic numbers of complete
graphs lives in ap3.  There its level rule, check_level, holds every seeded
and cached level to it, and the certificate map built from it once, at
import, certifies the ladder's levels where L grows.  The reproduction
report reads each row's reference, CHI_G_COMPLETE_REFERENCE.get(n,
(None,))[0], straight from the table.

The value cache persists the proven ladder between runs: m -> (L(m),
witness), where L(m) is the size of the largest 3-AP-free subset of [1..m].
It holds every a(n) as well, since a(n) = min{m : L(m) >= n}.  File format
as written, bit exact: UTF-8 with LF endings, one record per line, sorted by m,

    L <m> <L(m)> <witness>

where witness is comma-separated ascending integers with no spaces.  The
loader reads lines as graphs.document_lines does: CRLF and CR end a line
too, and blank and '#' lines are skipped.  It reads integers as
graphs.read_ints does: ASCII digits after an optional '-'.  Only proven
values are ever written, and a record of any other kind is an error.

A ladder call reads its file once and checks each level once: load_cache
holds every record to ap3.check_level, whose progression test,
ap3.is_ap3_free, is one pass over the witness, and seed_engine adopts the
levels it checked, from 1 up and untouched, into a fresh engine; seed
checks any other level.  The call alone decides whether to write: it
renders and stores the cache only when it proved a new level or the file
is not already in the stored form, and store_cache then always replaces
the file atomically.
"""

from __future__ import annotations

import os
import stat
import tempfile
from dataclasses import dataclass, field

from .ap3 import CHI_G_COMPLETE_REFERENCE, Ap3Engine, check_level
from .budget import SolveBudget
from .graphs import FormatError, document_lines, read_ints, read_text


@dataclass
class ValueCache:
    """Proven ladder levels, m -> (L(m), witness), loadable from and storable
    to disk."""

    levels: dict[int, tuple[int, tuple[int, ...]]] = field(default_factory=dict)
    # Set by load_cache, and neither compared nor shown: the entries it
    # checked, m -> (L(m), witness), and whether its file held them in the
    # stored form.
    _checked: dict[int, tuple[int, tuple[int, ...]]] = field(
        default_factory=dict, init=False, repr=False, compare=False)
    _file_in_stored_form: bool = field(default=False, init=False, repr=False,
                                       compare=False)

    def seed_engine(self, engine: Ap3Engine) -> int:
        """Feed contiguous proven levels into an engine; returns levels applied.

        Into an engine with frontier 0, the leading run of levels 1, 2, ...
        that are still the entries load_cache checked is adopted as it is:
        each passed ap3.check_level against the one below it, which is the
        engine's level below it too.  Ap3Engine.seed checks every other
        level, and one that fails, such as a step other than 0 or 1, raises
        FormatError."""
        checked, levels = self._checked, self.levels
        adopted = []
        if engine.frontier == 0:
            m = 1
            while (entry := levels.get(m)) is not None and entry is checked.get(m):
                adopted.append(entry)
                m += 1
            engine._adopt(adopted)
        try:
            return len(adopted) + engine.seed(levels)
        except ValueError as exc:
            raise FormatError(f"inconsistent L records: {exc}") from None

    def absorb_engine(self, engine: Ap3Engine) -> None:
        """Record every proven level of an engine.  They are not checked again:
        the engine proved them or seed checked them."""
        self.levels.update((m, (value, witness))
                           for m, value, witness in engine.proven_levels())

    def is_stored(self) -> bool:
        """True when the file this cache was loaded from already holds what
        store_cache would write of it: the file was in the stored form, and
        the levels are the ones it held."""
        return self._file_in_stored_form and self.levels == self._checked


def load_cache(path: str) -> ValueCache:
    """Read a cache file; a malformed or invalid record is rejected with its
    line number.  Each L record must pass ap3.check_level, against the record
    of m-1 when the file has one.  The file is read once, with its line ends
    as they are, and the cache notes whether it is in the stored form: LF
    endings, the final one too, records sorted by m and nothing else, and
    no leading space, trailing space or leading zero."""
    text = read_text(path)
    records: dict[int, tuple[int, int, tuple[int, ...]]] = {}  # m -> (line, L, witness)
    stored_size = 0  # of the records in the stored form
    last_field, witness = None, ()
    for lineno, line in document_lines(text):
        parts = line.split(" ")
        if len(parts) != 4:
            raise FormatError(f"expected 4 fields, got {len(parts)}", lineno)
        kind, m_s, value_s, witness_s = parts
        if witness_s == last_field:  # a flat level repeats the witness above it
            m, value = read_ints([m_s, value_s], lineno)
        else:
            m, value, *members = read_ints([m_s, value_s, *witness_s.split(",")], lineno)
            last_field, witness = witness_s, tuple(members)
        if kind != "L":
            raise FormatError(f"unknown kind {kind!r}", lineno)
        if m in records:
            raise FormatError(f"duplicate record L {m}", lineno)
        records[m] = (lineno, value, witness)
        stored_size += len(line) + 1
    for m, (lineno, value, witness) in records.items():
        prev = records[m - 1][1] if m - 1 in records else None
        try:
            check_level(m, value, witness, prev)
        except ValueError as exc:
            raise FormatError(str(exc), lineno) from None
    cache = ValueCache({m: (value, witness) for m, (_, value, witness) in records.items()})
    cache._checked = dict(cache.levels)
    # Every integer passed check_level, so it is positive, and one in the
    # stored form starts with no 0.  In a text with no CR that ends in LF,
    # the sizes agree only when every line is a record as document_lines
    # yields it, with nothing stripped.
    ms = list(records)
    cache._file_in_stored_form = (
        len(text) == stored_size and text.endswith("\n") and "\r" not in text
        and " 0" not in text and ",0" not in text and ms == sorted(ms))
    return cache


def store_cache(cache: ValueCache, path: str) -> None:
    """Write the cache sorted by m, always replacing the file atomically via
    temp file + rename; whether to write at all is the caller's decision
    (ValueCache.is_stored).  A replaced file keeps its mode; a new one gets
    the mode that open(path, "w") would give it."""
    data = "".join(f"L {m} {value} {','.join(map(str, witness))}\n"
                   for m, (value, witness) in sorted(cache.levels.items())).encode("utf-8")
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        # the umask is read by setting it; the strictest value stands in meanwhile
        umask = os.umask(0o077)
        os.umask(umask)
        mode = 0o666 & ~umask
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cache-")
    try:
        with os.fdopen(fd, "wb") as handle:
            os.fchmod(fd, mode)
            handle.write(data)
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


@dataclass(frozen=True, slots=True)
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
        reference = CHI_G_COMPLETE_REFERENCE.get(n, (None,))[0]
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
