"""Arbitrary graph and coloring documents through the CLI: a result, a
rejection or a parse error, never a traceback.

Documents are built from structured pieces, and every integer they hold is
small: a header's n makes the parser allocate n adjacency lists."""

import io
import itertools
import re

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from gracecolor.cli import run  # noqa: E402

MAX_N = 12

# "\f" and "\u2028" end a line for str.splitlines, but not in a document;
# "+1", "0_1", U+0663 and U+FF11 are integers to int() but not in a document
_word = st.sampled_from(["x", "1.5", "-", "#", "0x1", "1_0", "١", "", "\f", "\u2028",
                         "+1", "0_1", "\u0663", "\uff11"])
_token = st.one_of(st.integers(-2, MAX_N + 1).map(str), _word)


@st.composite
def _edges(draw, n):
    """Edges on 0..n-1, often a spanning tree plus a few more."""
    edges = set()
    if draw(st.booleans()):
        edges |= {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = list(itertools.combinations(range(n), 2))
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return [(v, u) if draw(st.booleans()) else (u, v) for u, v in sorted(edges)]


@st.composite
def _mutated(draw, lines):
    """lines with up to three line or token edits."""
    lines = [line.split(" ") for line in lines]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2, 3]))):
        action = draw(st.sampled_from(["replace", "drop", "append", "insert", "delete"]))
        if action == "insert" or not lines:
            extra = draw(st.sampled_from([["#", "note"], [""], [" "], ["0", "1"], ["1", "1"]]))
            lines.insert(draw(st.integers(0, len(lines))), extra)
            continue
        row = lines[draw(st.integers(0, len(lines) - 1))]
        if action == "delete":
            lines.remove(row)
        elif action == "append":
            row.append(draw(_token))
        elif action == "replace":
            row[draw(st.integers(0, len(row) - 1))] = draw(_token)
        elif len(row) > 1:
            del row[draw(st.integers(0, len(row) - 1))]
    return [" ".join(row) for row in lines]


@st.composite
def _encoded(draw, lines):
    """The document's bytes: LF, CRLF or CR endings, at times a byte that is
    not UTF-8."""
    data = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines).encode("utf-8")
    if draw(st.booleans()):
        data += b"\n"
    at = draw(st.integers(0, len(data)))
    return data[:at] + draw(st.sampled_from([b""] * 9 + [b"\xff"])) + data[at:]


_off_by = st.sampled_from([0, 0, 0, 0, 0, -1, 1])


@st.composite
def graph_document(draw, n):
    edges = draw(_edges(n))
    lines = [f"{n} {len(edges) + draw(_off_by)}"] + [f"{u} {v}" for u, v in edges]
    return draw(_encoded(draw(_mutated(lines))))


@st.composite
def coloring_document(draw, n):
    size = max(n + draw(_off_by), 0)
    colors = draw(st.lists(st.integers(1, 3 * n).map(str), min_size=size, max_size=size))
    lines = [" ".join(colors)] if draw(st.booleans()) else colors
    return draw(_encoded(draw(_mutated(lines))))


_n = st.integers(1, MAX_N)


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    folder = tmp_path_factory.mktemp("documents")
    return folder / "graph.txt", folder / "coloring.txt"


def _named_lines(err, *documents):
    """The N of each "line N:" in err, each checked to be a line of one of
    the documents.  bytes.splitlines ends lines at LF, CRLF and CR only, as
    documents do."""
    named = [int(n) for n in re.findall(r"\bline (\d+):", err)]
    most = max(len(data.splitlines()) for data in documents)
    assert all(n <= most for n in named), err
    return named


def _invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run([str(arg) for arg in argv], out, err)
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(documents=_n.flatmap(lambda n: st.tuples(graph_document(n), coloring_document(n))))
def test_any_documents_are_verified_or_rejected(paths, documents):
    for path, data in zip(paths, documents):
        path.write_bytes(data)
    code, out, err = _invoke("verify", *paths)
    assert code in (0, 1, 4), err
    if code == 0:
        assert (out, err) == ("valid\n", "")
    elif code == 1:
        assert out.startswith("invalid: ") and err == ""
    else:
        assert out == "" and err.startswith("error: ")
        _named_lines(err, *documents)


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(graph=_n.flatmap(graph_document))
def test_any_graph_document_is_solved_or_rejected(paths, graph):
    paths[0].write_bytes(graph)
    code, out, err = _invoke("solve", paths[0], "--max-nodes", "500")
    assert code in (0, 2, 3, 4), err
    if code == 0:
        assert out.startswith("chi_g = ") and err == ""
    elif code == 2:  # a document can hold one vertex
        assert out == "" and err in ("error: graph must be connected\n",
                                     "error: graph needs at least two vertices\n")
    elif code == 3:
        assert out == "" and err.startswith("budget exhausted")
    else:
        assert out == "" and err.startswith("error: ")
        named = _named_lines(err, graph)
        # the same document with each separator of _word made a space
        paths[0].write_bytes(re.sub(b"\x0c|\xe2\x80\xa8", b" ", graph))
        spaced = _invoke("solve", paths[0], "--max-nodes", "500")[2]
        assert _named_lines(spaced, graph) == named, (err, spaced)
