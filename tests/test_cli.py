"""Command-line behavior: dispatch, exit codes, formats, cache, determinism."""

import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

from gracecolor import ap3, cli, tables
from gracecolor.cli import run
from gracecolor.graphs import parse_graph, serialize_graph, wheel
from gracecolor.tables import CHI_G_COMPLETE_REFERENCE


def invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), out, err)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    return str(path)


@pytest.fixture
def p3_file(tmp_path):
    path = tmp_path / "p3.txt"
    path.write_text("3 2\n0 1\n1 2\n")
    return str(path)


def coloring_file(tmp_path, text):
    path = tmp_path / "colors.txt"
    path.write_text(text)
    return str(path)


def test_verify_valid(tmp_path, k4_file):
    colors = coloring_file(tmp_path, "1 2 4 5\n")
    code, out, err = invoke("verify", k4_file, colors)
    assert code == 0
    assert out == "valid\n"


def test_verify_invalid(tmp_path, p3_file):
    colors = coloring_file(tmp_path, "1 2 3\n")
    code, out, _ = invoke("verify", p3_file, colors)
    assert code == 1
    assert out.startswith("invalid: duplicate-incident-difference at vertex 1")


def test_verify_palette_flag(tmp_path, p3_file):
    colors = coloring_file(tmp_path, "1 2 4\n")
    assert invoke("verify", p3_file, colors)[0] == 0
    code, out, _ = invoke("verify", p3_file, colors, "--palette", "3")
    assert code == 1
    assert "color-out-of-range" in out


@pytest.mark.parametrize("colors, flags, line", [
    ("1 1 2", (), "invalid adjacent-equal 0,1"),
    ("2 1 3", ("--palette", "2"), "invalid color-out-of-range 2"),
    ("1 2 3", (), "invalid duplicate-incident-difference 1,0,2"),
])
def test_verify_records_name_the_violation(tmp_path, p3_file, colors, flags, line):
    path = coloring_file(tmp_path, colors + "\n")
    assert invoke("verify", p3_file, path, "--records", *flags) == (1, line + "\n", "")


def test_solve(k4_file):
    code, out, _ = invoke("solve", k4_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "chi_g = 5"
    assert lines[1].startswith("witness: ")


def test_solve_records(k4_file):
    code, out, _ = invoke("solve", k4_file, "--records")
    assert code == 0
    fields = out.split()
    assert fields[0] == "chi_g" and fields[1] == "5"


def test_solve_orders_twins_within_a_small_node_cap(tmp_path):
    # each side of K_{7,7} is a twin class, so its 14-coloring takes 14 nodes
    graph = tmp_path / "k77.txt"
    graph.write_text(invoke("gen", "complete_bipartite", "7", "7")[1])
    code, out, _ = invoke("solve", str(graph), "--max-nodes", "100", "--records")
    assert (code, out) == (0, "chi_g 14 " + ",".join(map(str, range(1, 15))) + "\n")


def test_solve_budget_exhausted(k4_file):
    code, out, err = invoke("solve", k4_file, "--max-nodes", "2")
    assert code == 3
    assert out == ""
    assert "budget exhausted" in err


def test_chromatic(k4_file):
    code, out, _ = invoke("chromatic", k4_file)
    assert code == 0
    assert out.splitlines()[0] == "chi = 4"


def test_characterize(p3_file):
    code, out, _ = invoke("characterize", p3_file)
    assert code == 0
    assert out == "chi = 2\nchi_g = 3\nequal = false\nchi_g_is_3 = true\n"
    code, out, _ = invoke("characterize", p3_file, "--records")
    assert out == "2 3 0 1\n"


def test_disconnected_graph_is_usage_error(tmp_path):
    graph = tmp_path / "two-edges.txt"
    graph.write_text("4 2\n0 1\n2 3\n")
    for command in ("solve", "characterize"):
        code, out, err = invoke(command, str(graph))
        assert (code, out) == (2, ""), command
        assert err.startswith("error: ") and "connected" in err, command


def test_one_vertex_graph_has_no_graceful_search(tmp_path):
    # one vertex has a graceful 1-coloring; no search reports chi_g = 2 for it
    graph = tmp_path / "one-vertex.txt"
    graph.write_text("1 0\n")
    for command in ("solve", "characterize"):
        assert invoke(command, str(graph)) == \
            (2, "", "error: graph needs at least two vertices\n"), command
    assert invoke("chromatic", str(graph))[:2] == (0, "chi = 1\nwitness: 1\nnodes: 0\n")


def test_complete_output_format():
    code, out, _ = invoke("complete", "5")
    assert code == 0
    assert out == "chi_g(K_5) = 9\nwitness: 1,2,4,8,9\n"


def test_complete_records():
    code, out, _ = invoke("complete", "6", "--records")
    assert code == 0
    assert out == "6 11 1,2,4,5,10,11\n"


def test_ap3_check():
    code, out, _ = invoke("ap3", "check", "1,2,3")
    assert code == 1
    assert out == "not 3-AP-free: (1,2,3)\n"
    code, out, _ = invoke("ap3", "check", "1,2,4,5,10")
    assert code == 0
    assert out == "3-AP-free: (1,2,4,5,10)\n"


def test_ap3_check_rejects_a_non_integer_list():
    assert invoke("ap3", "check", "1,x") == (
        2, "", "error: not a comma-separated integer list: expected an integer, got 'x'\n")


def test_ap3_check_takes_a_list_that_starts_with_a_minus_after_a_double_dash():
    # without "--", argparse reads "-1,0,1" as an option
    assert invoke("ap3", "check", "--", "-1,0,1") == (1, "not 3-AP-free: (-1,0,1)\n", "")
    assert invoke("ap3", "check", "--", "-3,-1,2") == (0, "3-AP-free: (-3,-1,2)\n", "")
    code, out, err = invoke("ap3", "check", "-1,0,1")
    assert (code, out) == (2, "") and "required: elements" in err


def test_ap3_longest():
    code, out, _ = invoke("ap3", "longest", "9")
    assert code == 0
    assert out.splitlines()[0] == "L(9) = 5"


def test_ap3_minspan():
    code, out, _ = invoke("ap3", "minspan", "5")
    assert code == 0
    assert out == "a(5) = 9\nwitness: 1,2,4,8,9\n"


@pytest.mark.parametrize("argv, code, line", [
    (("longest", "20"), 0, "20 9 proven 1,2,6,7,9,14,15,18,20"),
    (("longest", "40", "--max-nodes", "50"), 3, "40 8 unproven 1,2,4,5,10,11,13,14"),
    (("minspan", "9"), 0, "9 20 proven 1,2,6,7,9,14,15,18,20"),
])
def test_ap3_records(argv, code, line):
    assert invoke("ap3", *argv, "--records") == (code, line + "\n", "")


def test_ap3_minspan_budget():
    code, out, err = invoke("ap3", "minspan", "12", "--max-nodes", "10")
    assert code == 3
    assert "unproven" in out


def test_ap3_minspan_records_an_unproven_span():
    assert invoke("ap3", "minspan", "12", "--records", "--max-nodes", "5") == \
        (3, "12 - unproven\n", "")


def test_table_reports_a_reference_mismatch(monkeypatch):
    # the report reads the table; the ladder's certificates were built at import
    monkeypatch.setattr(tables, "CHI_G_COMPLETE_REFERENCE",
                        {**CHI_G_COMPLETE_REFERENCE, 5: (10, CHI_G_COMPLETE_REFERENCE[5][1])})
    code, out, err = invoke("table", "6")
    assert code == 1
    assert [line.split()[:4] for line in out.splitlines() if "MISMATCH" in line] == \
        [["5", "9", "10", "**"]]
    assert err == "reference mismatch detected\n"


def test_table_row_without_a_reference_is_computed(monkeypatch):
    without = {n: e for n, e in CHI_G_COMPLETE_REFERENCE.items() if n != 5}
    monkeypatch.setattr(tables, "CHI_G_COMPLETE_REFERENCE", without)
    code, out, _ = invoke("table", "6", "--records")
    assert code == 0
    assert "5 9 computed\n" in out.splitlines(keepends=True)


def test_table_exit_codes():
    code, out, _ = invoke("table", "8")
    assert code == 0
    assert out.count("ok") == 7
    code, _, _ = invoke("table", "8", "--max-nodes", "1")
    assert code == 3


def test_table_records():
    code, out, _ = invoke("table", "4", "--records")
    assert code == 0
    assert out == "2 2 ok\n3 4 ok\n4 5 ok\n"


def test_gen_round_trips():
    code, out, _ = invoke("gen", "wheel", "6")
    assert code == 0
    assert parse_graph(out) == wheel(6)
    assert out == serialize_graph(wheel(6))


def test_gen_caterpillar_params():
    code, out, _ = invoke("gen", "caterpillar", "3", "2", "0", "1")
    assert code == 0
    assert out.splitlines()[0] == "6 5"


def test_gen_invalid_params():
    code, _, err = invoke("gen", "cycle", "2")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("params, outcome", [
    (["path", "0"], (2, "", "error: path needs n >= 1\n")),
    (["complete", "0"], (2, "", "error: complete graph needs n >= 1\n")),
    (["star", "0"], (2, "", "error: star needs n >= 1\n")),
    (["caterpillar", "0"], (2, "", "error: caterpillar needs spine >= 1\n")),
    (["caterpillar", "2", "1", "-1"], (2, "", "error: leg counts must be nonnegative\n")),
    (["random_tree", "0", "5"], (2, "", "error: tree needs n >= 1\n")),
    (["random_tree", "1", "5"], (0, "1 0\n", "")),
])
def test_gen_checks_the_size_of_a_family(params, outcome):
    assert invoke("gen", *params) == outcome


def test_usage_errors():
    assert invoke()[0] == 2
    assert invoke("frobnicate")[0] == 2
    assert invoke("complete")[0] == 2
    # flags are accepted only by the subcommands they act on
    assert invoke("gen", "wheel", "6", "--max-nodes", "5")[0] == 2
    assert invoke("ap3", "check", "1,2,4", "--cache", "x")[0] == 2
    assert invoke("solve", "g.txt", "--workers", "2")[0] == 2
    # NaN compares False with everything, so it must not pass as a time limit
    assert invoke("ap3", "longest", "5", "--max-seconds", "nan")[0] == 2


@pytest.mark.parametrize("token", ["5", "0.25", "inf", "٥", "1_0", " 5", "+5", "-1",
                                   "infinity", "nan", "Inf", "5.", ".5", "1e3", ""])
def test_max_seconds_takes_digits_with_a_fraction_or_inf(token):
    # ASCII digits with an optional '.' and fraction, or inf, as the README
    # says; float() would also read every refused token but the empty one
    code, out, err = invoke("ap3", "longest", "5", "--max-seconds", token)
    if token in ("5", "0.25", "inf"):
        assert (code, out, err) == (0, "L(5) = 4\nwitness: 1,2,4,5\n", "")
    else:
        assert (code, out) == (2, "")
        assert f"argument --max-seconds: expected seconds or 'inf', got {token!r}" in err


@pytest.mark.parametrize("token", ["+1", "0_2", "٣", "１"])
def test_integer_arguments_follow_the_documents_rule(k4_file, token):
    # ASCII digits after an optional '-', as graphs.read_ints reads documents
    for argv in (("complete", token), ("ap3", "longest", token), ("ap3", "minspan", token),
                 ("table", token), ("gen", "path", token), ("solve", k4_file, "--max-nodes", token),
                 ("verify", k4_file, k4_file, "--palette", token)):
        code, out, err = invoke(*argv)
        assert (code, out) == (2, ""), argv
        assert f"expected an integer, got {token!r}" in err, argv
    assert invoke("ap3", "check", f"{token},3,4") == (
        2, "", f"error: not a comma-separated integer list: expected an integer, got {token!r}\n")


_INT_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@pytest.mark.skipif(not _INT_DIGITS, reason="this interpreter converts integers of any length")
def test_an_integer_past_the_digit_limit_is_a_format_error_naming_its_line(tmp_path, k4_file):
    # int() refuses more than sys.get_int_max_str_digits() digits.  In a
    # graph, a coloring or a cache that is exit 4 naming the line, by a
    # message that does not echo the token; in ap3 check's list, as any bad
    # list, a usage error by the same message
    token = "0" * _INT_DIGITS + "01"
    want = (4, "", f"error: line 2: integer of more than {_INT_DIGITS} digits\n")
    graph = tmp_path / "g.txt"
    graph.write_text(f"2 1\n0 {token}\n")
    assert invoke("solve", str(graph)) == want
    colors = coloring_file(tmp_path, f"1 2\n4 {token}\n")
    assert invoke("verify", k4_file, colors) == want
    cache = tmp_path / "cache.txt"
    cache.write_text(f"L 1 1 1\nL 2 2 1,{token}\n")
    assert invoke("ap3", "longest", "3", "--cache", str(cache)) == want
    assert invoke("ap3", "check", f"1,{token}") == (
        2, "", f"error: not a comma-separated integer list: integer of more than {_INT_DIGITS}"
        " digits\n")


def test_argparse_writes_to_the_streams_it_is_given(capsys):
    code, out, err = invoke("solve")
    assert (code, out) == (2, "") and err.startswith("usage: gracecolor solve")
    code, out, err = invoke("--help")
    assert (code, err) == (0, "") and out.startswith("usage: gracecolor")
    assert capsys.readouterr() == ("", "")


def test_missing_file_is_io_error(tmp_path):
    code, _, err = invoke("solve", str(tmp_path / "nope.txt"))
    assert code == 4
    assert "error" in err


def test_malformed_graph_is_io_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("3 2\n0 1\n1 1\n")
    code, _, err = invoke("solve", str(path))
    assert code == 4
    assert "line 3" in err


def test_non_utf8_files_are_io_errors(tmp_path, p3_file):
    # UnicodeDecodeError is a ValueError, which would otherwise be a usage error
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
    for argv in (("solve", str(bad)), ("verify", p3_file, str(bad)),
                 ("ap3", "longest", "5", "--cache", str(bad))):
        code, out, err = invoke(*argv)
        assert (code, out) == (4, ""), argv
        assert err.startswith("error: ") and "utf-8" in err
        # the message names the bad file, and only that one
        assert str(bad) in err and p3_file not in err, argv


def test_graphs_past_the_recursion_limit_are_solved(tmp_path):
    # more vertices than Python's recursion limit allows frames
    for family, n, command, first_line in (("cycle", "1201", "chromatic", "chi = 3"),
                                           ("path", "1500", "solve", "chi_g = 4")):
        graph = tmp_path / f"{family}{n}.txt"
        graph.write_text(invoke("gen", family, n)[1])
        code, out, err = invoke(command, str(graph))
        assert (code, err) == (0, ""), (family, err)
        assert out.splitlines()[0] == first_line, family


def test_module_entry_point():
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    env.pop("GRACECOLOR_CACHE", None)
    done = subprocess.run([sys.executable, "-m", "gracecolor", "complete", "5"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert done.returncode == 0
    assert done.stdout == "chi_g(K_5) = 9\nwitness: 1,2,4,8,9\n"


def _close_at_once(pipe):
    pipe.close()


def _close_after_a_line(pipe):
    pipe.readline()
    pipe.close()


@pytest.mark.parametrize("reader", [_close_at_once, _close_after_a_line])
def test_closed_stdout_exits_4_quietly(reader, tmp_path):
    """A reader that closes stdout early gets exit code 4 and no message,
    whether it closes before the command writes or in the middle of it, and
    whether the command writes a long document or a long witness line."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    path = tmp_path / "path.txt"
    path.write_text(invoke("gen", "path", "50000")[1])  # a 100 KB witness line
    for argv in (["gen", "path", "200000"], ["chromatic", str(path)]):
        with subprocess.Popen([sys.executable, "-m", "gracecolor", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              env=env) as proc:
            reader(proc.stdout)
            stderr = proc.stderr.read()
            assert (argv, proc.wait(timeout=60), stderr) == (argv, 4, "")


class _PipeClosedMidway(io.RawIOBase):
    """A raw stdout whose reader leaves during the first write: that write
    takes part of its bytes, and every later one raises BrokenPipeError."""

    def __init__(self):
        self.taken = b""

    def writable(self):
        return True

    def write(self, data):
        if self.taken:
            raise BrokenPipeError(32, "Broken pipe")
        self.taken = bytes(data[:100])
        return len(self.taken)


def test_a_short_write_to_an_unbuffered_stdout_exits_4():
    # under python -u or PYTHONUNBUFFERED, stdout's text layer writes
    # straight to the file and drops what a short write left over
    raw = _PipeClosedMidway()
    out, err = io.TextIOWrapper(raw, write_through=True), io.StringIO()
    assert (run(["gen", "path", "30"], out, err), err.getvalue()) == (4, "")
    assert raw.taken == invoke("gen", "path", "30")[1][:100].encode()


def test_byte_identical_output(k4_file):
    first = invoke("solve", k4_file)
    second = invoke("solve", k4_file)
    assert first == second
    assert invoke("table", "10") == invoke("table", "10")


def test_gen_random_tree_is_seeded():
    first = invoke("gen", "random_tree", "9", "3")
    assert first == invoke("gen", "random_tree", "9", "3")
    assert first != invoke("gen", "random_tree", "9", "4")


def test_cache_written_and_reused(tmp_path):
    cache = tmp_path / "cache.txt"
    code, out, _ = invoke("complete", "8", "--cache", str(cache))
    assert code == 0
    content = cache.read_text()
    assert "L 13 7 " in content  # a(8) = 14 = min{m : L(m) >= 8}
    assert "L 14 8 " in content
    # second run must produce identical output from the seeded cache
    code2, out2, _ = invoke("complete", "8", "--cache", str(cache))
    assert (code2, out2) == (code, out)
    assert cache.read_text() == content


def test_a_span_record_in_the_cache_is_a_cache_error_naming_its_line(tmp_path):
    # "A n a(n) witness" is not a record kind; the file is left as it is
    cache = tmp_path / "cache.txt"
    text = "L 1 1 1\nL 2 2 1,2\nA 2 2 1,2\nL 3 2 1,2\n"
    for argv in (("complete", "8"), ("ap3", "minspan", "10")):
        cache.write_text(text)
        assert invoke(*argv, "--cache", str(cache)) == (
            4, "", "error: line 3: unknown kind 'A'\n"), argv
        assert cache.read_text() == text


def test_cached_levels_are_checked_once(tmp_path, monkeypatch):
    # load_cache checks each level; seed_engine adopts them unchecked
    cache = tmp_path / "cache.txt"
    assert invoke("ap3", "longest", "40", "--cache", str(cache))[0] == 0
    calls = []
    real = ap3.is_ap3_free
    monkeypatch.setattr(ap3, "is_ap3_free", lambda w: calls.append(w) or real(w))
    assert invoke("ap3", "longest", "30", "--cache", str(cache))[0] == 0
    assert len(calls) == 40


def test_ladder_command_writes_the_cache_only_when_its_bytes_change(tmp_path):
    cache = tmp_path / "cache.txt"
    assert invoke("ap3", "longest", "20", "--cache", str(cache))[0] == 0
    os.utime(cache, ns=(10 ** 18, 10 ** 18))
    inode = cache.stat().st_ino
    for argv in (("complete", "6"), ("ap3", "minspan", "8"), ("ap3", "longest", "20"),
                 ("table", "7")):
        assert invoke(*argv, "--cache", str(cache)) == invoke(*argv), argv
        assert (cache.stat().st_ino, cache.stat().st_mtime_ns) == (inode, 10 ** 18), argv
    assert os.listdir(tmp_path) == ["cache.txt"]
    assert invoke("ap3", "longest", "21", "--cache", str(cache))[0] == 0
    assert cache.stat().st_ino != inode
    assert cache.read_text().splitlines()[-1].startswith("L 21 ")
    assert os.listdir(tmp_path) == ["cache.txt"]


_STORED = "L 1 1 1\nL 2 2 1,2\nL 3 2 1,2\nL 4 3 1,2,4\nL 5 4 1,2,4,5\n"


@pytest.mark.parametrize("text", [
    _STORED.replace("\n", "\r\n"),
    _STORED.replace("\n", "\r"),
    "# L(1..5)\n" + _STORED,
    _STORED.replace("L 3", "\nL 3"),
    _STORED.replace("L 3 2 1,2", "L 3 2 1,2 ").replace("L 4", "  L 4"),
    _STORED.replace("L 5 4 1,2,4,5", "L 05 4 1,2,04,5"),
    "".join(sorted(_STORED.splitlines(keepends=True), reverse=True)),
    _STORED.removesuffix("\n"),
], ids=["crlf", "cr", "comment", "blank-line", "spaces", "leading-zero", "unsorted",
        "no-final-lf"])
def test_ladder_command_rewrites_a_cache_not_in_the_stored_form(tmp_path, text):
    # the levels are those that the call proves, so only the form changes
    cache = tmp_path / "cache.txt"
    for argv in (("complete", "4"), ("ap3", "minspan", "4"), ("ap3", "longest", "5"),
                 ("table", "4")):
        cache.write_bytes(text.encode())
        inode = cache.stat().st_ino
        assert invoke(*argv, "--cache", str(cache)) == invoke(*argv), argv
        assert cache.read_bytes() == _STORED.encode(), argv
        assert cache.stat().st_ino != inode, argv
        assert os.listdir(tmp_path) == ["cache.txt"]


def test_a_cached_level_replaced_after_loading_is_checked_at_seed(tmp_path, monkeypatch):
    path = tmp_path / "cache.txt"
    assert invoke("ap3", "longest", "40", "--cache", str(path))[0] == 0
    calls = []
    real = ap3.is_ap3_free
    monkeypatch.setattr(ap3, "is_ap3_free", lambda w: calls.append(w) or real(w))
    cache = tables.load_cache(str(path))
    assert len(calls) == 40
    # an equal entry that is not the one load_cache checked: levels 1..9
    # are adopted, and seed checks levels 10..40 again
    value, witness = cache.levels[10]
    cache.levels[10] = (value, witness)
    assert cache.seed_engine(ap3.Ap3Engine()) == 40
    assert len(calls) == 40 + 31
    # a bad entry put in after loading is refused at seed
    assert value == 5
    cache.levels[10] = (5, (1, 2, 3, 5, 6))
    with pytest.raises(tables.FormatError, match="^inconsistent L records: .*progression"):
        cache.seed_engine(ap3.Ap3Engine())


def test_cache_env_var_default(tmp_path, monkeypatch):
    cache = tmp_path / "env-cache.txt"
    monkeypatch.setenv("GRACECOLOR_CACHE", str(cache))
    assert invoke("ap3", "minspan", "4")[0] == 0
    assert "L 5 4" in cache.read_text()


def test_the_cache_variable_is_read_when_the_call_runs(tmp_path, monkeypatch):
    cache = tmp_path / "env-cache.txt"
    monkeypatch.setenv("GRACECOLOR_CACHE", str(cache))
    assert cli._build_parser().parse_args(["complete", "5"]).cache is None
    assert invoke("complete", "6")[0] == 0
    assert cache.read_text().startswith("L 1 1 1\n")
    os.utime(cache, ns=(10 ** 18, 10 ** 18))
    inode = cache.stat().st_ino
    loaded = []
    real = tables.load_cache
    monkeypatch.setattr(tables, "load_cache", lambda path: loaded.append(path) or real(path))
    assert invoke("complete", "5")[0] == 0
    assert loaded == [str(cache)]
    assert (cache.stat().st_ino, cache.stat().st_mtime_ns) == (inode, 10 ** 18)
    # an empty --cache means no cache, whatever the variable names
    other = tmp_path / "other.txt"
    monkeypatch.setenv("GRACECOLOR_CACHE", str(other))
    assert invoke("complete", "5", "--cache", "")[0] == 0
    assert loaded == [str(cache)] and not other.exists()


@pytest.mark.parametrize("argv", [("complete", "1"), ("table", "1"),
                                  ("ap3", "minspan", "0"), ("ap3", "longest", "0")])
def test_rejected_ladder_argument_writes_no_cache(tmp_path, argv):
    cache = tmp_path / "cache.txt"
    code, out, err = invoke(*argv, "--cache", str(cache))
    assert (code, out) == (2, "") and err.startswith("error: ")
    assert not cache.exists()


@pytest.mark.parametrize("argv", [("complete", "12"), ("table", "12"),
                                  ("ap3", "minspan", "12"), ("ap3", "longest", "40")])
def test_exhausted_ladder_command_stores_its_proven_levels(tmp_path, argv):
    cache, full = tmp_path / "cache.txt", tmp_path / "full.txt"
    assert invoke(*argv, "--max-nodes", "50", "--cache", str(cache))[0] == 3
    assert invoke(*argv, "--cache", str(full))[0] == 0
    stored = cache.read_text()
    assert stored.startswith("L 1 1 1\n") and full.read_text().startswith(stored)
    assert len(stored.splitlines()) < len(full.read_text().splitlines())


def test_ladder_stopped_in_a_searched_new_level_stores_no_such_level(tmp_path, searched_ladder):
    # one node short of the cold searched climb to L(20) = 9 stops it in the
    # search of m = 20, one node before that search completes its 9-set
    cache = tmp_path / "cache.txt"
    cap = ap3.Ap3Engine().longest(20).stats.nodes - 1
    assert cap > ap3.Ap3Engine().longest(19).stats.nodes  # m = 20 is searched, not certified
    code, out, _ = invoke("ap3", "longest", "20", "--max-nodes", str(cap), "--cache", str(cache))
    assert (code, out.splitlines()[0]) == (3, "L(20) = 8 (unproven lower bound)")
    assert cache.read_text().splitlines()[-1].startswith("L 19 8 ")


def test_cache_in_a_missing_directory_fails_before_the_search(tmp_path, monkeypatch):
    monkeypatch.setattr(tables, "table_report", lambda *a: pytest.fail("searched"))
    cache = os.path.join(str(tmp_path), "no-such-dir", "c.txt")
    code, out, err = invoke("table", "5", "--cache", cache)
    assert (code, out) == (4, "")
    assert err == f"error: {cache}: directory does not exist\n"


def test_corrupt_cache_is_io_error(tmp_path):
    cache = tmp_path / "cache.txt"
    cache.write_text("L 5 9 1,2,4,5\n")
    code, _, err = invoke("complete", "4", "--cache", str(cache))
    assert code == 4
    assert "line 1" in err


def test_cache_contradicting_reference_is_io_error(tmp_path):
    # L(5) is 4, but the records step by one and carry valid witnesses.
    cache = tmp_path / "cache.txt"
    cache.write_text("L 1 1 1\nL 2 2 1,2\nL 3 2 1,2\nL 4 3 1,2,4\nL 5 3 1,2,4\n")
    for argv in (("ap3", "longest", "5"), ("ap3", "longest", "6"), ("ap3", "minspan", "4")):
        code, out, err = invoke(*argv, "--cache", str(cache))
        assert (code, out) == (4, "")
        assert "line 5" in err and "reference" in err


def test_cache_inconsistent_beyond_reference_is_io_error(tmp_path):
    # L(1..122) from the reference witnesses (L(m) = max{n : a(n) <= m}), then
    # an L(123) record below L(122): each record is valid on its own.
    witnesses = {1: (1,)}
    witnesses.update((n, w) for n, (_, w) in CHI_G_COMPLETE_REFERENCE.items())
    lines, size = [], 0
    for m in range(1, 123):
        while size + 1 in witnesses and witnesses[size + 1][-1] <= m:
            size += 1
        lines.append(f"L {m} {size} {','.join(map(str, witnesses[size]))}\n")
    lines.append(f"L 123 31 {','.join(map(str, witnesses[31]))}\n")
    cache = tmp_path / "cache.txt"
    cache.write_text("".join(lines))
    code, out, err = invoke("ap3", "longest", "5", "--cache", str(cache))
    assert (code, out) == (4, "")
    assert "line 123" in err and "L(123)" in err


@pytest.mark.parametrize("text, message", [
    ("one two three\n", "line 1: expected an integer, got 'one'"),
    ("1 2\n", "coloring has 2 entries for a graph on 3 vertices"),
], ids=["not-integers", "wrong-length"])
def test_verify_malformed_coloring_is_parse_error(tmp_path, p3_file, text, message):
    colors = coloring_file(tmp_path, text)
    code, _, err = invoke("verify", p3_file, colors)
    assert code == 4
    assert message in err
