"""Command-line behavior: outputs, exit codes, JSON shapes, determinism."""
import json
import os
import shlex
import subprocess
import sys

import pytest

from gllkit.cli import main
from gllkit.naive import NaiveInterpreter

from helpers import GRAMMARS

GOLDEN = GRAMMARS.parent / "tests" / "golden"


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def g(name):
    return str(GRAMMARS / name)


def run_fresh(*args):
    """`python -m gllkit.cli` in a fresh process, so that the stack limit is
    the interpreter's default whatever other tests have set in this one."""
    src = str(GRAMMARS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "gllkit.cli", *args],
                          capture_output=True, text=True, env=env, timeout=120)


class TestRecognize:
    def test_accept(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--grammar", g("e.g"),
                               "--start", "E", "--text", "a")
        assert code == 0 and out == "accept\n"

    def test_reject_with_errors(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--grammar", g("csv.g"),
                               "--start", "CSV(alpha)", "--text", "a,!")
        assert code == 1
        lines = out.splitlines()
        assert lines[0] == "reject"
        assert "at 2" in lines[1] and "alpha" in lines[1]

    def test_bad_grammar_path(self, capsys):
        code, _, err = run_cli(capsys, "recognize", "--grammar", "missing.g",
                               "--start", "E", "--text", "a")
        assert code == 2 and "error:" in err

    def test_unresolved_start(self, capsys):
        code, _, err = run_cli(capsys, "recognize", "--grammar", g("e.g"),
                               "--start", "Nope", "--text", "a")
        assert code == 2 and "error:" in err

    def test_missing_input_source(self, capsys):
        code, _, err = run_cli(capsys, "recognize", "--grammar", g("e.g"),
                               "--start", "E")
        assert code == 2 and "error:" in err

    def test_oracle_agreement(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--grammar", g("tuples.g"),
                               "--start", "AlphaTuples", "--text", "(a,b)",
                               "--oracle")
        assert code == 0 and out == "accept\n"

    def test_oracle_checks_a_reject(self, capsys, monkeypatch):
        """The oracle cross-checks a rejected input before the reject is
        printed: a disagreeing oracle is an error, and nothing is printed."""
        monkeypatch.setattr(NaiveInterpreter, "accepts", lambda *_: True)
        code, out, err = run_cli(capsys, "recognize", "--grammar", g("tuples.g"),
                                 "--start", "AlphaTuples", "--text", "(a,b",
                                 "--oracle")
        assert (code, out) == (2, "")
        assert err == "error: oracle mismatch: engine=False oracle=True\n"

    def test_words_mode(self, capsys):
        """In words mode the input is its blank-separated words."""
        code, out, _ = run_cli(capsys, "recognize", "--grammar", g("s1.g"),
                               "--start", "S1", "--mode", "words",
                               "--text", "a a a")
        assert code == 0 and out == "accept\n"

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "recognize", "--grammar", g("e.g"),
                               "--start", "E", "--text", "a",
                               "--format", "json")
        assert code == 0 and json.loads(out) == {"result": "accept"}

    def test_fuel_exhaustion_exit_code(self, capsys):
        code, _, err = run_cli(capsys, "recognize", "--grammar", g("anbncn.g"),
                               "--start", "Start", "--text", "abc",
                               "--fuel", "20000")
        assert code == 2 and "exhausted" in err

    def test_descriptor_fuel_trip(self, capsys):
        # The test above trips the instantiation budget (fuel // 100) first.
        code, out, err = run_cli(capsys, "recognize", "--grammar", g("e.g"),
                                 "--start", "E", "--text", "aaaa", "--fuel", "5")
        assert code == 2 and out == ""
        assert err == "error: fuel budget of 5 exhausted\n"


class TestBsr:
    def test_dump_and_total(self, capsys):
        code, out, _ = run_cli(capsys, "bsr", "--grammar", g("e.g"),
                               "--start", "E", "--text", "a")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "total: 14"
        body = lines[:-1]
        assert len(body) == 14
        assert body == sorted(body) or body[0].startswith("E ::=")
        assert "E ::= 'a' ., 0, 0, 1" in body

    @pytest.mark.parametrize("grammar_file,start,text,golden", [
        ("e.g", "E", "aa", "e_aa.bsr"), ("dup.g", "D", "aaa", "dup_aaa.bsr")])
    def test_dump_matches_golden(self, capsys, grammar_file, start, text, golden):
        """The derived elements, byte for byte as the stored ones were dumped."""
        code, out, _ = run_cli(capsys, "bsr", "--grammar", g(grammar_file),
                               "--start", start, "--text", text)
        assert code == 0
        assert out == (GOLDEN / golden).read_text()

    def test_reject_dump_lists_only_reached_keys(self, capsys):
        """On a+a+ the run registers continuations on Expr at 2 and at 4 whose
        keys (Expr ::= Expr '+' Expr ., 2, _) and (Expr ::= Expr . '+' Expr,
        4, _) are never reached; the dump does not list them."""
        code, out, _ = run_cli(capsys, "bsr", "--grammar", g("expr.g"),
                               "--start", "Expr", "--text", "a+a+")
        assert code == 1
        lines = out.splitlines()
        assert lines[-1] == "total: 9" and len(lines) == 10
        assert not any(line.startswith(("Expr ::= Expr '+' Expr ., 2,",
                                        "Expr ::= Expr . '+' Expr, 4,"))
                       for line in lines)

    def test_empty_input_contains_epsilon_element(self, capsys):
        _, out, _ = run_cli(capsys, "bsr", "--grammar", g("e.g"),
                            "--start", "E", "--text", "")
        assert "E ::= ., 0, 0, 0" in out.splitlines()

    def test_json_shape(self, capsys):
        code, out, _ = run_cli(capsys, "bsr", "--grammar", g("csv.g"),
                               "--start", "CSV(alpha)", "--text", "a",
                               "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["total"] == len(doc["elements"])
        element = doc["elements"][0]
        assert set(element) == {"slot", "l", "k", "r"}
        assert set(element["slot"]) == {"lhs", "pre", "post"}
        assert element["slot"]["lhs"] == {
            "nt": "CSV", "args": [{"token": "alpha"}]}
        # lhs, pre and post of each element spell its slot as the text dump does
        _, text, _ = run_cli(capsys, "bsr", "--grammar", g("csv.g"),
                             "--start", "CSV(alpha)", "--text", "a")
        rendered = [" ".join([json_id(e["slot"]["lhs"]), "::=",
                              *map(json_id, e["slot"]["pre"]), ".",
                              *map(json_id, e["slot"]["post"])])
                    + f", {e['l']}, {e['k']}, {e['r']}" for e in doc["elements"]]
        assert rendered == text.splitlines()[:-1]


def json_id(sid):
    """render_id of a symbol id in its `bsr --format json` form."""
    if "token" in sid:
        name = sid["token"]
        return name if name.startswith("'") else "%" + name
    args = ",".join(map(json_id, sid["args"]))
    return f"{sid['nt']}({args})" if args else sid["nt"]


class TestParse:
    def test_ambiguous_tree_count(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--grammar", g("expr.g"),
                               "--start", "Expr", "--text", "a+a+a")
        assert code == 0
        lines = out.splitlines()
        assert lines[-1] == "2 trees"
        assert len(lines) == 3

    def test_single_tree(self, capsys):
        _, out, _ = run_cli(capsys, "parse", "--grammar", g("csv.g"),
                            "--start", "CSV(alpha)", "--text", "a")
        assert out.splitlines()[-1] == "1 trees"

    def test_precedence_disambiguation(self, capsys):
        _, out, _ = run_cli(capsys, "parse", "--grammar", g("expr_left.g"),
                            "--start", "Expr", "--text", "a+a+a")
        lines = out.splitlines()
        assert lines[-1] == "1 trees"

    def test_left_assoc_first_tree_is_polynomial(self):
        """40 operators: the filter decides per split, so the one tree comes
        without building the Catalan-many others."""
        tree = "(Expr 0 1 'a'@0)"
        for p in range(2, 82, 2):
            tree = f"(Expr 0 {p + 1} {tree} '+'@{p - 1} (Expr {p} {p + 1} 'a'@{p}))"
        done = run_fresh("parse", "--grammar", g("expr_left.g"), "--start", "Expr",
                         "--max-trees", "1", "--text", "+".join("a" * 41))
        assert (done.returncode, done.stdout, done.stderr) == (0, tree + "\n1 trees\n", "")

    def test_right_assoc(self, capsys, tmp_path):
        grammar = tmp_path / "r.g"
        grammar.write_text("%right '+'\nExpr: Expr '+' Expr | 'a'\n")
        code, out, _ = run_cli(capsys, "parse", "--grammar", str(grammar),
                               "--start", "Expr", "--text", "a+a+a")
        assert code == 0 and out == ("(Expr 0 5 (Expr 0 1 'a'@0) '+'@1 (Expr 2 5 "
                                     "(Expr 2 3 'a'@2) '+'@3 (Expr 4 5 'a'@4)))\n1 trees\n")

    @pytest.mark.parametrize("text, trees", [("a=a+a", 1), ("a=a=a", 0)])
    def test_nonassoc(self, capsys, tmp_path, text, trees):
        grammar = tmp_path / "n.g"
        grammar.write_text("%nonassoc '='\n%left '+'\n"
                           "Expr: Expr '=' Expr | Expr '+' Expr | 'a'\n")
        code, out, _ = run_cli(capsys, "parse", "--grammar", str(grammar),
                               "--start", "Expr", "--text", text)
        assert code == 0 and out.splitlines()[-1] == f"{trees} trees"
        if trees:
            assert out.startswith("(Expr 0 5 (Expr 0 1 'a'@0) '='@1 (Expr 2 5 ")

    @pytest.mark.parametrize("assoc, leaning", [
        ("left", "(E 0 5 (E 0 3 (E 0 1 'a'@0) "),
        ("right", "(E 0 5 (E 0 1 'a'@0) '+'@1 (E 2 5 ")])
    def test_named_operator_is_declared_by_name(self, capsys, tmp_path, assoc, leaning):
        """`%left plus` disambiguates E plus E as `%left '+'` does E '+' E:
        the same output, one tree."""
        named, literal = tmp_path / "named.g", tmp_path / "literal.g"
        named.write_text(f"%token plus '+'\n%{assoc} plus\nE: E plus E | 'a'\n")
        literal.write_text(f"%{assoc} '+'\nE: E '+' E | 'a'\n")
        outs = [run_cli(capsys, "parse", "--grammar", str(grammar), "--start", "E",
                        "--text", "a+a+a") for grammar in (named, literal)]
        assert outs[0] == outs[1]
        assert outs[0][0] == 0 and outs[0][1].startswith(leaning)
        assert outs[0][1].endswith(")\n1 trees\n")

    def test_named_operator_in_words_mode(self, capsys, tmp_path):
        named, literal = tmp_path / "named.g", tmp_path / "literal.g"
        named.write_text("%token plus '+'\n%left plus\nE: E plus E | 'a'\n")
        literal.write_text("%left '+'\nE: E '+' E | 'a'\n")
        _, want, _ = run_cli(capsys, "parse", "--grammar", str(literal), "--start", "E",
                             "--mode", "words", "--text", "a + a + a")
        code, out, _ = run_cli(capsys, "parse", "--grammar", str(named), "--start", "E",
                               "--mode", "words", "--text", "a plus a plus a")
        assert code == 0 and out == want.replace("'+'", "'plus'")
        assert out.startswith("(E 0 5 (E 0 3 ") and out.endswith(")\n1 trees\n")

    def test_token_declared_twice_is_an_error(self, capsys, tmp_path):
        grammar = tmp_path / "twice.g"
        grammar.write_text("%left '+'\n%right '+'\nE: E '+' E | 'a'\n")
        code, out, err = run_cli(capsys, "parse", "--grammar", str(grammar),
                                 "--start", "E", "--text", "a+a")
        assert (code, out, err) == (2, "", "error: 2:8: precedence of '+' declared twice\n")

    def test_truncation_note(self, capsys):
        _, out, _ = run_cli(capsys, "parse", "--grammar", g("expr.g"),
                            "--start", "Expr", "--text", "a+a+a+a+a",
                            "--max-trees", "3")
        lines = out.splitlines()
        assert lines[-1] == "3 trees (truncated)"
        assert len(lines) == 4

    def test_reject_exit_code(self, capsys):
        code, out, _ = run_cli(capsys, "parse", "--grammar", g("expr.g"),
                               "--start", "Expr", "--text", "a+")
        assert code == 1 and out.startswith("reject")

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "parse", "--grammar", g("expr.g"),
                            "--start", "Expr", "--text", "a",
                            "--format", "json")
        doc = json.loads(out)
        assert doc["truncated"] is False
        assert doc["trees"][0]["name"] == "Expr"


@pytest.mark.parametrize("command", ["parse", "count"])
def test_reject_prints_error_reports(capsys, command):
    """parse and count print a reject's error reports as recognize does,
    and exit 1."""
    args = ("--grammar", g("csv.g"), "--start", "CSV(alpha)", "--text", "a,!",
            "--format", "json")
    code, out, _ = run_cli(capsys, command, *args)
    assert code == 1
    assert json.loads(out) == {"result": "reject", "errors": [
        {"position": 2, "expected": ["CSV(%alpha) ::= . %alpha"], "got": "!"}]}
    assert (code, out) == run_cli(capsys, "recognize", *args)[:2]


@pytest.mark.parametrize("command, out", [
    ("parse", "(D 0 2 'a'@0 (D 1 2 'a'@1 (D 2 2)))\n1 trees\n"), ("count", "1\n")])
def test_equal_alternates_count_once(capsys, command, out):
    """dup.g's two copies of 'a' D, and its two empty alternates, are one
    alternate each: aa has one tree."""
    assert run_cli(capsys, command, "--grammar", g("dup.g"), "--start", "D",
                   "--text", "aa") == (0, out, "")


class TestCount:
    @pytest.mark.parametrize("text,expected", [("a", "1"), ("a+a+a+a", "5")])
    def test_counts(self, capsys, text, expected):
        code, out, _ = run_cli(capsys, "count", "--grammar", g("expr.g"),
                               "--start", "Expr", "--text", text)
        assert code == 0 and out.strip() == expected

    def test_permutation_is_unambiguous(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--grammar", g("permutation.g"),
                               "--start", "Start", "--text", "1234")
        assert code == 0 and out.strip() == "1"

    def test_deep_left_recursion(self, tmp_path):
        grammar = tmp_path / "l.g"
        grammar.write_text("L: L 'a' | 'a'\n")
        done = run_fresh("count", "--grammar", str(grammar), "--start", "L",
                         "--text", "a" * 3000)
        assert (done.returncode, done.stdout, done.stderr) == (0, "1\n", "")

    def test_json(self, capsys):
        _, out, _ = run_cli(capsys, "count", "--grammar", g("expr.g"),
                            "--start", "Expr", "--text", "a+a+a",
                            "--format", "json")
        assert json.loads(out) == {"result": "accept", "count": 2,
                                   "saturated": False}

    def test_precedence_declarations_apply(self, capsys):
        """count keeps the trees that parse prints: one left-leaning tree."""
        args = ("count", "--grammar", g("expr_left.g"), "--start", "Expr",
                "--text", "a+a+a+a")
        _, out, _ = run_cli(capsys, *args)
        assert out == "1\n"
        _, out, _ = run_cli(capsys, *args, "--format", "json")
        assert json.loads(out) == {"result": "accept", "count": 1,
                                   "saturated": False}


class TestStats:
    def test_golden_metrics(self, capsys):
        code, out, err = run_cli(capsys, "stats", "--grammar", g("e.g"),
                                 "--start", "E", "--text", "a",
                                 "--deterministic")
        assert code == 0
        assert "descriptors processed: 16" in out
        assert "bsrs: 14" in out
        assert err == ""

    def test_timing_goes_to_stderr(self, capsys):
        _, out, err = run_cli(capsys, "stats", "--grammar", g("e.g"),
                              "--start", "E", "--text", "a")
        assert "wall time" in err and "wall time" not in out

    def test_json_flat_object(self, capsys):
        _, out, _ = run_cli(capsys, "stats", "--grammar", g("e.g"),
                            "--start", "E", "--text", "a",
                            "--format", "json", "--deterministic")
        doc = json.loads(out)
        assert doc["descriptors_processed"] == 16 and doc["bsrs"] == 14
        assert "wall_time_s" not in doc

    def test_empty_input_reject_exit(self, capsys):
        code, out, _ = run_cli(capsys, "stats", "--grammar", g("csv.g"),
                               "--start", "CSV(alpha)", "--text", "")
        assert code == 1 and "result: reject" in out


def usage_error(capsys, *args):
    """The exit code and the last stderr line of a command argparse rejects."""
    with pytest.raises(SystemExit) as stop:
        main(list(args))
    captured = capsys.readouterr()
    assert captured.out == ""
    return stop.value.code, captured.err.splitlines()[-1]


class TestNegativeCounts:
    """Counts and budgets below 0 are usage errors, caught before any run."""

    def test_negative_fuel(self, capsys):
        code, err = usage_error(capsys, "recognize", "--grammar", g("e.g"),
                                "--start", "E", "--text", "a", "--fuel", "-1")
        assert code == 2 and err.endswith("argument --fuel: must not be negative: -1")

    def test_negative_errors(self, capsys):
        code, err = usage_error(capsys, "recognize", "--grammar", g("csv.g"),
                                "--start", "CSV(alpha)", "--text", "a,!",
                                "--errors", "-1")
        assert code == 2 and err.endswith("argument --errors: must not be negative: -1")

    def test_negative_max_trees(self, capsys):
        code, err = usage_error(capsys, "parse", "--grammar", g("e.g"),
                                "--start", "E", "--text", "aa", "--max-trees", "-1")
        assert code == 2
        assert err.endswith("argument --max-trees: must not be negative: -1")


# Each command with an option it does not read, and that option's value.
UNREAD_OPTIONS = [
    ("recognize", "--max-trees", "2"),
    ("bsr", "--max-trees", "2"), ("bsr", "--errors", "2"), ("bsr", "--oracle"),
    ("parse", "--oracle"),
    ("count", "--max-trees", "2"), ("count", "--oracle"),
    ("stats", "--max-trees", "2"), ("stats", "--errors", "2"), ("stats", "--oracle"),
    ("recognize", "--deterministic"), ("bsr", "--deterministic"),
    ("parse", "--deterministic"), ("count", "--deterministic"),
]


class TestOptionsPerCommand:
    """A command accepts only the options it reads: one it would ignore is a
    usage error, exit 2, before any run."""

    @pytest.mark.parametrize("command,option", [(u[0], u[1:]) for u in UNREAD_OPTIONS],
                             ids=[f"{u[0]}{u[1]}" for u in UNREAD_OPTIONS])
    def test_unread_option_is_a_usage_error(self, capsys, command, option):
        code, err = usage_error(capsys, command, "--grammar", g("e.g"),
                                "--start", "E", "--text", "a", *option)
        assert code == 2
        assert err.endswith("unrecognized arguments: " + " ".join(option))


class TestDeterminism:
    def test_byte_identical_output(self, capsys):
        args = ("parse", "--grammar", g("expr.g"), "--start", "Expr",
                "--text", "a+a+a")
        first = run_cli(capsys, *args)
        second = run_cli(capsys, *args)
        assert first == second


class TestInternalFailure:
    def test_recursion_error_exits_2_with_one_line(self):
        text = "(" + ",".join("a" * 300) + ")"
        done = run_fresh("parse", "--grammar", g("tuples.g"),
                         "--start", "AlphaTuples", "--text", text)
        assert done.returncode == 2
        assert done.stdout == ""
        assert done.stderr.startswith("error: RecursionError")
        assert done.stderr.count("\n") == 1


def readme_commands():
    """The lines of README's "Command line" example block, as argv lists."""
    readme = (GRAMMARS.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    lines = [shlex.split(line) for line in block.strip().splitlines()]
    assert all(line[0] == "gllkit" for line in lines)
    return [line[1:] for line in lines]


@pytest.mark.parametrize("args", readme_commands(), ids=lambda args: args[0])
def test_readme_example_runs(capsys, monkeypatch, args):
    """Each README example exits 0, so the docs name only the commands and
    options that exist."""
    monkeypatch.chdir(GRAMMARS.parent)
    assert run_cli(capsys, *args)[0] == 0
