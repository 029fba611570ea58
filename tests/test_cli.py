import argparse
import ast
import collections
import contextlib
import enum
import io
import json
import math
import os
import pathlib
import random
import shlex
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from balleans import cli, suites
from balleans.cli import (
    _parser,
    format_subgroup,
    parse_group,
    parse_subgroup,
    run,
)
from balleans.exactmat import abs_det
from balleans.groups import FiniteAbelianGroup, PruferSubgroup
from balleans.lattices import lattice_from_generators
from balleans.witnesses import VerificationReport


DATA = pathlib.Path(__file__).parent / "data"


def _not_json(token):
    raise ValueError(f"{token} is not JSON")


def run_json(capsys, argv):
    """Exit code and parsed stdout; NaN and Infinity fail the parse."""
    code = run(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out, parse_constant=_not_json) if out.strip() else None)


def argv_per_command(tmp_path) -> list[list[str]]:
    """A successful invocation of each command; verify both with a seed and
    with the default one."""
    path = tmp_path / "desc.json"
    path.write_text(json.dumps({"free_rank": 1, "reduced_torsion": {},
                                "divisible": {"q_rank": 0, "prufer": {"2": 1}}}))
    return [["dist", "--group", "Z(12)", "--sub", "gen{2}", "--sub", "gen{3}"],
            ["ball", "--family", "LZ-log", "--n", "6", "--K", "2"],
            ["component", "--family", "prufer", "--p", "3"],
            ["saturate", "--group", "Z^2", "--sub", "span[(2,4)]"],
            ["profile", "--descriptor", str(path)],
            ["exp-ball", "--group", "Z(12)", "--radius", "1"],
            ["mu", "--group", "Z(6)", "--set", "{0}", "--set", "{0,3}"],
            ["verify", "--suite", "lzball", "--seed", "3"],
            ["verify", "--suite", "iota"]]


def readme_examples() -> list[tuple[str, str]]:
    """(recorded stdout file, README line) of each README CLI example but
    `profile`, which needs a file, and `verify --suite all`, which has its
    own recorded report."""
    lines = (DATA / "readme_cli" / "examples.txt").read_text().splitlines()
    return [tuple(line.split(" ", 1)) for line in lines]


def literal_argvs() -> list[list[str]]:
    """Every argv this file writes out: a list of str literals that starts
    with a command name."""
    found = []
    for node in ast.walk(ast.parse(pathlib.Path(__file__).read_text())):
        if isinstance(node, ast.List) and node.elts and all(
                isinstance(e, ast.Constant) and isinstance(e.value, str) for e in node.elts):
            argv = [e.value for e in node.elts]
            if argv[0] in cli._COMMANDS:
                found.append(argv)
    return found


class TestParsing:
    def test_groups(self):
        assert parse_group("Z") == 1
        assert parse_group("Z^3") == 3
        assert parse_group("Z(12)") == FiniteAbelianGroup((12,))
        assert parse_group("Z(2)xZ(4)") == FiniteAbelianGroup((2, 4))
        assert parse_group("Z(2,4)") == FiniteAbelianGroup((2, 4))
        assert parse_group("prufer@5") == ("prufer", 5)

    def test_subgroups(self):
        assert parse_subgroup("6Z", 1) == lattice_from_generators(1, [[6]])
        assert parse_subgroup("span[(2,4)]", 2) == \
            lattice_from_generators(2, [[2, 4]])
        assert parse_subgroup("H_3@2", ("prufer", 2)) == PruferSubgroup(2, 3)
        assert parse_subgroup("whole@2", ("prufer", 2)) == PruferSubgroup(2, None)
        g = FiniteAbelianGroup((12,))
        assert parse_subgroup("gen{4}", g).order == 3

    def test_round_trip(self):
        for expr, ctx in [("6Z", 1), ("0Z", 1), ("span[(2,4),(0,6)]", 2),
                          ("H_3@2", ("prufer", 2))]:
            sub = parse_subgroup(expr, ctx)
            printed = format_subgroup(sub, ctx)
            assert parse_subgroup(printed, ctx) == sub
        g = FiniteAbelianGroup((2, 4))
        sub = parse_subgroup("gen{(1,2)}", g)
        assert parse_subgroup(format_subgroup(sub, g), g) == sub


class TestDist:
    def test_lattice_distance(self, capsys):
        code, out = run_json(capsys, ["dist", "--group", "Z",
                                      "--sub", "2Z", "--sub", "3Z"])
        assert code == 0
        assert out["mu"] == 3
        assert out["log"] == pytest.approx(1.0986122886681098)

    def test_symmetry(self, capsys):
        a = run_json(capsys, ["dist", "--group", "Z^2", "--sub", "span[(2,0)]",
                              "--sub", "span[(0,3)]"])
        b = run_json(capsys, ["dist", "--group", "Z^2", "--sub", "span[(0,3)]",
                              "--sub", "span[(2,0)]"])
        assert a == b

    def test_infinite_distance_serializes(self, capsys):
        code, out = run_json(capsys, ["dist", "--group", "prufer@2",
                                      "--sub", "H_3@2", "--sub", "whole@2"])
        assert code == 0 and out["mu"] == "inf" and out["log"] == "inf"

    def test_base_override(self, capsys, monkeypatch):
        monkeypatch.setenv("BALLEAN_LOG_BASE", "3")
        code, out = run_json(capsys, ["dist", "--group", "Z",
                                      "--sub", "1Z", "--sub", "3Z"])
        assert code == 0 and out["log"] == pytest.approx(1.0)

    def test_24x24_generator_sets_in_seconds(self, capsys):
        # the row HNF of a 24x24 matrix with entries ±99 once took 30 s
        rng = random.Random(3)
        a, b = ([[rng.randint(-99, 99) for _ in range(24)] for _ in range(24)]
                for _ in range(2))
        span = lambda rows: "span[" + ",".join(
            f"({','.join(map(str, r))})" for r in rows) + "]"
        t0 = time.perf_counter()
        code, out = run_json(capsys, ["dist", "--group", "Z^24",
                                      "--sub", span(a), "--sub", span(b)])
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        # mu' = max(|det A|, |det B|) / |det(A + B)|, and det(A + B)
        # divides both determinants (Bareiss, an independent route)
        da, db = abs_det(a), abs_det(b)
        assert math.gcd(da, db) % (max(da, db) // out["mu"]) == 0

    def test_finite_group(self, capsys):
        code, out = run_json(capsys, ["dist", "--group", "Z(12)",
                                      "--sub", "gen{2}", "--sub", "gen{3}"])
        assert code == 0 and out["mu"] == 3


class TestOtherCommands:
    def test_ball_families(self, capsys):
        code, out = run_json(capsys, ["ball", "--family", "LZ-log",
                                      "--n", "6", "--K", "2"])
        assert code == 0 and out["members"] == ["3Z", "6Z", "12Z"]
        code, out = run_json(capsys, ["ball", "--family", "LZ-exp",
                                      "--n", "7", "--m", "2"])
        assert code == 0 and out["members"] == ["7Z"]
        code, out = run_json(capsys, ["ball", "--family", "prufer",
                                      "--p", "2", "--n", "5", "--K", "4"])
        assert code == 0 and out["members"] == [
            "H_3@2", "H_4@2", "H_5@2", "H_6@2", "H_7@2"]

    def test_component(self, capsys):
        code, out = run_json(capsys, ["component", "--family", "Z^n", "--n", "1"])
        assert code == 0 and out["count"] == 2
        code, out = run_json(capsys, ["component", "--family", "prufer",
                                      "--p", "3"])
        assert code == 0 and out["count"] == 2

    def test_saturate(self, capsys):
        code, out = run_json(capsys, ["saturate", "--group", "Z^2",
                                      "--sub", "span[(2,4)]"])
        assert code == 0 and out["saturation"] == "span[(1,2)]"

    def test_saturate_31x32_in_seconds(self, capsys):
        # this span took 32 s while HNF entries were reduced only at the end
        rng = random.Random(3)
        rows = [[rng.randint(-99, 99) for _ in range(32)] for _ in range(31)]
        span = "span[" + ",".join(f"({','.join(map(str, r))})" for r in rows) + "]"
        t0 = time.perf_counter()
        code, out = run_json(capsys, ["saturate", "--group", "Z^32", "--sub", span])
        assert time.perf_counter() - t0 < 5.0
        assert code == 0
        assert parse_subgroup(out["saturation"], 32).rank == 31

    def test_profile(self, capsys, tmp_path):
        desc = {"free_rank": 0,
                "divisible": {"q_rank": 0, "prufer": {"2": 1, "3": 1}},
                "reduced_torsion": {}}
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc))
        code, out = run_json(capsys, ["profile", "--descriptor", str(path)])
        assert code == 0
        assert out["asdim"] == {"kind": "finite", "n": 2}
        assert out["iso_points"]["size"] == "1"

    def test_exp_ball(self, capsys):
        code, out = run_json(capsys, ["exp-ball", "--group", "Z(12)",
                                      "--radius", "1"])
        assert code == 0 and len(out["members"]) == 7

    def test_mu(self, capsys):
        code, out = run_json(capsys, ["mu", "--group", "Z(6)",
                                      "--set", "{0}", "--set", "{0,3}"])
        assert code == 0 and out["mu"] == 2 and out["single_set"] == 2

    def test_verify_suite(self, capsys):
        code, out = run_json(capsys, ["verify", "--suite", "hamming"])
        assert code == 0
        assert out[0]["ok"] and out[0]["violations"] == []

    def test_verify_all_matches_the_recorded_report(self, capsys):
        recorded = pathlib.Path(__file__).parent / "data" / "verify_all_seed0.json"
        assert run(["verify", "--suite", "all", "--seed", "0"]) == 0
        assert capsys.readouterr().out == recorded.read_text()

    def test_readme_examples_print_the_recorded_output(self, capsys, monkeypatch):
        monkeypatch.delenv("BALLEAN_LOG_BASE", raising=False)
        for name, line in readme_examples():
            assert run(shlex.split(line)[1:]) == 0
            assert capsys.readouterr().out == (DATA / "readme_cli" / name).read_text(), line

    def test_recorded_examples_are_the_readme_examples(self):
        readme = (DATA.parent.parent / "README.md").read_text()
        block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        lines = [line for line in block.splitlines()
                 if not line.startswith("balleans profile ") and "--suite all" not in line]
        assert [line for _, line in readme_examples()] == lines

    def test_mu_seed_484_pairs_finish_in_time(self, capsys, monkeypatch):
        # |Y| = 4 in (Z/2)^8, Y then Z drawn by random.Random(484) from the
        # elements in order, as CI draws the |Z| = 48 pair: the cover search
        # once ran past a minute on both sizes
        monkeypatch.delenv("BALLEAN_LOG_BASE", raising=False)
        elems = list(FiniteAbelianGroup((2,) * 8).elements())
        text = lambda s: "{" + ",".join(str(x).replace(" ", "") for x in s) + "}"
        for size, mu in ((40, 32), (48, 37)):
            rng = random.Random(484)
            y, z = rng.sample(elems, 4), rng.sample(elems, size)
            start = time.perf_counter()
            assert run(["mu", "--group", "Z(2,2,2,2,2,2,2,2)",
                        "--set", text(y), "--set", text(z)]) == 0
            assert time.perf_counter() - start < 2
            out = capsys.readouterr().out
            assert (json.loads(out)["mu"], json.loads(out)["single_set"]) == (mu, mu)
        recorded = pathlib.Path(__file__).parent / "data" / "mu_seed484.json"
        assert out == recorded.read_text()

    def test_verify_failure_prints_report_and_exits_1(self, capsys, monkeypatch):
        failing = VerificationReport("broken", 1, (("bad", 0),))
        monkeypatch.setitem(suites.SUITES, "tree",
                            (lambda: failing, frozenset()))
        code, out = run_json(capsys, ["verify", "--suite", "tree"])
        assert code == 1 and out == [failing.to_json()]

    def test_same_argv_twice_same_stdout(self, capsys, tmp_path):
        for argv in argv_per_command(tmp_path):
            outs = []
            for _ in range(2):
                assert run(argv) == 0
                outs.append(capsys.readouterr().out)
            assert outs[0] and outs[0] == outs[1]

    def test_interleaved_commands_keep_no_state(self, capsys, tmp_path):
        # the one-set mu and three-sub dist are refused: an appended option
        # that outlived its call would change those answers
        argvs = argv_per_command(tmp_path) + [
            ["mu", "--group", "Z(6)", "--set", "{0}"],
            ["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z", "--sub", "5Z"]]
        first = [(run(argv), *capsys.readouterr()) for argv in argvs]
        assert [code for code, _, _ in first] == [0] * 9 + [2, 2]
        order = [k for pair in zip(range(len(argvs)), reversed(range(len(argvs))))
                 for k in pair]
        for k in order:
            assert (run(argvs[k]), *capsys.readouterr()) == first[k], argvs[k]

    def test_run_without_argv_reads_sys_argv(self, capsys, monkeypatch):
        # the console script's path
        monkeypatch.setattr(sys, "argv", ["balleans", "dist", "--group", "Z",
                                          "--sub", "2Z", "--sub", "3Z"])
        code, out = run_json(capsys, None)
        assert code == 0 and out["mu"] == 3
        monkeypatch.setattr(sys, "argv", ["balleans", "--help"])
        assert run() == 0 and "exp-ball" in capsys.readouterr().out
        monkeypatch.setattr(sys, "argv", ["balleans", "frobnicate"])
        assert run() == 2


JSON_TEXT = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f\n", "\u2028", "\ud800", "\udfff", "é€😀"])
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(),
    st.sampled_from([2 ** 64, -(3 ** 2000), 10 ** 4299]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, 5e-324, 1e-7]), JSON_TEXT)
JSON_TREES = st.recursive(JSON_LEAVES, lambda kids: st.one_of(
    st.lists(kids), st.lists(kids).map(tuple), st.dictionaries(JSON_TEXT, kids)),
    max_leaves=40)


def json_dumps(payload) -> str:
    """The text `run` writes for a payload: its writer's test oracle."""
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)


class TestJsonText:
    """`cli._json_text` writes the bytes of json.dumps(indent=2, sort_keys=True,
    allow_nan=False)."""

    @given(JSON_TREES)
    @settings(max_examples=500, deadline=None)
    def test_writes_what_json_writes(self, tree):
        assert cli._json_text(tree) == json_dumps(tree)

    def test_writes_subclasses_as_json_does(self):
        class Tag(str):
            pass

        class Row(list):
            pass

        class Level(enum.IntEnum):
            TOP = 3

        nested = collections.OrderedDict(b=Row([1, Tag("é")]), a=collections.OrderedDict())
        tree = {"depth": [[nested, Row()], (Level.TOP, 2.5)]}
        assert cli._json_text(tree) == json_dumps(tree)

    def test_writes_each_payload_of_a_literal_argv_as_json_does(self, capsys, monkeypatch):
        payloads = []
        for name, (help_text, handler, options) in list(cli._COMMANDS.items()):
            def recording(args, handler=handler):
                payloads.append(handler(args))
                return payloads[-1]
            monkeypatch.setitem(cli._COMMANDS, name, (help_text, recording, options))
        argvs = literal_argvs()
        assert len(argvs) >= 100
        for argv in argvs:
            run(argv)
        capsys.readouterr()
        assert {type(p) for p in payloads} == {dict, list} and len(payloads) >= 30
        for payload in payloads:
            assert cli._json_text(payload) == json_dumps(payload)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_float_refused_with_json_message(self, capsys, monkeypatch, bad):
        # the payload is written in full first, so nothing reaches stdout
        payload = {"mu": 3, "log": [0.5, bad]}
        help_text, _, options = cli._COMMANDS["dist"]
        monkeypatch.setitem(cli._COMMANDS, "dist", (help_text, lambda args: payload, options))
        with pytest.raises(ValueError) as refused:
            json_dumps(payload)
        assert run(["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z"]) == 1
        assert capsys.readouterr() == ("", f"error: {refused.value}\n")


def equals_spelling(argv):
    """argv's `--flag value` pairs as `--flag=value`, which argparse reads."""
    return [argv[0], *(f"{f}={v}" for f, v in zip(argv[1::2], argv[2::2]))]


def _fresh_full_parser_prints(capsys, argv):
    """Exit code, stdout and stderr of argv on a newly built parser of every
    command, as `run` reports them."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as stop:
        _parser.__wrapped__().parse_args(argv)
    return (2 if stop.value.code else 0, *capsys.readouterr())


class TestOneCommandParser:
    """Whether `run` reads argv itself or hands it to its cached parser,
    it prints what a newly built parser of every command prints."""

    ARGVS = [[], ["--help"], ["frobnicate"], ["--", "dist"],
             *([cmd, "--help"] for cmd in cli._COMMANDS),
             # a required option missing, per command (verify has none, so
             # an option without its value)
             ["dist", "--group", "Z"], ["ball", "--n", "3"], ["component"],
             ["saturate", "--group", "Z^2"], ["profile"],
             ["exp-ball", "--group", "Z(6)"], ["mu", "--set", "{0}"],
             ["verify", "--max-coord"],
             # bad choices and bad numbers
             ["ball", "--family", "X"], ["verify", "--suite", "X"],
             ["component", "--family", "Z"],
             ["ball", "--family", "LZ-exp", "--n", "x", "--m", "1"],
             ["verify", "--seed", "1.5"],
             ["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z", "--base", "e"],
             ["mu", "--group", "Z(6)", "--set", "{0}", "--set", "{3}",
              "--base", "two"],
             # errors the top-level parser reports, with its usage line
             ["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z", "--frob"],
             ["saturate", "--group", "Z", "--sub", "2Z", "extra"],
             # shapes the command's parser reads from what the top-level
             # parser hands it: an unknown flag, abbreviations, -h, --
             ["dist", "--group=Z", "--sub", "2Z", "--sub", "3Z", "--frob"],
             ["dist", "--gro", "Z", "--sub", "2Z", "--sub", "3Z", "x"],
             ["saturate", "--group", "Z", "--group", "Z^2", "--sub", "2Z", "x"],
             ["dist", "--", "--group", "Z"], ["dist", "--group", "Z", "-h"],
             ["verify", "--seed", "-3", "--frob"], ["dist", "extra", "--group", "Z"],
             ["dist", "-x", "--group", "Z", "--sub", "1Z", "--sub", "2Z"],
             ["verify", "--suite", "tree", "--", "x"]]

    @pytest.mark.parametrize("argv", ARGVS, ids=lambda a: " ".join(a) or "none")
    def test_prints_what_the_full_parser_prints(self, capsys, monkeypatch, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert _fresh_full_parser_prints(capsys, argv) == \
            (run(argv), *capsys.readouterr())

    def test_one_parse_pass_for_a_known_command(self, capsys, monkeypatch, tmp_path):
        # a well-formed argv makes no pass; its --flag=value spelling makes
        # one, by the top-level parser, and prints the same
        passes = []

        def spy(method):
            real = getattr(argparse.ArgumentParser, method)
            return lambda self, *a, **kw: passes.append((method, self.prog)) or real(self, *a, **kw)

        for method in ("parse_args", "parse_known_args"):
            monkeypatch.setattr(argparse.ArgumentParser, method, spy(method))
        for argv in argv_per_command(tmp_path):
            passes.clear()
            outputs = [(run(argv), *capsys.readouterr())]
            assert passes == [], argv
            outputs.append((run(equals_spelling(argv)), *capsys.readouterr()))
            assert [p for p in passes if p[0] == "parse_args"] == [("parse_args", "balleans")]
            assert outputs[0] == outputs[1] and outputs[0][0] == 0, argv


class TestCachedParsers:
    """The parser `run` falls back to is built once per process and reused."""

    def test_each_parser_built_at_most_once(self, capsys, monkeypatch, tmp_path):
        built = []
        real_init = argparse.ArgumentParser.__init__

        def init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", init)
        _parser.__wrapped__()
        fresh, built[:] = len(built), []  # constructions in building it once
        cli._parser.cache_clear()
        well_formed = argv_per_command(tmp_path)
        for argv in well_formed:
            run(argv)
        assert built == [] and cli._parser.cache_info().currsize == 0
        argvs = well_formed + [equals_spelling(argv) for argv in well_formed] + [
            [], ["--help"], ["frobnicate"], ["dist", "--help"], ["mu", "--set"]]
        for i in range(100):
            run(argvs[i % len(argvs)])
        capsys.readouterr()
        assert len(built) == fresh and cli._parser.cache_info().currsize == 1
        for argv in argvs:
            run(argv)
        assert len(built) == fresh

    def test_help_and_errors_follow_columns(self, capsys, monkeypatch):
        argvs = [["dist", "--help"], ["--help"], ["dist", "--group", "Z"]]
        parser = _parser()
        seen = set()
        for columns in ("200", "40", "80"):
            monkeypatch.setenv("COLUMNS", columns)
            outputs = tuple((run(argv), *capsys.readouterr()) for argv in argvs)
            assert outputs == tuple(_fresh_full_parser_prints(capsys, argv)
                                    for argv in argvs), columns
            seen.add(outputs)
        assert len(seen) == 3  # each width reads differently
        assert _parser() is parser

    def test_error_leaves_next_call_unchanged(self, capsys):
        valid = [["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z"],
                 ["mu", "--group", "Z(6)", "--set", "{0}", "--set", "{0,3}"]]
        before = [(run(argv), *capsys.readouterr()) for argv in valid]
        for bad in (["dist", "--group", "Z", "--sub", "5Z", "--frob"],
                    ["dist", "--sub", "5Z", "--base", "e"],
                    ["mu", "--group", "Z(6)", "--set", "{1}", "--set", "{2}",
                     "--set"],
                    ["mu", "--set", "{1}", "--base", "two"]):
            assert run(bad) == 2
            capsys.readouterr()
            assert [(run(argv), *capsys.readouterr()) for argv in valid] == before


def _own_parser_vars(name, rest):
    """vars() of what the parser reads from command `name` and its arguments
    rest, as sorted items; None where argparse exits or leaves arguments over."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args, extra = _parser().parse_known_args([name, *rest])
        except SystemExit:
            return None
    return None if extra else sorted(vars(args).items())


VALUES = st.one_of(
    st.sampled_from(["0", "3", "-3", "07", " 5", "1.5", "-1.5", "1e3", "nan", "NaN",
                     "-nan", "inf", "-", "", "x", "--", "2Z", "3Z", "Z", "Z(6)", "{0}",
                     *(c for _, (_, _, opts) in cli._COMMANDS.items()
                       for _, kw in opts for c in kw.get("choices", ())), "LZ", "al"]),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.text(max_size=3))


@st.composite
def command_argv(draw):
    """A command and an argv tail drawn from its flags, their abbreviations and
    --flag=value spellings, foreign flags, and values valid and not."""
    name = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = [flag for flag, _ in cli._COMMANDS[name][2]]
    token = st.one_of(
        st.sampled_from(flags),
        st.sampled_from([f[:k] for f in flags for k in range(3, len(f))] or flags),
        st.builds("{}={}".format, st.sampled_from(flags), VALUES),
        st.sampled_from(["--frob", "-h", "--help", "--", "-x", "--seed", "--group"]),
        VALUES)
    pairs = st.lists(st.tuples(st.sampled_from(flags), VALUES), max_size=4).map(
        lambda ps: [t for p in ps for t in p])
    return name, draw(st.one_of(st.lists(token, max_size=8), pairs))


class TestFastArgs:
    """`_fast_args` reads a well-formed argv as argparse does and declines
    the rest, which argparse then reads."""

    @given(command_argv())
    @settings(max_examples=600, deadline=None)
    def test_none_or_what_the_command_parser_reads(self, drawn):
        name, rest = drawn
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            fast = cli._fast_args(name, rest)
        assert out.getvalue() == err.getvalue() == ""
        if fast is not None:  # repr, as nan is not equal to itself
            assert repr(sorted(vars(fast).items())) == repr(_own_parser_vars(name, rest))

    def test_reads_each_command_and_repeated_flags(self, tmp_path):
        for argv in argv_per_command(tmp_path) + [
                ["verify"], ["dist", "--sub", "2Z", "--group", "Z", "--sub", "3Z",
                             "--base", "nan", "--base", "2"],
                ["saturate", "--group", "Z", "--group", "Z^2", "--sub", "2Z"]]:
            fast = cli._fast_args(argv[0], argv[1:])
            assert fast is not None
            assert sorted(vars(fast).items()) == _own_parser_vars(argv[0], argv[1:])

    def test_well_formed_query_loads_no_argparse(self):
        script = ("import sys\nfrom balleans.cli import run\n"
                  "run(['dist', '--group', 'Z', '--sub', '2Z', '--sub', '3Z'])\n"
                  "print(sorted({'argparse', 'gettext'} & sys.modules.keys()))\n")
        src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
        out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), check=True).stdout
        assert out.splitlines()[-1] == "[]"


class TestExitCodes:
    def test_usage_error_unknown_command(self, capsys):
        assert run(["frobnicate"]) == 2

    def test_usage_error_bad_subgroup(self, capsys):
        assert run(["dist", "--group", "Z", "--sub", "wat",
                    "--sub", "2Z"]) == 2

    def test_domain_error(self, capsys):
        # a vector arity mismatch is found while parsing: a usage error
        assert run(["dist", "--group", "Z^2", "--sub", "span[(1,2,3)]",
                    "--sub", "span[(1,0)]"]) == 2

    def test_usage_error_prime_mismatch(self, capsys):
        assert run(["dist", "--group", "prufer@3", "--sub", "H_1@5",
                    "--sub", "H_2@3"]) == 2
        # an "@" with no prime after it names no prime, not the group's
        capsys.readouterr()
        assert run(["dist", "--group", "prufer@2", "--sub", "H_1@",
                    "--sub", "H_1"]) == 2
        assert capsys.readouterr().err == "usage error: cannot parse prime: ''\n"
        # the whole group's prime is read as H_n@p's is
        for sub in ("whole@5", "whole@"):
            assert run(["dist", "--group", "prufer@3", "--sub", sub,
                        "--sub", "H_1"]) == 2
        assert capsys.readouterr().err == (
            "usage error: subgroup prime differs from group context\n"
            "usage error: cannot parse prime: ''\n")

    def test_whole_group_prime_read_as_an_integer(self, capsys):
        for sub in ("whole@03", "whole@ 3", "whole@3", "whole"):
            assert run_json(capsys, ["dist", "--group", "prufer@3", "--sub", sub,
                                     "--sub", "H_1"]) == \
                (0, {"mu": "inf", "log": "inf", "base": math.e}), sub
        assert parse_subgroup("whole@03", ("prufer", 3)) == PruferSubgroup(3, None)

    def test_usage_error_non_prime_prufer(self, capsys):
        assert run(["dist", "--group", "prufer@4", "--sub", "H_1",
                    "--sub", "H_2"]) == 2

    def test_usage_error_non_prime_p_option(self, capsys):
        assert run(["component", "--family", "prufer", "--p", "4"]) == 2
        assert run(["ball", "--family", "prufer", "--p", "4", "--n", "1",
                    "--K", "2"]) == 2

    def test_large_prime_decided_in_time(self, capsys):
        # trial division to sqrt(p) once took minutes on this prime
        start = time.perf_counter()
        assert run_json(capsys, ["dist", "--group", "prufer@1000000000000000003",
                                 "--sub", "H_0", "--sub", "H_1"])[1]["mu"] == 10 ** 18 + 3
        assert time.perf_counter() - start < 1.0

    def test_domain_error_prime_past_the_limit(self, capsys):
        for argv in (["dist", "--group", "prufer@3317044064679887385961981",
                      "--sub", "H_0", "--sub", "H_1"],
                     ["component", "--family", "prufer", "--p", "3317044064679887385961981"]):
            assert run(argv) == 1
            out, err = capsys.readouterr()
            assert out == "" and "PRIME_LIMIT = 3317044064679887385961981" in err

    def test_domain_error_prufer_gap_past_the_digit_bound(self, capsys):
        start = time.perf_counter()
        assert run(["dist", "--group", "prufer@3", "--sub", "H_0",
                    "--sub", f"H_{10 ** 12}"]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "PRUFER_DISTANCE_DIGITS allows at most 4300" in err
        # 3^9012 has 4300 digits, the most a distance can print
        code, out = run_json(capsys, ["dist", "--group", "prufer@3", "--sub", "H_0",
                                      "--sub", "H_9012"])
        assert code == 0 and out["mu"] == 3 ** 9012 and len(str(out["mu"])) == 4300
        assert run(["dist", "--group", "prufer@3", "--sub", "H_0", "--sub", "H_9013"]) == 1

    def test_usage_error_kz_in_higher_rank(self, capsys):
        assert run(["dist", "--group", "Z^2", "--sub", "3Z",
                    "--sub", "span[(1,0)]"]) == 2

    def test_usage_error_element_arity(self, capsys):
        # an element with the wrong arity, or a bare int in a non-cyclic
        # group, is found while parsing, as inside span[...]
        assert run(["dist", "--group", "Z(12)", "--sub", "gen{(1,2)}",
                    "--sub", "gen{1}"]) == 2
        assert run(["mu", "--group", "Z(2,4)", "--set", "{1}",
                    "--set", "{(0,1)}"]) == 2
        assert run(["mu", "--group", "Z(2,4)", "--set", "{(0,1)}",
                    "--set", "{(1,1,1)}"]) == 2
        assert run(["exp-ball", "--group", "Z(12)", "--radius", "(1,2)"]) == 2
        assert "needs 1 coordinates, got 2" in capsys.readouterr().err

    @pytest.mark.parametrize("group, spelling", [
        ("Z(4,2)", "Z(2,4)"), ("Z(4)xZ(2)", "Z(2,4)"), ("Z(2,3)", "Z(6)"),
        ("Z(1)", "the trivial group")])
    def test_usage_error_orders_not_a_chain(self, capsys, group, spelling):
        # elements are read in the coordinates the orders give: Z(4,2) was once
        # read as Z(2,4), where (2,0) is the identity
        for argv in (["dist", "--group", group, "--sub", "gen{(2,0)}", "--sub", "gen{(0,1)}"],
                     ["exp-ball", "--group", group, "--radius", "(1,1)"]):
            assert run(argv) == 2
            assert capsys.readouterr() == ("", (
                "usage error: group orders must form a divisibility chain m1 | m2 | ... "
                f"of integers >= 2: {group!r} is {spelling}\n"))

    def test_chain_orders_read_as_written(self, capsys):
        # in Z/2 + Z/4, two distinct subgroups of order 2 that meet trivially
        for group in ("Z(2,4)", "Z(2)xZ(4)"):
            code, out = run_json(capsys, ["dist", "--group", group, "--sub", "gen{(1,0)}",
                                          "--sub", "gen{(0,2)}"])
            assert code == 0 and out["mu"] == 2

    @pytest.mark.parametrize("empty", ["{}", "{ }", "{,}"])
    def test_usage_error_empty_mu_set(self, capsys, empty):
        for sets in ((empty, "{0}"), ("{0}", empty)):
            code = run(["mu", "--group", "Z(6)", "--set", sets[0], "--set", sets[1]])
            out, err = capsys.readouterr()
            assert code == 2 and out == ""
            assert "usage error: mu needs nonempty sets" in err

    def test_usage_error_negative_level(self, capsys):
        assert run(["dist", "--group", "prufer@2", "--sub", "H_-1@2",
                    "--sub", "H_1@2"]) == 2
        assert run(["dist", "--group", "Z", "--sub", "-2Z",
                    "--sub", "2Z"]) == 2

    def test_domain_error_lz_ball_over_budget(self, capsys):
        assert run(["ball", "--family", "LZ-log", "--n", "1",
                    "--K", "1000000000"]) == 1
        assert run(["ball", "--family", "LZ-exp", "--n", "1000000",
                    "--m", "1000000000"]) == 1
        assert "LZ enumeration allows at most" in capsys.readouterr().err

    def test_domain_error_exp_ball_over_limit(self, capsys):
        assert run(["exp-ball", "--group", "Z(64)",
                    "--radius", "1,2,3,4,5,6"]) == 1
        assert "radius ball has 13 points" in capsys.readouterr().err

    def test_usage_error_option_the_suite_lacks(self, capsys):
        assert run(["verify", "--suite", "tree", "--max-coord", "3"]) == 2
        assert run(["verify", "--suite", "all", "--max-coord", "3"]) == 2

    @pytest.mark.parametrize("suite, value", [("hamming", "19"), ("iota", "256"),
                                              ("iota", "99999")])
    def test_usage_error_grid_past_the_limit(self, capsys, suite, value):
        start = time.perf_counter()
        assert run(["verify", "--suite", suite, "--max-coord", value]) == 2
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "GRID_LIMIT allows at most 65536" in err

    @pytest.mark.parametrize("suite, value", [("iota", "0"), ("hamming", "-3")])
    def test_usage_error_max_coord_below_one(self, capsys, suite, value):
        assert run(["verify", "--suite", suite, "--max-coord", value]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--max-coord must be >= 1" in err

    def test_usage_error_lz_log_n_below_one(self, capsys):
        assert run(["ball", "--family", "LZ-log", "--n", "0", "--K", "2"]) == 2
        assert "usage error: --n must be >= 1" in capsys.readouterr().err

    def test_usage_error_prufer_negative_level(self, capsys):
        assert run(["ball", "--family", "prufer", "--p", "2", "--n", "-1",
                    "--K", "2"]) == 2
        assert "usage error: --n must be >= 0" in capsys.readouterr().err

    def test_usage_error_component_n_below_one(self, capsys):
        assert run(["component", "--family", "Z^n", "--n", "0"]) == 2
        assert "usage error: --n must be >= 1" in capsys.readouterr().err

    def test_lz_exp_radius_zero_stays_valid(self, capsys):
        code, out = run_json(capsys, ["ball", "--family", "LZ-exp", "--n", "3",
                                      "--m", "0"])
        assert code == 0 and out["members"] == ["3Z"]

    @pytest.mark.parametrize("desc", [
        [1, 2],
        {"divisible": 3},
        {"reduced_torsion": {"2": 5}},
        {"reduced_torsion": {"2": {"kind": "finite", "order": "8"}}},
        {"free_rank": True},
        {"divisible": {"prufer": {"2": True}}},
        # one prime written twice
        {"divisible": {"prufer": {"2": 1, "02": 2}}},
        {"reduced_torsion": {"3": {"kind": "layerly_finite"},
                             "03": {"kind": "not_layerly_finite"}}},
    ])
    def test_domain_error_malformed_descriptor(self, capsys, tmp_path, desc):
        path = tmp_path / "desc.json"
        path.write_text(json.dumps(desc))
        assert run(["profile", "--descriptor", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize("depth", [990, 3000])
    def test_domain_error_deeply_nested_descriptor(self, capsys, tmp_path, depth):
        # 3000 levels stop json.load, 990 the recursive cardinal decoder
        path = tmp_path / "desc.json"
        path.write_text('{"free_rank": ' + '{"two_to_the": ' * depth + "0"
                        + "}" * depth + "}")
        assert run(["profile", "--descriptor", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
        assert "Traceback" not in err

    def test_domain_error_missing_file(self, capsys):
        assert run(["profile", "--descriptor", "/nonexistent.json"]) == 1

    def test_usage_error_component_without_n(self, capsys):
        assert run(["component", "--family", "Z^n"]) == 2
        assert "Z^n needs --n" in capsys.readouterr().err

    def test_usage_error_saturate_outside_zn(self, capsys):
        assert run(["saturate", "--group", "Z(4)", "--sub", "gen{1}"]) == 2
        assert run(["saturate", "--group", "prufer@2", "--sub", "H_1@2"]) == 2

    def test_usage_error_infinite_group_for_finite_commands(self, capsys):
        assert run(["exp-ball", "--group", "Z", "--radius", "1"]) == 2
        assert run(["mu", "--group", "Z^2", "--set", "{0}", "--set", "{1}"]) == 2
        assert "needs a finite group" in capsys.readouterr().err

    @pytest.mark.parametrize("base", ["1", "0.5", "-2", "nan", "inf"])
    def test_usage_error_bad_base(self, capsys, base):
        for argv in (["dist", "--group", "Z", "--sub", "2Z", "--sub", "3Z"],
                     ["mu", "--group", "Z(6)", "--set", "{0}", "--set", "{3}"]):
            code, out = run_json(capsys, argv + ["--base", base])
            assert code == 2 and out is None

    @pytest.mark.parametrize("env", ["abc", "1", "nan", "inf"])
    def test_usage_error_bad_env_base(self, capsys, monkeypatch, env):
        monkeypatch.setenv("BALLEAN_LOG_BASE", env)
        code, out = run_json(capsys, ["dist", "--group", "Z",
                                      "--sub", "2Z", "--sub", "3Z"])
        assert code == 2 and out is None
