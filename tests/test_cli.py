"""Tests for the command line front end: parsing, dispatch, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import extcrystal.cli as cli
import extcrystal.verify as verify
from extcrystal.extended import ExtElement, ExtendedCrystal
from extcrystal.msegment import parse_multisegment

DEMO = "(3,-4),(1,-2),(3,-2),2*(2,-1),(2,1),(1,2),(2,3),2*(3,4),(2,5),(2,7)"

GRAPH_DOT = """digraph extended_crystal {
  0 [label="1"];
  1 [label="0:[1]"];
  2 [label="1:[1]"];
  3 [label="0:2*[1]"];
  4 [label="1:[1];0:[1]"];
  5 [label="1:2*[1]"];
  0 -> 1 [label="(1,0)"];
  0 -> 2 [label="(1,1)"];
  1 -> 3 [label="(1,0)"];
  1 -> 4 [label="(1,1)"];
  2 -> 0 [label="(1,0)"];
  2 -> 5 [label="(1,1)"];
  5 -> 2 [label="(1,0)"];
}"""


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out.rstrip("\n"), captured.err


def test_apply_lowering_on_highest(capsys):
    code, out, _ = run_cli(capsys, "apply", "F", "", "1", "0", "--n", "1")
    assert (code, out) == (0, "0:[1]")


def test_apply_raising_is_total(capsys):
    code, out, _ = run_cli(capsys, "apply", "E", "", "1", "5", "--n", "1")
    assert (code, out) == (0, "6:[1]")


def test_apply_segment_to_node(capsys):
    code, out, _ = run_cli(capsys, "apply", "gamma", "0:[1,3]", "--n", "3")
    assert (code, out) == (0, "(3,2)")


def test_apply_node_to_segment(capsys):
    code, out, _ = run_cli(capsys, "apply", "gammainv", "(3,2)", "--n", "3")
    assert (code, out) == (0, "0:[1,3]")


def test_apply_round_trip_through_both_models(capsys):
    text = "1:[1,2];0:[2],[1]"
    code, out, _ = run_cli(capsys, "apply", "gamma", text, "--n", "3")
    assert code == 0
    code, back, _ = run_cli(capsys, "apply", "gammainv", out, "--n", "3")
    assert (code, back) == (0, text)


def test_apply_star_operators(capsys):
    # the dual lowering at slot 0 mirrors the plain raising at slot -1,
    # which feeds slot 0 on the highest element
    code, out, _ = run_cli(capsys, "apply", "Fstar", "", "1", "0", "--n", "2")
    assert (code, out) == (0, "0:[1]")
    code, out, _ = run_cli(capsys, "apply", "star", "[1,2]", "--n", "2")
    assert (code, out) == (0, "[2],[1]")


def test_apply_shift_and_starflip(capsys):
    code, out, _ = run_cli(capsys, "apply", "shift", "0:[1]", "2", "--n", "1")
    assert (code, out) == (0, "2:[1]")
    code, out, _ = run_cli(capsys, "apply", "starflip", "0:[1];1:[1,2]", "--n", "2")
    assert (code, out) == (0, "0:[1];-1:[2],[1]")


def test_apply_node_model_operator(capsys):
    code, out, _ = run_cli(capsys, "apply", "Fhl", DEMO, "1", "0", "--n", "3")
    assert code == 0
    assert out == DEMO.replace("2*(3,4)", "(3,4)")


def test_apply_json_format(capsys):
    code, out, _ = run_cli(capsys, "apply", "F", "", "1", "0", "--n", "1", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"result": "0:[1]"}


# per operator: one valid call (target, integer arguments, rank) and its output
APPLY_CASES = {
    "F": ("", ("1", "0"), "2", "0:[1]"),
    "E": ("0:[1]", ("1", "0"), "2", "1"),
    "Fstar": ("", ("1", "0"), "2", "0:[1]"),
    "Estar": ("1:[1];0:[1,2]", ("1", "1"), "2", "1:[1];0:[1,2],[1]"),
    "Fhl": (DEMO, ("1", "0"), "3", DEMO.replace("2*(3,4)", "(3,4)")),
    "Ehl": (DEMO, ("1", "-1"), "3", "(3,-4),(3,-2),3*(2,-1),(2,1),(1,2),(2,3),2*(3,4),(2,5),(2,7)"),
    "shift": ("0:[1]", ("2",), "1", "2:[1]"),
    "starflip": ("0:[1];1:[1,2]", (), "2", "0:[1];-1:[2],[1]"),
    "gamma": ("0:[1,3]", (), "3", "(3,2)"),
    "gammainv": ("(3,2)", (), "3", "0:[1,3]"),
    "star": ("[1,2]", (), "2", "[2],[1]"),
}


@pytest.mark.parametrize("op", cli.OPS)
def test_every_apply_operator_gives_its_result_and_refuses_a_wrong_arity(capsys, op):
    target, ints, n, want = APPLY_CASES[op]
    assert run_cli(capsys, "apply", op, target, *ints, "--n", n) == (0, want, "")
    wrong = ints[1:] if ints else ("1",)
    code, out, err = run_cli(capsys, "apply", op, target, *wrong, "--n", n)
    assert (code, out) == (2, "")
    assert err == f"error: operator {op} takes {len(ints)} integer argument(s), got {len(wrong)}\n"


def test_apply_parse_error_exits_2(capsys):
    code, _out, err = run_cli(capsys, "apply", "F", "0:[zz]", "1", "0", "--n", "1")
    assert code == 2
    assert "position" in err


def test_apply_wrong_arity_exits_2(capsys):
    code, _out, err = run_cli(capsys, "apply", "F", "", "1", "--n", "1")
    assert code == 2
    assert "argument" in err


def test_apply_missing_rank_exits_2(capsys):
    code, _out, _err = run_cli(capsys, "apply", "F", "", "1", "0")
    assert code == 2


def test_apply_unknown_operator_exits_2(capsys):
    code, _out, _err = run_cli(capsys, "apply", "Q", "", "1", "0", "--n", "1")
    assert code == 2


def test_bad_window_exits_2(capsys):
    code, _out, _err = run_cli(capsys, "verify", "inverse-pairs", "--n", "1", "--window", "2..-2")
    assert code == 2


def test_negative_window_is_accepted(capsys):
    code, out, _ = run_cli(capsys, "verify", "inverse-pairs", "--n", "1", "--window", "-1..0", "--ht", "2")
    assert code == 0
    assert "PASS" in out


def test_help_exits_0(capsys):
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0
    assert "apply" in out


def test_no_arguments_exits_2(capsys):
    code, _out, _err = run_cli(capsys)
    assert code == 2


def test_graph_dot_frozen(capsys):
    code, out, _ = run_cli(capsys, "graph", "", "--n", "1", "--window", "0..1", "--ht", "2")
    assert code == 0
    assert out == GRAPH_DOT


def test_graph_is_deterministic(capsys):
    _, first, _ = run_cli(capsys, "graph", "", "--n", "2", "--window", "-1..1", "--ht", "3")
    _, second, _ = run_cli(capsys, "graph", "", "--n", "2", "--window", "-1..1", "--ht", "3")
    assert first == second


def test_graph_json_structure(capsys):
    code = cli.main(["graph", "", "--n", "1", "--window", "0..1", "--ht", "1", "--format", "json"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.endswith("}\n") and not out.endswith("\n\n")
    doc = json.loads(out)
    assert len(doc["nodes"]) == 3
    assert {(e["src"], e["dst"], e["i"], e["k"]) for e in doc["edges"]} == {
        (0, 1, 1, 0),
        (0, 2, 1, 1),
        (2, 0, 1, 0),
    }


def test_graph_text_header(capsys):
    code, out, _ = run_cli(capsys, "graph", "", "--n", "1", "--window", "0..1", "--ht", "1", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "nodes 3 edges 3"


def test_graph_text_prints_the_recorded_output(capsys):
    golden = Path(__file__).parent / "golden" / "graph-rank2-text.txt"
    code = cli.main(["graph", "", "--n", "2", "--window", "-1..1", "--ht", "3", "--format", "text"])
    assert (code, capsys.readouterr().out) == (0, golden.read_text(encoding="utf-8"))


def test_graph_out_file_matches_stdout(tmp_path, capsys):
    target = tmp_path / "graph.dot"
    code, _out, _ = run_cli(capsys, "graph", "", "--n", "1", "--window", "0..1", "--ht", "2", "--out", str(target))
    assert code == 0
    assert target.read_text().rstrip("\n") == GRAPH_DOT


def test_graph_unwritable_path_exits_3(capsys):
    code, _out, err = run_cli(capsys, "graph", "", "--n", "1", "--window", "0..1", "--ht", "1",
                              "--out", "/nonexistent-dir/x.dot")
    assert code == 3
    assert "error" in err


def test_graph_bad_seed_exits_2(capsys):
    code, _out, _err = run_cli(capsys, "graph", "0:[5]", "--n", "1", "--window", "0..1", "--ht", "2")
    assert code == 2


def test_verify_pass_reports_size(capsys):
    code, out, _ = run_cli(capsys, "verify", "inverse-pairs", "--n", "2", "--window", "-1..1", "--ht", "3")
    assert code == 0
    assert out.startswith("inverse-pairs: PASS (")


def test_verify_unknown_suite_exits_2(capsys):
    code, _out, _err = run_cli(capsys, "verify", "nosuch", "--n", "1")
    assert code == 2


def test_verify_failure_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_all", lambda cfg, names: [(name, 1, ["prop: n=1 i=1 k=0 elem='1'"]) for name in names])
    code, out, _ = run_cli(capsys, "verify", "inverse-pairs", "--n", "1")
    assert code == 1
    assert "FAIL" in out
    assert "counterexample" in out


def test_a_check_that_raises_exits_4_after_the_suites_before_it(monkeypatch, capsys):
    def crash(cfg, item):
        raise AssertionError("raised is not None")

    suite = verify._SUITES["inverse-pairs"]
    monkeypatch.setitem(verify._SUITES, "inverse-pairs", suite._replace(check=crash))
    code, out, err = run_cli(capsys, "verify", "all", "--n", "1", "--window", "0..0", "--ht", "1")
    assert code == 4
    assert err == "error: internal: AssertionError: raised is not None\n"
    assert out.splitlines() == ["crystal-axioms: PASS (10000 items)", "reduce-confluence: PASS (10000 items)"]


def test_an_operator_writing_past_the_rank_exits_4_after_the_suites_before_it(monkeypatch, capsys):
    # star-identities lowers the flipped element, which validates it: a ValueError
    # raised by the program's own result, not by the input
    monkeypatch.setattr(ExtendedCrystal, "star_flip", lambda self, c: ExtElement(((0, parse_multisegment("[1,2]")),)))
    code, out, err = run_cli(capsys, "verify", "all", "--n", "1", "--window", "0..0", "--ht", "1")
    assert (code, err) == (4, "error: internal: ValueError: segment [1,2] does not fit inside rank 1\n")
    assert out.splitlines() == [
        "crystal-axioms: PASS (10000 items)",
        "reduce-confluence: PASS (10000 items)",
        "inverse-pairs: PASS (2 items)",
        "counters: PASS (2 items)",
        "weights: PASS (2 items)",
    ]


def test_verify_refuses_a_rank_past_the_limit_before_it_sweeps(monkeypatch, capsys):
    def sweep(cfg, names):
        raise AssertionError("swept")

    monkeypatch.setattr(cli, "run_all", sweep)
    code, out, err = run_cli(capsys, "verify", "all", "--n", "65", "--window", "0..0", "--ht", "1")
    assert (code, out, err) == (2, "", "error: rank must be an integer between 1 and 64, got 65\n")


RANK_0 = "rank must be an integer between 1 and 64, got 0"
HT = "height bound must be non-negative"
WINDOW = "empty slot window 1..0"
SEED = "seed must fit in 64 unsigned bits"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("apply", "F", "", "1", "0", "--n", "0"), RANK_0),
        (("graph", "", "--n", "0"), RANK_0),
        (("verify", "all", "--n", "0", "--window", "0..0", "--ht", "1"), RANK_0),
        (("verify", "all", "--n", "2", "--window", "0..0", "--ht", "-1"), HT),
        (("graph", "", "--n", "2", "--ht", "-1"), HT),
        (("verify", "all", "--n", "2", "--window", "1..0", "--ht", "1"), WINDOW),
        (("graph", "", "--n", "2", "--window", "1..0"), WINDOW),
        (("verify", "all", "--n", "2", "--window", "0..0", "--ht", "1", "--seed", "-1"), SEED),
        (("verify", "all", "--n", "2", "--window", "0..0", "--ht", "1", "--seed", str(2**64)), SEED),
    ],
)
def test_out_of_range_values_are_refused_with_the_library_message(monkeypatch, capsys, argv, message):
    def sweep(cfg, names):
        raise AssertionError("swept")

    monkeypatch.setattr(cli, "run_all", sweep)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_verify_jobs_flag_keeps_output_stable(capsys):
    args = ("verify", "cr-commutation", "--n", "2", "--window", "-1..1", "--ht", "3")
    _, serial, _ = run_cli(capsys, *args, "--jobs", "1")
    for jobs in ("3", "0", "-3"):
        _, out, _ = run_cli(capsys, *args, "--jobs", jobs)
        assert out == serial, jobs


def test_verify_sweeps_wide_inputs_without_recursion(capsys):
    # 1275 segments at rank 50 and 1101 slots: each once a level of recursion
    code, out, _ = run_cli(capsys, "verify", "inverse-pairs", "--n", "50", "--window", "0..0", "--ht", "0")
    assert (code, out) == (0, "inverse-pairs: PASS (1 items)")
    code, out, _ = run_cli(capsys, "verify", "inverse-pairs", "--n", "1", "--window", "0..1100", "--ht", "0")
    assert (code, out) == (0, "inverse-pairs: PASS (1 items)")
    # the sig-seq items were recursive too, and its check cost grew with the
    # height; `verify sig-seq --n 1 --window 0..0 --ht 1200` (721 801 items)
    # now takes about 30 s on a 2-core VM, too long for this suite
    code, out, _ = run_cli(capsys, "verify", "sig-seq", "--n", "1", "--window", "0..0", "--ht", "200")
    assert (code, out) == (0, "sig-seq: PASS (20301 items)")


def test_demo_replay(capsys):
    code, out, _ = run_cli(capsys, "demo-n3")
    assert code == 0
    assert "++ . . . + ." in out
    assert ". - ++ . . ." in out
    assert out.count("check: PASS") == 2
    assert out.rstrip().endswith("overall: PASS")


def test_demo_prints_the_recorded_output(capsys):
    golden = Path(__file__).parent / "golden" / "demo-n3.txt"
    code = cli.main(["demo-n3"])
    assert (code, capsys.readouterr().out) == (0, golden.read_text(encoding="utf-8"))


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "extcrystal", "apply", "F", "", "1", "0", "--n", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0:[1]"


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # the modules a fresh interpreter holds after the statement, against a bare start
    probe = "{}; import sys; print(' '.join(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

    def loaded(statement):
        run = subprocess.run([sys.executable, "-c", probe.format(statement)], capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        return set(run.stdout.split())

    bare = loaded("pass")
    added = loaded("import extcrystal.cli") - bare
    assert "extcrystal.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_apply_star_deep_input_round_trips(capsys):
    # 1200 boxes: far deeper than any recursion limit would allow
    target = "400*[1,2],400*[2]"
    code, out, _ = run_cli(capsys, "apply", "star", target, "--n", "2")
    assert code == 0
    code, back, _ = run_cli(capsys, "apply", "star", out, "--n", "2")
    assert (code, back) == (0, target)


def test_apply_huge_multiplicities_are_exact(capsys):
    # multiplicities past the machine word are counted, never expanded
    big = 99999999999999999999
    code, out, _ = run_cli(capsys, "apply", "F", f"0:{big}*[1]", "1", "0", "--n", "1")
    assert (code, out) == (0, f"0:{big + 1}*[1]")
    code, out, _ = run_cli(capsys, "apply", "gamma", f"0:{big}*[1,2]", "--n", "2")
    assert (code, out) == (0, f"{big}*(2,1)")
    code, out, _ = run_cli(capsys, "apply", "gammainv", f"{big}*(2,1)", "--n", "2")
    assert (code, out) == (0, f"0:{big}*[1,2]")
    code, out, _ = run_cli(capsys, "apply", "star", f"{big}*[1,2]", "--n", "2")
    assert (code, out) == (0, f"{big}*[2],{big}*[1]")
    code, out, _ = run_cli(capsys, "apply", "star", out, "--n", "2")
    assert (code, out) == (0, f"{big}*[1,2]")
    code, _, err = run_cli(capsys, "apply", "F", f"0:{big}*[1,3]", "1", "0", "--n", "2")
    assert code == 2 and "segment [1,3] does not fit inside rank 2" in err


def test_gammainv_refuses_a_node_past_the_rank(capsys):
    code, out, err = run_cli(capsys, "apply", "gammainv", "(1,0),(4,1)", "--n", "3")
    assert (code, out, err) == (2, "", "error: node (4,1) out of range for rank 3\n")


def test_apply_refuses_digits_outside_0_to_9(capsys):
    code, out, err = run_cli(capsys, "apply", "gammainv", "(١,٠)", "--n", "3")
    assert (code, out) == (2, "") and "position 1: expected an integer" in err
    code, out, err = run_cli(capsys, "apply", "shift", "1_0:[1]", "1", "--n", "3")
    assert (code, out) == (2, "") and "position 0: invalid slot index '1_0'" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("apply", "shift", "1:[1]", "١", "--n", "2"),
        ("apply", "shift", "1:[1]", "-١", "--n", "2"),
        ("apply", "F", "", "1", "0", "--n", "٣"),
        ("verify", "sl2", "--n", "١", "--window", "0..0", "--ht", "1"),
        ("verify", "sl2", "--n", "1_0", "--window", "0..0", "--ht", "1"),
        ("verify", "sl2", "--n", "1", "--window", "٠..٠", "--ht", "1"),
        ("verify", "sl2", "--n", "1", "--window", "-١..0", "--ht", "1"),
        ("verify", "sl2", "--n", "1", "--window", "0..0", "--ht", "٢"),
        ("verify", "sl2", "--n", "1", "--window", "0..0", "--ht", "1", "--seed", "٣"),
        ("verify", "sl2", "--n", "1", "--window", "0..0", "--ht", "1", "--jobs", "٢"),
        ("graph", "", "--n", "1", "--window", "0..0", "--ht", "1_0"),
    ],
)
def test_integer_arguments_refuse_digits_outside_0_to_9(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "error: argument" in err


NINES = "9" * 5000  # more digits than int() converts


@pytest.mark.parametrize(
    "argv, flag",
    [
        (("apply", "shift", "1:[1]", NINES, "--n", "2"), "ints"),
        (("verify", "sl2", "--n", "1", "--window", f"0..{NINES}", "--ht", "1"), "--window"),
    ],
)
def test_integer_arguments_with_too_many_digits_get_the_grammar_message(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"extcrystal {argv[0]}: error: argument {flag}: integer has too many digits"


def test_integer_arguments_take_a_sign(capsys):
    assert run_cli(capsys, "apply", "shift", "1:[1]", "-1", "--n", "2")[:2] == (0, "0:[1]")
    assert run_cli(capsys, "apply", "shift", "1:[1]", "+1", "--n", "2")[:2] == (0, "2:[1]")
    args = ("verify", "sl2", "--n", "+1", "--window", "-1..+0", "--ht", "+1", "--seed", "+3", "--jobs", "-2")
    assert run_cli(capsys, *args)[:2] == (0, "sl2: PASS (4 items)")


def test_verify_all_at_rank_3_prints_the_recorded_output(capsys):
    golden = Path(__file__).parent / "golden" / "verify-all-rank3-seed1.txt"
    code = cli.main(["verify", "all", "--n", "3", "--window", "-1..0", "--ht", "3", "--seed", "1"])
    assert (code, capsys.readouterr().out) == (0, golden.read_text(encoding="utf-8"))


def test_out_of_rank_segment_is_refused_before_it_is_built(capsys):
    # [1,100000] sits at position 5e9 of a multiplicity tuple; the rank check
    # comes first, with the message validate gives for a small segment
    code, _, err = run_cli(capsys, "apply", "star", "[1,100000]", "--n", "2")
    assert code == 2 and err == "error: segment [1,100000] does not fit inside rank 2\n"
    code, _, err = run_cli(capsys, "apply", "F", "0:[1,100000]", "1", "0", "--n", "2")
    assert code == 2 and "position 0: segment [1,100000] does not fit inside rank 2" in err
    code, _, err = run_cli(capsys, "graph", "1:[1];0:[1,100000]", "--n", "2")
    assert code == 2 and "position 0: segment [1,100000] does not fit inside rank 2" in err
    # a syntax error in a later chunk is still reported first
    code, _, err = run_cli(capsys, "apply", "F", "0:[1,100000];1:[x]", "1", "0", "--n", "2")
    assert code == 2 and "position 16: expected an integer" in err
