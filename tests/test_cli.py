"""End-to-end exercises of the command-line front end."""

import hashlib
import json
import pathlib
import re
import subprocess
import sys
from math import comb

import pytest

from colorlattice import (CapExceededError, LatticeError, NotIsomorphicError,
                          QPolynomial)
from colorlattice.cli import main
from colorlattice.snakes import _TILINGS_CAP
from colorlattice.verify import _suite_catalan
from helpers import module_env


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# Each entry is one ``main(argv)`` call with its exit code, stdout and stderr:
# every family's solve (text and --json, both --via, zero-move ones too),
# listing and export, every refusal, and each --help at 80 columns.  An
# intended output change rewrites the entries it affects, and only those.
GOLDEN = json.loads((pathlib.Path(__file__).parent / "data"
                     / "cli_golden.json").read_text())
FAMILY_ARGS = [pytest.param(family, extra, id=family) for family, extra in (
    ("mixedmiddleswitch", ()), ("domino-ballot", ("--k", "2")),
    ("domino-staircase", ("--k", "2")), ("domino-full", ("--k", "2")),
    ("snakes", ()))]


@pytest.mark.parametrize("entry", GOLDEN, ids=lambda e: " ".join(
    a if len(a) <= 12 else a[:9] + "..." for a in e["argv"]))
def test_output_matches_the_golden_record(capsys, monkeypatch, entry):
    monkeypatch.setenv("COLUMNS", "80")    # argparse wraps help to the terminal
    try:
        result = run(capsys, *entry["argv"])
    except SystemExit as done:    # --help exits inside argparse
        out = capsys.readouterr()
        result = done.code, out.out, out.err
    assert result == (entry["code"], entry["stdout"], entry["stderr"])


# ----------------------------------------------------------------- solve

def test_solve_switch_flagship(capsys):
    code, out, _ = run(capsys, "solve", "mixedmiddleswitch", "--n", "5",
                       "--from", "00000", "--to", "01010")
    assert code == 0
    lines = out.splitlines()
    assert "distance=10" in lines
    assert "geodesic shape: mountain" in lines
    assert "00000 --5--> 00001" in lines          # moves in native bit strings
    assert sum(1 for l in lines if "-->" in l) == 10


def test_solve_json_payload_is_complete(capsys):
    code, out, _ = run(capsys, "solve", "snakes", "--n", "4",
                       "--from", "4,4,1,0", "--to", "1,0,0,0", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["family"] == "snakes"
    assert doc["params"] == {"n": 4}
    assert doc["distance"] == 7
    assert doc["path"][0] == "4,4,1,0" and doc["path"][-1] == "1,0,0,0"
    assert len(doc["path"]) == 8
    assert sum(doc["color_counts"].values()) == 7
    assert len(doc["moves"]) == 7
    assert doc["moves"][0]["verb"] in ("add", "remove")


def test_solve_domino_distances_respect_the_board(capsys):
    code, out, _ = run(capsys, "solve", "domino-ballot", "--k", "3", "--n", "3",
                       "--from", "3,2,1", "--to", "0,0,0")
    assert code == 0 and "distance=6" in out
    code, out, _ = run(capsys, "solve", "domino-ballot", "--k", "3", "--n", "3",
                       "--from", "3,2,1", "--to", "2,1,0")
    assert code == 0 and "distance=9" in out


def test_solve_via_meet_reports_a_valley(capsys):
    code, out, _ = run(capsys, "solve", "mixedmiddleswitch", "--n", "4",
                       "--from", "0000", "--to", "1111", "--via", "meet")
    assert code == 0
    assert "geodesic shape: valley" in out


# The solves the CI runs at the caps, between the lattice or board ends
# (min to max through the join, max to min through the meet), with the
# sha256 of their ``--json`` stdout.  The golden record stops at small sizes.
_Z80, _A80 = "0" * 80, "10" * 40
_HI32 = ",".join(map(str, range(32, 0, -1)))
_LO32 = ",".join(map(str, range(31, -1, -1)))
_FULL40 = ",".join(["40"] * 20 + ["0"] * 20)
_EMPTY40 = ",".join(["0"] * 40)
CAP_SOLVES = [
    (("mixedmiddleswitch", "--n", "80", "--from", _Z80, "--to", _A80),
     "e07124d06c2c69e43d243fe35c02a221d61ab37db199dfa08f1249201ae6e314"),
    (("mixedmiddleswitch", "--n", "80", "--from", _A80, "--to", _Z80, "--via", "meet"),
     "fecddc9d68f24fc92b7f75c3c81f675eabfc34ca565e6a2497ae88ed753f0267"),
    (("domino-ballot", "--k", "32", "--n", "32", "--from", _HI32, "--to", _LO32),
     "217a4e0f4442cfc7c1bed8b3806803f4d5741047bb880620f7726439675e346a"),
    (("domino-staircase", "--k", "32", "--n", "32", "--from", _HI32, "--to", _LO32),
     "6e033e435e136962ff08731dd75509dc05214c0bb73d40bfffb049dc314313a9"),
    (("domino-full", "--k", "32", "--n", "32", "--from", _HI32, "--to", _LO32),
     "0a3ce4e42238bc106919341afec28c9b6638e16ceacd421e621e8c988714e11b"),
    (("domino-ballot", "--k", "32", "--n", "32", "--from", _LO32, "--to", _HI32,
      "--via", "meet"),
     "741747f8e5fa16290c1a0aefcd5a3180792d771a9679818f95648865f496b31d"),
    (("domino-staircase", "--k", "32", "--n", "32", "--from", _LO32, "--to", _HI32,
      "--via", "meet"),
     "fabcc50a37c01b66db2b480c7cdd82f3f67a1c1a92500b5a5ee21ff5b1218aa4"),
    (("domino-full", "--k", "32", "--n", "32", "--from", _LO32, "--to", _HI32,
      "--via", "meet"),
     "f868d8d7cdb890f7609f306358d34aded85b904207ee0d8dc8d15094e1651d81"),
    (("snakes", "--n", "40", "--from", _FULL40, "--to", _EMPTY40),
     "8de6b22a96e6e2c59ffe86ee4c6f2d152643b887114fa0dd6442c0a6debdde4d"),
    (("snakes", "--n", "40", "--from", _EMPTY40, "--to", _FULL40, "--via", "meet"),
     "febd559cae0afcec8cf1bb6369f52613a3a59fffa9a1982720c20f542b6b5f50"),
]


@pytest.mark.parametrize("argv, digest", CAP_SOLVES,
                         ids=[f"{a[0]}-{'meet' if 'meet' in a else 'join'}"
                              for a, _ in CAP_SOLVES])
def test_cap_solves_print_the_pinned_bytes(capsys, argv, digest):
    code, out, err = run(capsys, "solve", *argv, "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# ------------------------------------------------------- error channels

def test_unparsable_position_exits_two(capsys):
    code, _, err = run(capsys, "solve", "mixedmiddleswitch", "--n", "5",
                       "--from", "0a0b0", "--to", "01010")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("text", ["3_0,0,0", "+3,0,0", "\u0663,0,0"])
def test_integer_spellings_beyond_ascii_digits_exit_two(capsys, text):
    # int() would read these as 30 and 3: a non-tiling (exit 3) and a tiling
    code, _, err = run(capsys, "solve", "snakes", "--n", "3",
                       "--from", text, "--to", "0,0,0")
    assert code == 2
    assert "not a comma-separated integer tuple" in err


def test_wrong_length_position_is_a_non_member(capsys):
    # parses fine as bits, but is no position of the five-switch game
    code, _, err = run(capsys, "solve", "mixedmiddleswitch", "--n", "5",
                       "--from", "000", "--to", "01010")
    assert code == 3


def test_well_formed_non_member_exits_three(capsys):
    # parses as a partition but breaks the ballot row bounds
    code, _, err = run(capsys, "solve", "domino-ballot", "--k", "3", "--n", "3",
                       "--from", "3,3,0", "--to", "0,0,0")
    assert code == 3
    assert "error:" in err


def test_non_tiling_exits_three(capsys):
    code, _, _ = run(capsys, "solve", "snakes", "--n", "4",
                     "--from", "1,1,0,0", "--to", "0,0,0,0")
    assert code == 3


def test_bad_flag_values_exit_two_via_argparse(capsys):
    with pytest.raises(SystemExit) as info:
        main(["export", "--family", "mixedmiddleswitch", "--n", "3",
              "--format", "svg"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        main(["solve", "tangram", "--n", "3", "--from", "0", "--to", "1"])
    assert info.value.code == 2


def test_oversize_instances_are_refused(capsys):
    code, _, err = run(capsys, "solve", "mixedmiddleswitch", "--n", "81",
                       "--from", "0" * 81, "--to", "1" * 81)
    assert code == 2
    assert "2 <= n <= 80" in err
    code, _, err = run(capsys, "solve", "domino-ballot", "--k", "3", "--n", "33",
                       "--from", "0,0,0", "--to", "1,0,0")
    assert code == 2
    assert "up to n=32" in err
    code, _, err = run(capsys, "solve", "snakes", "--n", "41",
                       "--from", ",".join("0" * 41), "--to", "1" + ",0" * 40)
    assert code == 2
    assert "1 <= n <= 40" in err


@pytest.mark.parametrize("argv", [
    ("enumerate", "mixedmiddleswitch", "--n", "13"),
    ("export", "--family", "mixedmiddleswitch", "--n", "13", "--format", "dot"),
    ("enumerate", "domino-full", "--k", "2", "--n", "7"),
    ("export", "--family", "domino-ballot", "--k", "3", "--n", "7",
     "--format", "dot"),
    ("enumerate", "snakes", "--n", "8"),
    ("export", "--family", "snakes", "--n", "8", "--format", "dot"),
])
def test_listing_commands_keep_the_exhaustive_caps(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "n <= 12" in err or "up to n=6" in err or "1 <= n <= 7" in err


@pytest.mark.parametrize("error", [
    LatticeError("coordinate join left the lattice"),
    AssertionError("move 3: illegal or mismatched result"),
    RecursionError("maximum recursion depth exceeded"),
    NotIsomorphicError("edge 1 -> 2 (color 3) is not preserved"),
    CapExceededError("snake boards capped at 2000 tilings"),
])
def test_internal_errors_exit_four_with_one_line(capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error

    monkeypatch.setattr("colorlattice.solve_mixedmiddleswitch", broken)
    argv = ("solve", "mixedmiddleswitch", "--n", "5",
            "--from", "00000", "--to", "01010")
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert err == f"internal error: {type(error).__name__}: {error}\n"
    code, _, err = run(capsys, *argv, "--debug")
    assert code == 4
    assert err.startswith("Traceback")
    assert err.splitlines()[-1].startswith("internal error: ")


def test_a_reader_closing_stdout_early_exits_141_quietly(tmp_path):
    # the full path is about 550 KB, far more than a pipe buffers, so the
    # solver is still writing when the reader goes away
    env = module_env()
    argv = [sys.executable, "-m", "colorlattice.cli", "solve",
            "mixedmiddleswitch", "--n", "80", "--from", "0" * 80,
            "--to", "10" * 40]
    with open(tmp_path / "err", "wb") as err:
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err,
                                env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=120)
    assert first == b"family=mixedmiddleswitch n=80 via=join\n"
    assert code == 141
    assert (tmp_path / "err").read_bytes() == b""


# ------------------------------------------------------------- export

def test_dot_export_is_deterministic_and_complete(capsys):
    args = ("export", "--family", "mixedmiddleswitch", "--n", "5",
            "--format", "dot")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second
    assert first.count("label=") >= 32 + 48       # every vertex and edge labeled
    assert 'label="01010"' in first               # native bit-string vertex names


def test_snakes_dot_uses_tuple_vertices(capsys):
    code, out, _ = run(capsys, "export", "--family", "snakes", "--n", "3",
                       "--format", "dot")
    assert code == 0
    assert out.startswith("digraph snakes {")
    assert 'label="3,2,1"' in out


@pytest.mark.parametrize("family, extra", FAMILY_ARGS)
def test_dot_vertices_are_the_enumerated_positions(capsys, family, extra):
    code, dot, _ = run(capsys, "export", "--family", family, *extra, "--n", "3",
                       "--format", "dot")
    assert code == 0
    code, listing, _ = run(capsys, "enumerate", family, *extra, "--n", "3")
    assert code == 0
    labels = re.findall(r'^  n\d+ \[label="([^"]*)"\];$', dot, re.MULTILINE)
    assert labels == listing.splitlines()[1:]


@pytest.mark.parametrize("text", ["9,9", "x"])
@pytest.mark.parametrize("fmt", ["dot", "text-board"])
@pytest.mark.parametrize("family, extra", FAMILY_ARGS)
def test_export_refuses_a_from_that_nothing_draws(capsys, family, extra, fmt,
                                                  text):
    code, out, err = run(capsys, "export", "--family", family, *extra,
                         "--n", "2", "--format", fmt, "--from", text)
    if fmt == "text-board" and family == "mixedmiddleswitch":
        want, why = 2, "text-board applies to the board families only"
    elif fmt == "dot" or family != "snakes":
        want, why = 2, "--from applies to the snakes text-board only"
    elif text == "x":    # parsed before its membership is checked
        want, why = 2, "not a comma-separated integer tuple: 'x'"
    else:
        want, why = 3, "--from value is not a tiling of the 2 x 2 board"
    assert (code, out, err) == (want, "", f"error: {why}\n")


def test_board_rendering_shows_checkered_diagonals(capsys):
    code, out, _ = run(capsys, "export", "--family", "domino-ballot",
                       "--k", "5", "--n", "6", "--format", "text-board")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert lines[0].startswith("R3   W3   R4")


def test_snakes_board_needs_a_tiling(capsys):
    code, _, err = run(capsys, "export", "--family", "snakes", "--n", "4",
                       "--format", "text-board")
    assert code == 2 and "--from" in err
    code, out, _ = run(capsys, "export", "--family", "snakes", "--n", "4",
                       "--format", "text-board", "--from", "4,4,1,0")
    assert code == 0
    assert out == "####\n####\n#...\n....\n"


def test_switch_text_board_is_not_a_thing(capsys):
    code, _, _ = run(capsys, "export", "--family", "mixedmiddleswitch",
                     "--n", "4", "--format", "text-board")
    assert code == 2


# ---------------------------------------------------------- enumerate

def test_enumerate_switch_positions(capsys):
    code, out, _ = run(capsys, "enumerate", "mixedmiddleswitch", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family=mixedmiddleswitch n=3 count=8"
    assert set(lines[1:]) == {format(i, "03b") for i in range(8)}


def test_enumerate_tilings_as_json(capsys):
    code, out, _ = run(capsys, "enumerate", "snakes", "--n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 14 == len(doc["objects"])
    assert "0,0,0" in doc["objects"]


def test_enumerate_ballot_partitions(capsys):
    code, out, _ = run(capsys, "enumerate", "domino-ballot", "--k", "3",
                       "--n", "3")
    assert code == 0
    assert out.splitlines()[0].endswith("count=14")


# ------------------------------------------------------------- verify

def test_verify_birkhoff_small_sweep_passes(capsys):
    code, out, _ = run(capsys, "verify", "birkhoff", "--max-n", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert all(row["ok"] for row in doc["checks"])


def test_verify_text_mode_prints_one_line_per_check(capsys):
    code, out, _ = run(capsys, "verify", "minuscule", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert all(l.startswith("[ok]") for l in lines[:-1])
    assert lines[-1].startswith("checks=") and lines[-1].endswith("failures=0")


def test_verify_catches_an_injected_regression(capsys, monkeypatch):
    # a corrupted closed form must flip the sweep to failure, with evidence
    monkeypatch.setattr("colorlattice.verify.closed_rgf_b",
                        lambda n: QPolynomial([1]))
    code, out, _ = run(capsys, "verify", "weyl", "--max-n", "2")
    assert code == 1
    assert "[FAIL]" in out
    assert "counterexample:" in out


def test_verify_catches_a_corrupted_encoding(capsys, monkeypatch):
    # two swapped images keep the encoding a bijection but break its edges
    from colorlattice.switchgame import b_map
    a, b = (1, 0, 0), (2, 0, 0)
    swapped = {a: b_map(b), b: b_map(a)}
    monkeypatch.setattr("colorlattice.verify.b_map",
                        lambda x: swapped.get(tuple(x)) or b_map(x))
    code, out, _ = run(capsys, "verify", "minuscule", "--max-n", "3")
    assert code == 1
    lines = out.splitlines()
    at = lines.index("[FAIL] minuscule: switch rows n=3: game graph matches "
                     "the lattice diagram edge for edge")
    assert lines[at + 1].lstrip().startswith("counterexample: NotIsomorphicError:")


def test_catalan_correspondence_follows_max_n_up_to_the_tiling_cap(capsys):
    def labels(max_n, check):
        return [name for (name, _) in _suite_catalan(max_n) if check in name]

    # n=7 is the largest square board within the tiling cap
    assert comb(16, 8) // 9 <= _TILINGS_CAP < comb(18, 9) // 10
    clamp = "; clamped at n=7, the largest board within the tiling cap"
    for check, last in (("realize", f"correspondence verified{clamp})"),
                        ("counts", f"colors, structure{clamp}")):
        for max_n in (5, 7):
            assert [l.split(":")[0] for l in labels(max_n, check)] == [
                f"square board n={n}" for n in range(1, max_n + 1)]
            assert not any("clamped" in l for l in labels(max_n, check))
        assert len(labels(9, check)) == 7
        assert labels(9, check)[-1].endswith(last)
        assert not any("clamped" in l for l in labels(9, check)[:-1])
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert ("the catalan counts and correspondence stop at n=7, the largest "
            "board within the tiling cap") in " ".join(capsys.readouterr().out.split())
    code, out, _ = run(capsys, "verify", "catalan", "--max-n", "6", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert ("square board n=6: tiling moves realize the lattice (closed-form "
            "correspondence verified)") in [row["name"] for row in doc["checks"]]


@pytest.mark.parametrize("argv, err", [
    (("all", "--max-n", "0"), "error: --max-n 0 builds no check in suite "
     "birkhoff, theorem2, minuscule, symplectic, weyl, catalan; the smallest "
     "that builds one in each is 2\n"),
    (("theorem2", "--max-n", "1"), "error: --max-n 1 builds no check in suite "
     "theorem2; the smallest that builds one in each is 2\n"),
    (("catalan", "--max-n", "-3", "--json"), "error: --max-n -3 builds no "
     "check in suite catalan; the smallest that builds one in each is 1\n"),
])
def test_verify_refuses_a_bound_that_checks_nothing(capsys, argv, err):
    assert run(capsys, "verify", *argv) == (2, "", err)


@pytest.mark.parametrize("argv, code, err", [
    (("theorem2", "--max-n", "1"), 2, "error: --max-n 1 builds no check in "
     "suite theorem2; the smallest that builds one in each is 2\n"),
    (("minuscule", "--max-n", "3", "--json"), 0, ""),
])
def test_verify_under_python_dash_m(argv, code, err):
    # ``-m`` runs the CLI as ``__main__``; the suites must reach it without
    # importing ``colorlattice.cli`` a second time, with its own error classes
    proc = subprocess.run(
        [sys.executable, "-m", "colorlattice.cli", "verify", *argv],
        capture_output=True, text=True, env=module_env(), timeout=120)
    assert (proc.returncode, proc.stderr) == (code, err)
    if code == 0:
        assert json.loads(proc.stdout)["failures"] == 0


def test_verify_runs_every_suite_at_the_smallest_working_bound(capsys):
    code, out, _ = run(capsys, "verify", "all", "--max-n", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["failures"] == 0
    assert {row["suite"] for row in doc["checks"]} == set(doc["suites"])
    code, out, _ = run(capsys, "verify", "weyl", "--max-n", "1")
    assert code == 0
    assert out.splitlines()[-1] == "checks=1 failures=0"


def test_verify_rejects_unknown_suites(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "everything"])
    assert info.value.code == 2
