import contextlib
import csv
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import secwire
from secwire import (
    Alphabet,
    DecoderSpec,
    SideInfoEncoderSpec,
    StochasticEncoderSpec,
    SymbolSequence,
    bsc,
    cli,
    dump_channel,
    dump_fsm,
    dump_sequence,
)


def _h2(p):
    return -(p * math.log2(p) + (1 - p) * math.log2(1 - p))


def _write_seq(path, symbols, size=2):
    dump_sequence(SymbolSequence(Alphabet(size), tuple(symbols)), path)
    return str(path)


def _write_bsc(path, p):
    dump_channel(bsc(p), path)
    return str(path)


def _identity_fsm_files(tmp_path):
    enc = StochasticEncoderSpec(
        k=1,
        m=1,
        in_size=2,
        out_size=2,
        n_states=1,
        emit={(0, 0): [(0, 1.0)], (0, 1): [(1, 1.0)]},
        next_state=np.zeros((1, 2, 1), dtype=int),
    )
    dec = DecoderSpec(
        k=1,
        m=1,
        in_size=2,
        out_size=2,
        n_states=1,
        out_table=np.arange(2).reshape(1, 2, 1),
        next_state=np.zeros((1, 2, 1), dtype=int),
    )
    epath, dpath = tmp_path / "enc.fsm", tmp_path / "dec.fsm"
    dump_fsm(enc, epath)
    dump_fsm(dec, dpath)
    return str(epath), str(dpath)


def test_parse_reports_complexity(tmp_path, capsys):
    seq = _write_seq(tmp_path / "u.seq", (0, 0, 0, 0, 1, 1, 0, 1, 1, 0))
    assert cli.main(["parse", "--seq", seq]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "parse"
    assert doc["config"]["seq"] == seq
    assert doc["config"]["threads"] == 1
    res = doc["results"]
    assert res["n"] == 10
    assert res["alphabet"] == 2
    assert res["c"] == 6
    assert res["last_incomplete"] is True
    assert res["rho"] > 0


def test_parse_with_side_and_phrases(tmp_path, capsys):
    seq = _write_seq(tmp_path / "u.seq", (0, 1, 0, 0, 0, 1))
    side = _write_seq(tmp_path / "w.seq", (0, 1, 0, 1, 0, 1))
    assert cli.main(["parse", "--seq", seq, "--side", side, "--phrases"]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert len(res["phrases"]) == res["c"]
    assert res["c_joint"] == 4
    assert res["c_w"] == 3
    assert res["multiplicities"] == [1, 1, 2]
    assert math.isclose(res["rho_conditional"], 1 / 3)


def test_capacity_secrecy_closed_form(tmp_path, capsys):
    main = _write_bsc(tmp_path / "m.ch", 0.1)
    wire = _write_bsc(tmp_path / "w.ch", 0.1)
    assert cli.main(["capacity", "--main", main, "--wiretap", wire]) == 0
    res = json.loads(capsys.readouterr().out)["results"]
    assert res["kind"] == "secrecy"
    assert abs(res["value"] - (_h2(0.18) - _h2(0.1))) < 1e-6
    assert res["certified_gap"] <= 1e-8


def test_capacity_gamma_requires_wiretap(tmp_path, capsys):
    main = _write_bsc(tmp_path / "m.ch", 0.1)
    assert cli.main(["capacity", "--main", main, "--gamma", "0.1"]) == 2
    assert "validation error" in capsys.readouterr().err


def test_capacity_nan_channel_exits_2(tmp_path, capsys):
    main = tmp_path / "m.ch"
    main.write_text("channel 2 2\nnan 0.5\n0.5 0.5\n", encoding="utf-8")
    wire = _write_bsc(tmp_path / "w.ch", 0.1)
    assert cli.main(["capacity", "--main", str(main), "--wiretap", wire]) == 2
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "extra, message",
    [
        (["--tol", "nan"], "tolerance must be positive, got nan"),
        (["--wiretap", "w.ch", "--tol", "-1"], "tolerance must be positive, got -1.0"),
        (["--wiretap", "w.ch", "--gamma", "0.1", "--tol", "nan"], "tolerance must be positive, got nan"),
        (["--wiretap", "w.ch", "--gamma", "nan"], "rate must be nonnegative, got nan"),
    ],
)
def test_capacity_rejects_bad_solver_arguments(tmp_path, capsys, monkeypatch, extra, message):
    monkeypatch.chdir(tmp_path)
    _write_bsc(tmp_path / "m.ch", 0.05)
    _write_bsc(tmp_path / "w.ch", 0.15)
    assert cli.main(["capacity", "--main", "m.ch", *extra]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"secwire: validation error: {message}\n"


def test_non_utf8_sequence_exits_2(tmp_path, capsys):
    seq = tmp_path / "u.seq"
    seq.write_bytes(b"alphabet 2\n0 1 \xff\xfe 1\n")
    assert cli.main(["parse", "--seq", str(seq)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and str(seq) in err


def test_non_utf8_channel_exits_2(tmp_path, capsys):
    main = tmp_path / "m.ch"
    main.write_bytes(b"channel 2 2\n0.9 0.1\n\xff 0.9\n")
    assert cli.main(["capacity", "--main", str(main)]) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and str(main) in err


def test_non_utf8_fsm_exits_2(tmp_path, capsys):
    enc, dec = _identity_fsm_files(tmp_path)
    with open(enc, "ab") as fh:
        fh.write(b"# \xff\n")
    main, wire = _write_bsc(tmp_path / "m.ch", 0.05), _write_bsc(tmp_path / "w.ch", 0.2)
    seq = _write_seq(tmp_path / "u.seq", (0, 1, 1, 0))
    argv = ["simulate", "--enc", enc, "--dec", dec, "--main", main, "--wiretap", wire,
            "--seq", seq, "--trials", "2", "--seed", "1"]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert "validation error" in err and enc in err


def test_missing_file_exits_2(tmp_path, capsys):
    missing = str(tmp_path / "nope.seq")
    assert cli.main(["parse", "--seq", missing]) == 2
    assert missing in capsys.readouterr().err


def test_usage_error_exits_64(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["parse"])
    assert exc.value.code == 64
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 64


def test_enumeration_budget_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(0)
    seq = _write_seq(tmp_path / "u.seq", rng.integers(0, 2, 30))
    main = _write_bsc(tmp_path / "m.ch", 0.1)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    enc, dec = _identity_fsm_files(tmp_path)
    rc = cli.main(
        [
            "simulate",
            "--enc", enc, "--dec", dec,
            "--main", main, "--wiretap", wire,
            "--seq", seq, "--trials", "2", "--seed", "1",
            "--exact-leakage",
        ]
    )
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err


def test_out_writes_file(tmp_path, capsys):
    seq = _write_seq(tmp_path / "u.seq", (0, 1, 1, 0))
    out = tmp_path / "report.json"
    assert cli.main(["parse", "--seq", seq, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(out.read_text())
    assert doc["results"]["n"] == 4


def test_csv_format(tmp_path, capsys):
    seq = _write_seq(tmp_path / "u.seq", (0, 1, 1, 0))
    assert cli.main(["parse", "--seq", seq, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 2
    header, values = rows
    assert header[0] == "command"
    assert values[0] == "parse"
    assert values[header.index("results.n")] == "4"


def test_feedback_emits_jsonl(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, 8)
    seq = _write_seq(tmp_path / "u.seq", u)
    side = _write_seq(tmp_path / "w.seq", u ^ (rng.random(8) < 0.2))
    rc = cli.main(
        ["feedback", "--seq", seq, "--side", side,
         "--r", "3", "--delta", "0.05", "--sessions", "3", "--seed", "7"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    head = json.loads(lines[0])
    assert head["command"] == "feedback"
    for s, line in enumerate(lines[1:]):
        row = json.loads(line)
        assert row["session"] == s
        assert row["acked"] is True


def test_feedback_csv_rows(tmp_path, capsys):
    rng = np.random.default_rng(2)
    u = rng.integers(0, 2, 8)
    seq = _write_seq(tmp_path / "u.seq", u)
    side = _write_seq(tmp_path / "w.seq", u ^ (rng.random(8) < 0.2))
    rc = cli.main(
        ["feedback", "--seq", seq, "--side", side,
         "--r", "3", "--delta", "0.05", "--sessions", "2", "--seed", "7",
         "--format", "csv"]
    )
    assert rc == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 3
    assert rows[0][0] == "command"
    assert "session" in rows[0]


@pytest.mark.parametrize("delta", ["nan", "inf"])
def test_feedback_bad_delta_exits_2(tmp_path, capsys, delta):
    seq = _write_seq(tmp_path / "u.seq", [0, 1, 1, 0, 1, 0, 0, 1])
    rc = cli.main(
        ["feedback", "--seq", seq, "--side", seq,
         "--r", "3", "--delta", delta, "--sessions", "1", "--seed", "7"]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"secwire: validation error: delta must be nonnegative and n * delta below 2^53, got {delta}\n"
    )


@pytest.mark.parametrize("eps_s", ["nan", "inf"])
def test_bound_bad_eps_s_exits_2(tmp_path, capsys, eps_s):
    seq = _write_seq(tmp_path / "u.seq", [0, 1, 1, 0, 1, 0, 0, 1])
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    rc = cli.main(
        ["bound", "t1", "--seq", seq, "--main", main, "--wiretap", wire,
         "--k", "1", "--m", "4", "--eps-s", eps_s]
    )
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"secwire: validation error: eps_s must be finite and nonnegative, got {eps_s}\n"


def test_rerun_is_byte_identical(tmp_path, capsys):
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    argv = [
        "wyner", "--N", "4", "--secret-bits", "1", "--random-bits", "1",
        "--main", main, "--wiretap", wire, "--trials", "50", "--seed", "3",
    ]
    assert cli.main(argv) == 0
    first = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == first


def test_wyner_audit_requires_ell(tmp_path, capsys):
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    rc = cli.main(
        ["wyner", "--N", "4", "--secret-bits", "1", "--random-bits", "1",
         "--main", main, "--wiretap", wire, "--trials", "10", "--seed", "3",
         "--audit"]
    )
    assert rc == 2
    assert "--ell" in capsys.readouterr().err


def test_wyner_bad_dist_exits_2(tmp_path, capsys):
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    rc = cli.main(
        ["wyner", "--N", "4", "--secret-bits", "1", "--random-bits", "1",
         "--main", main, "--wiretap", wire, "--trials", "10", "--seed", "3",
         "--dist", "0.5,abc"]
    )
    assert rc == 2
    assert capsys.readouterr().err == (
        "secwire: validation error: --dist must be comma-separated numbers, got '0.5,abc'\n"
    )


_FSM_HEADER = "{kind}\nk {k}\nm {m}\n{names[0]} {a}\n{names[1]} {b}\nstates 1\ninit 0\n"


def _crash_argv(tmp_path, case):
    # case is "ell<value>", "pipeline<mode>", "wyner<N>-<secret bits>-<random bits>",
    # "leakage-plain", "leakage-side", or "<kind>-<k>-<m>-<in alphabet>-<out alphabet>"
    # with an optional "-<rule lines>" written after the header
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    wyner = [
        "wyner", "--N", "4", "--secret-bits", "1", "--random-bits", "1",
        "--main", main, "--wiretap", wire, "--trials", "10", "--seed", "3",
    ]
    if case.startswith("ell"):
        return wyner + ["--audit", "--ell", case[3:]]
    if case.startswith("pipeline"):
        (tmp_path / "empty.seq").write_text("alphabet 2\n")
        return wyner + ["--pipeline", case[8:], "--seq", str(tmp_path / "empty.seq")]
    if case.startswith("wyner"):
        n, secret_bits, random_bits = case[5:].split("-")
        return [
            "wyner", "--N", n, "--secret-bits", secret_bits, "--random-bits", random_bits,
            "--main", main, "--wiretap", wire, "--trials", "1", "--seed", "3",
        ]
    enc, dec = _identity_fsm_files(tmp_path)
    if case.startswith("leakage"):
        # 20 000 symbols: the joint enumeration has 2^20000 x side^20000 x 2^20000 entries
        rng = np.random.default_rng(20)
        common = [
            "--dec", dec, "--main", main, "--wiretap", wire, "--trials", "1", "--seed", "1", "--exact-leakage",
            "--seq", _write_seq(tmp_path / "u.seq", rng.integers(0, 2, 20000)),
        ]
        if case == "leakage-plain":
            return ["simulate", "--enc", enc] + common
        side = SideInfoEncoderSpec(
            k=1, m=1, in_size=2, out_size=2, n_states=1,
            emit={(0, u, w): [(u, 1.0)] for u in range(2) for w in range(2)},
            next_state=np.zeros((1, 2, 2), dtype=int), side_size=2,
        )
        dump_fsm(side, tmp_path / "side.fsm")
        return ["simulate", "--enc", str(tmp_path / "side.fsm")] + common + [
            "--side", _write_seq(tmp_path / "s.seq", rng.integers(0, 2, 20000)),
            "--leak", _write_bsc(tmp_path / "l.ch", 0.3),
        ]
    kind, k, m, a, b, *rules = case.split("-")
    names = ("alpha", "beta") if kind == "encoder" else ("gamma", "alpha")
    big = tmp_path / "big.fsm"
    big.write_text(_FSM_HEADER.format(kind=kind, k=k, m=m, names=names, a=a, b=b) + "".join(rules))
    return [
        "simulate", "--enc", str(big) if kind == "encoder" else enc,
        "--dec", str(big) if kind == "decoder" else dec,
        "--main", main, "--wiretap", wire,
        "--seq", _write_seq(tmp_path / "u.seq", (0, 1)), "--trials", "1", "--seed", "1",
    ]


@pytest.mark.parametrize(
    "case, code, message",
    [
        ("ell0", 2, "ell must be a positive integer, got 0"),
        ("ell-1", 2, "ell must be a positive integer, got -1"),
        ("pipelinefixed", 2, "separation needs a nonempty source sequence"),
        ("pipelinevtf", 2, "separation needs a nonempty source sequence"),
        ("decoder-1-12-10-10", 3, "FSM table needs 1000000000000 entries, budget 16777216"),
        ("encoder-40-1-2-2", 3, "FSM table needs 1099511627776 entries, budget 16777216"),
        ("encoder-100-1-2-2", 3, "FSM table needs 1 x 2^100 x 1^100 entries, budget 16777216"),
        # budget counts far past Python's int-to-string digit limit
        ("wyner20000-1-0", 0, "output-law enumeration needs 2 x 2^20000 entries, budget 16777216"),
        ("wyner20000-10000-10000", 3, "codebook needs 2^20000 x 20000 entries, budget 16777216"),
        ("leakage-plain", 3, "joint enumeration needs 2^20000 x 1^20000 x 2^20000 entries, budget 16777216"),
        ("leakage-side", 3, "joint enumeration needs 2^20000 x 2^20000 x 2^20000 entries, budget 16777216"),
        # a NaN emission probability once loaded, dropped as if it were 0
        ("encoder-1-1-2-2-emit 0 0 0 1\nemit 0 0 1 nan\nemit 0 1 1\nnext * * 0\n", 2,
         "non-finite emission probability nan for key (0, 0, 0)"),
        # 2^70 - 1 does not fit the int64 out table
        ("decoder-70-1-2-2-out * * " + ",".join(["1"] * 70) + "\nnext * * 0\n", 2,
         "2^70 source blocks overflow the int64 out table"),
    ],
)
def test_crash_inputs_exit_with_one_error_line(tmp_path, capsys, case, code, message):
    # each of these once ended in a traceback, or asked NumPy for terabytes
    assert cli.main(_crash_argv(tmp_path, case)) == code
    captured = capsys.readouterr()
    if code == 0:
        # a Wyner code whose leakage is over budget still reports its error rates
        assert captured.err == ""
        results = json.loads(captured.out)["results"]
        assert results["leakage_bits"] is None and results["leakage_note"] == message
        return
    assert captured.out == ""
    assert captured.err.startswith("secwire: validation error: " if code == 2 else "secwire: budget exceeded: ")
    assert captured.err.endswith(message + "\n") and captured.err.count("\n") == 1


def test_simulate_exact_leakage_checks_budget_before_allocating(tmp_path, capsys):
    # at n = 11 a dense uniform mu alone would take 2^22 floats (32 MiB); the
    # joint enumeration exceeds the budget, so nothing that large is built
    enc = SideInfoEncoderSpec(
        k=1, m=1, in_size=2, out_size=2, n_states=1,
        emit={(0, u, w): [(u, 1.0)] for u in range(2) for w in range(2)},
        next_state=np.zeros((1, 2, 2), dtype=int), side_size=2,
    )
    _, dec = _identity_fsm_files(tmp_path)
    dump_fsm(enc, tmp_path / "side_enc.fsm")
    rng = np.random.default_rng(5)
    argv = [
        "simulate", "--enc", str(tmp_path / "side_enc.fsm"), "--dec", dec,
        "--main", _write_bsc(tmp_path / "m.ch", 0.1), "--wiretap", _write_bsc(tmp_path / "w.ch", 0.2),
        "--seq", _write_seq(tmp_path / "u.seq", rng.integers(0, 2, 11)),
        "--side", _write_seq(tmp_path / "s.seq", rng.integers(0, 2, 11)),
        "--leak", _write_bsc(tmp_path / "l.ch", 0.3),
        "--trials", "2", "--seed", "1", "--exact-leakage",
    ]
    tracemalloc.start()
    try:
        rc = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 3
    assert "budget exceeded" in capsys.readouterr().err
    assert peak < 2 ** 20


def test_threads_env_echoed_and_validated(tmp_path, capsys, monkeypatch):
    seq = _write_seq(tmp_path / "u.seq", (0, 1, 1, 0))
    monkeypatch.setenv("SECWIRE_THREADS", "3")
    assert cli.main(["parse", "--seq", seq]) == 0
    assert json.loads(capsys.readouterr().out)["config"]["threads"] == 3
    monkeypatch.setenv("SECWIRE_THREADS", "abc")
    assert cli.main(["parse", "--seq", seq]) == 2
    assert "SECWIRE_THREADS" in capsys.readouterr().err
    monkeypatch.setenv("SECWIRE_THREADS", "0")
    assert cli.main(["parse", "--seq", seq]) == 2


def _seeded_argvs(tmp_path, seed):
    main = _write_bsc(tmp_path / "m.ch", 0.05)
    wire = _write_bsc(tmp_path / "w.ch", 0.2)
    u = _write_seq(tmp_path / "u.seq", (0, 1, 1, 0, 1, 0))
    w = _write_seq(tmp_path / "w.seq", (0, 1, 0, 0, 1, 0))
    enc, dec = _identity_fsm_files(tmp_path)
    return {
        "wyner": [
            "wyner", "--N", "4", "--secret-bits", "1", "--random-bits", "1",
            "--main", main, "--wiretap", wire, "--trials", "20", "--seed", seed,
        ],
        "feedback": [
            "feedback", "--seq", u, "--side", w, "--r", "2", "--delta", "0.5",
            "--sessions", "2", "--seed", seed,
        ],
        "simulate": [
            "simulate", "--enc", enc, "--dec", dec, "--main", main, "--wiretap", wire,
            "--seq", u, "--trials", "3", "--seed", seed,
        ],
    }


@pytest.mark.parametrize("command", ["wyner", "feedback", "simulate"])
def test_negative_seed_exits_2(tmp_path, capsys, command):
    assert cli.main(_seeded_argvs(tmp_path, "-1")[command]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "secwire: validation error: seed must be a non-negative integer, got -1\n"


def _run_in_process(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_reused_parser_matches_fresh_processes(tmp_path):
    # main builds its parser once; calls after a usage error and after other
    # subcommands give what a fresh process gives for each of them
    argvs = _seeded_argvs(tmp_path, "3")
    sequence = [
        ["wyner", "--N", "4"],
        argvs["wyner"],
        argvs["feedback"],
        ["parse", "--seq", argvs["feedback"][2], "--phrases"],
    ]
    env = dict(os.environ, PYTHONPATH=str(Path(secwire.__file__).resolve().parents[1]))
    for argv in sequence:
        fresh = subprocess.run(
            [sys.executable, "-m", "secwire.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        assert _run_in_process(argv) == (fresh.returncode, fresh.stdout, fresh.stderr)
    assert _run_in_process(sequence[0])[0] == 64


# SHA-256 of stdout for a seeded 5 000-symbol file, recorded before phrase
# lists were printed through one integer-row template and single-digit files
# decoded from their bytes. The benchmark's op check parses the JSON, so only
# this test sees whitespace.
GOLDEN_PARSE_STDOUT = {
    "phrases": "a603f1a8a721d0b0eff8257063f96bff50e9ef2e9d3ade402f4ed424a8606950",
    "side": "b323de798924dd51c07504ac36bd834d73a6c375c157002d0c518d54f8e1491d",
}


@pytest.mark.parametrize("case", sorted(GOLDEN_PARSE_STDOUT))
def test_parse_stdout_bytes_are_golden(tmp_path, capsys, monkeypatch, case):
    monkeypatch.chdir(tmp_path)  # the config echo holds the relative paths only
    monkeypatch.delenv("SECWIRE_THREADS", raising=False)
    rng = np.random.default_rng(5000)
    u = rng.integers(0, 4, 5000)
    w = (u + (rng.random(5000) < 0.15)) % 4
    _write_seq("u.seq", u, size=4)
    _write_seq("w.seq", w, size=4)
    argv = ["parse", "--seq", "u.seq", "--phrases"] + (["--side", "w.seq"] if case == "side" else [])
    assert cli.main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_PARSE_STDOUT[case]


# The CLI fuzz: argument lists for every subcommand, drawn from plausible
# values and odd ones (NaN, infinities, 0, negatives, a value past 2^64, text)
# and from small, empty, malformed, missing and wrong-kind input files.
# Loop counts (simulate --trials, feedback --sessions) take no value past
# 2^64: a run of that many trials is a valid request that never ends.
_ODD_VALUES = ["0", "-1", "18446744073709551617", "nan", "inf", "-inf", "1.5", "1e-300", "", "x"]
_FUZZ_FILES = {"seq": ["u.seq", "w.seq"], "ch": ["m.ch", "w.ch"], "fsm": ["enc.fsm", "dec.fsm", "huge.fsm"]}
_ODD_FILES = ["empty.txt", "junk.txt", "missing.txt", "adir", "one.seq", "tri.ch", "m.ch", "u.seq", "enc.fsm"]


def _mostly(plausible, odd=_ODD_VALUES):
    # one draw in five is odd
    return st.integers(0, 4).flatmap(lambda i: st.sampled_from(odd if i == 0 else plausible))


_FUZZ_VALUES = {
    "int": _mostly(["1", "2", "3", "6", "64"]),
    "float": _mostly(["0.1", "0.5", "0.9", "2"]),
    "count": _mostly(["1", "2", "3"], [v for v in _ODD_VALUES if v != "18446744073709551617"]),
    "theorem": _mostly(["t1", "t2", "t3"], ["t4"]),
    "pipeline": _mostly(["fixed", "vtf"], ["x"]),
    "dist": _mostly(["0.5,0.5", "1,0"], ["nan,1", "0.5", "-1,2", "x", ""]),
    "format": _mostly(["json", "csv"], ["xml"]),
    "out": st.sampled_from(["out.txt", "adir", "missing/out.txt"]).map(lambda name: "@" + name),
    **{kind: _mostly(names, _ODD_FILES).map(lambda name: "@" + name) for kind, names in _FUZZ_FILES.items()},
}
# subcommand: (option, kind of value, required); the empty option is the positional theorem
_FUZZ_OPTIONS = {
    "parse": [("--seq", "seq", True), ("--side", "seq", False), ("--phrases", "flag", False)],
    "channel": [("--main", "ch", True), ("--wiretap", "ch", False), ("--emit-cascade", "flag", False)],
    "capacity": [("--main", "ch", True), ("--wiretap", "ch", False), ("--gamma", "float", False), ("--tol", "float", False)],
    "bound": [
        ("", "theorem", True), ("--seq", "seq", True), ("--side", "seq", False), ("--k", "int", True),
        ("--m", "int", True), ("--qe", "int", False), ("--qd", "int", False), ("--eps-r", "float", False),
        ("--eps-s", "float", False), ("--eps-n", "float", False), ("--n", "int", False), ("--ell", "int", False),
        ("--main", "ch", True), ("--wiretap", "ch", True),
    ],
    "simulate": [
        ("--enc", "fsm", True), ("--dec", "fsm", True), ("--main", "ch", True), ("--wiretap", "ch", True),
        ("--seq", "seq", True), ("--side", "seq", False), ("--trials", "count", True), ("--seed", "int", True),
        ("--joint", "flag", False), ("--exact-leakage", "flag", False), ("--leak", "ch", False),
        ("--tol", "float", False),
    ],
    "wyner": [
        ("--N", "int", True), ("--secret-bits", "int", True), ("--random-bits", "int", True), ("--main", "ch", True),
        ("--wiretap", "ch", True), ("--trials", "count", True), ("--seed", "int", True), ("--dist", "dist", False),
        ("--audit", "flag", False), ("--k", "int", False), ("--qe", "int", False), ("--eps-s", "float", False),
        ("--ell", "int", False), ("--pipeline", "pipeline", False), ("--seq", "seq", False),
        ("--delta", "float", False),
    ],
    "feedback": [
        ("--seq", "seq", True), ("--side", "seq", True), ("--r", "int", True), ("--delta", "float", True),
        ("--sessions", "count", True), ("--seed", "int", True), ("--coded", "flag", False), ("--N", "int", False),
        ("--secret-bits", "int", False), ("--random-bits", "int", False), ("--main", "ch", False),
        ("--wiretap", "ch", False),
    ],
}


@st.composite
def _fuzz_argvs(draw):
    command = draw(st.sampled_from(sorted(_FUZZ_OPTIONS)))
    argv = [command]
    # an optional argument in half the draws, a required one left out in one of 40
    for option, kind, required in _FUZZ_OPTIONS[command] + [("--format", "format", False), ("--out", "out", False)]:
        if draw(st.integers(0, 79)) >= (78 if required else 40):
            continue
        argv += [option] if option else []
        argv += [] if kind == "flag" else [draw(_FUZZ_VALUES[kind])]
    return argv


def _fuzz_files(root):
    if root.exists():
        return
    root.mkdir()
    _write_seq(root / "u.seq", (0, 1, 1, 0, 1, 0))
    _write_seq(root / "w.seq", (0, 1, 0, 0, 1, 0))
    _write_seq(root / "one.seq", (2,), size=3)
    _write_bsc(root / "m.ch", 0.05)
    _write_bsc(root / "w.ch", 0.2)
    dump_channel(secwire.channel_from_rows([[0.5, 0.25, 0.25], [0.1, 0.1, 0.8]]), root / "tri.ch")
    _identity_fsm_files(root)
    # loads as far as its tables, which exceed the enumeration budget
    (root / "huge.fsm").write_text(_FSM_HEADER.format(kind="decoder", k=1, m=40, names=("gamma", "alpha"), a=2, b=2))
    (root / "empty.txt").write_text("")
    (root / "junk.txt").write_bytes(b"alphabet \xff 1 2\n")
    (root / "adir").mkdir()


@settings(max_examples=300, deadline=None)
@given(argv=_fuzz_argvs())
def test_cli_fuzz_exit_codes(tmp_path_factory, argv):
    root = tmp_path_factory.getbasetemp() / "cli-fuzz"
    _fuzz_files(root)
    code, out, err = _run_in_process([str(root / a[1:]) if a.startswith("@") else a for a in argv])
    assert code in (0, 2, 3, 64)
    if code == 0:
        assert err == ""
        return
    assert out == ""
    lines = err.splitlines()
    if code == 64:
        # argparse's usage lines, then its one error line
        assert lines[0].startswith("usage: secwire") and lines[-1].startswith("secwire")
        assert [": error: " in line for line in lines].count(True) == 1
    else:
        assert len(lines) == 1 and err.endswith("\n")
        assert lines[0].startswith("secwire: budget exceeded: " if code == 3 else "secwire: ")
