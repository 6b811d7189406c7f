"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(run.ROOT / "src"))
from secwire import cli  # noqa: E402

WL = workloads.WORKLOADS


def _secwire_bindings():
    """Every attribute of every secwire module, plus the two patched class attributes."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if name == "secwire" or name.startswith("secwire."):
            for key, val in vars(mod).items():
                out[(name, key)] = val
    seq, fb = sys.modules["secwire.sequences"], sys.modules["secwire.feedback_binning"]
    out["SymbolSequence.__init__"] = seq.SymbolSequence.__dict__["__init__"]
    out["BinAssignment.bin_bits"] = fb.BinAssignment.__dict__["bin_bits"]
    return out


# the cheapest class of each workload keeps the tests short
SMALL_OPS = [
    ("coding-mix", "wyner-N8-c64"),
    ("coding-mix", "feedback-ideal"),
    ("coding-mix", "plain-n10"),
    ("coding-mix", "secrecy-T1"),
    ("long-sequence", "markov-bound-t1"),
]


@pytest.mark.parametrize("workload,cls_name", SMALL_OPS)
def test_traced_op_output_is_byte_identical(tmp_path, workload, cls_name):
    wl = WL[workload]
    cls = next(c for c in wl.classes if c.name == cls_name)
    argv = workloads.write_op(tmp_path, wl, cls, 0, 1)
    _, code_plain, plain = run.run_op(cli, argv)
    rec = spans.Recorder()
    with rec:
        _, code_traced, traced = run.run_op(cli, argv)
    assert code_plain == code_traced == 0
    assert plain == traced
    assert rec.stats["cli.main"].calls == 1
    assert rec.spans, "the traced op recorded no spans"


def test_recorder_restores_every_binding(tmp_path):
    wl = WL["coding-mix"]
    coded = next(c for c in wl.classes if c.name == "feedback-coded")  # touches every feedback layer
    argv = workloads.write_op(tmp_path, wl, coded, 0, 1)
    before = _secwire_bindings()
    with spans.Recorder() as rec:
        during = _secwire_bindings()
        run.run_op(cli, argv)
    after = _secwire_bindings()
    patched = [k for k in before if during[k] is not before[k]]
    # sample is bound in channels, wyner_binning, fsm_codec, feedback_binning and the package
    assert sum(1 for k in patched if k[1:] == ("sample",)) >= 4
    assert "BinAssignment.bin_bits" in patched and "SymbolSequence.__init__" in patched
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert rec.stats["feedback_binning.BinAssignment.bin_bits"].calls > 0


def test_recorder_self_time_excludes_children():
    rec = spans.Recorder()
    with rec:
        fb = sys.modules["secwire.feedback_binning"]
        sq = sys.modules["secwire.sequences"]
        u = sq.SymbolSequence(sq.Alphabet(2), (0, 1, 1, 0, 1, 0))
        w = sq.SymbolSequence(sq.Alphabet(2), (0, 1, 0, 0, 1, 0))
        fb.run_session(u, w, r=2, delta=0.5, transport=fb.IdealTransport(), seed=3)
    by_id = {s[0]: s for s in rec.spans}
    session = next(s for s in rec.spans if s[3] == "feedback_binning.run_session")
    children = [s for s in rec.spans if s[1] == session[0]]
    assert children and all(by_id[s[1]][3] == "feedback_binning.run_session" for s in children)
    child_s = sum(s[5] - s[4] for s in children)
    leaf_s = sum(v[1] for (op, parent, name), v in rec.leaves.items() if parent == "feedback_binning.run_session")
    stat = rec.stats["feedback_binning.run_session"]
    assert stat.self_s == pytest.approx(session[5] - session[4] - child_s - leaf_s, abs=1e-9)
    assert rec.pair_calls[("feedback_binning.list_decode_step", "feedback_binning.BinAssignment.bin_bits")] > 0


@pytest.mark.parametrize("workload", sorted(WL))
def test_same_seed_same_ops_and_inputs(workload):
    wl = WL[workload]

    def ops(seed, rounds=3):
        sched = workloads.schedule(wl, seed)
        return [[(cls.name, v) for cls, v in next(sched)] for _ in range(rounds)]

    assert ops(5) == ops(5)
    assert ops(5) != ops(6)
    for cls in wl.classes:
        assert workloads.make_op(wl, cls, 3, 1) == workloads.make_op(wl, cls, 3, 1)
    assert workloads.make_op(wl, wl.classes[0], 3, 1) != workloads.make_op(wl, wl.classes[0], 3, 2)


@pytest.mark.parametrize("workload", sorted(WL))
def test_rounds_do_not_repeat_a_variant_within_the_pool(workload):
    wl = WL[workload]
    sched = workloads.schedule(wl, 11)
    seen = {cls.name: [] for cls in wl.classes}
    for _ in range(wl.rounds):
        for cls, variant in next(sched):
            seen[cls.name].append(variant)
    for cls in wl.classes:
        # every variant once; the warm-up variant stays out of the timed loop
        assert sorted(seen[cls.name]) == list(range(wl.pool(cls)))


def test_references_cover_every_pool_op():
    refs = json.loads((HERE / "references.json").read_text())
    expected = {
        run.reference_key(data_seed, wl, c, v)
        for data_seed in workloads.DATA_SEEDS
        for wl in WL.values()
        for c, v in wl.pool_ops()
    }
    assert set(refs["ops"]) == expected


def test_check_ignores_config_and_catches_changed_results(tmp_path):
    wl = WL["coding-mix"]
    argv = workloads.write_op(tmp_path / "a", wl, wl.classes[0], 0, 1)
    argv_moved = workloads.write_op(tmp_path / "b", wl, wl.classes[0], 0, 1)
    _, _, text = run.run_op(cli, argv)
    _, _, moved = run.run_op(cli, argv_moved)
    assert text != moved  # the config echo carries the paths
    ref = run.reference_form(run.results_part(argv, text))
    assert run.check(argv_moved, 0, moved, ref)
    doc = json.loads(text)
    doc["results"]["trials"] += 1
    assert not run.check(argv, 0, json.dumps(doc), ref)


def test_check_accepts_last_digit_float_changes_only():
    ref = {"value": 0.4648075997, "gap": 9.4e-10, "iterations": 47, "kind": "secrecy"}
    assert run.matches(dict(ref, value=0.4648075998), ref)  # one step in the tenth printed digit
    assert run.matches(dict(ref, gap=9.405e-10), ref)  # a certified gap: a difference of two values near 0.5
    assert not run.matches(dict(ref, value=0.46480761), ref)
    assert not run.matches(dict(ref, iterations=48), ref)
    assert not run.matches(dict(ref, kind="gamma"), ref)
    assert not run.matches(dict(ref, iterations=True), ref)
    assert not run.matches({k: v for k, v in ref.items() if k != "gap"}, ref)
    assert run.matches(2.0, 2)  # the program prints a whole float without a point
    phrases = [[i, i + 1] for i in range(40)]
    stored = run.reference_form({"phrases": phrases})
    assert "sha256" in stored["phrases"]
    assert run.matches(run.reference_form({"phrases": phrases}), stored)
    assert not run.matches(run.reference_form({"phrases": phrases[:-1] + [[39, 41]]}), stored)


# the files that fix the solved problem: exact leakage depends on the encoder
# (and the fixed triple and n), capacity on the triple
MODEL_FILES = {"simulate": ("enc.fsm",), "capacity": ("main.ch", "wire.ch")}


def test_exact_leakage_and_capacity_ops_solve_distinct_problems():
    wl = WL["coding-mix"]
    for cls in wl.classes:
        names = MODEL_FILES.get(workloads.make_op(wl, cls, 0, 1)[0][0])
        if names is None:
            continue
        models = {
            tuple(workloads.make_op(wl, cls, v, data_seed)[1][name] for name in names)
            for data_seed in workloads.DATA_SEEDS
            for v in range(wl.pool(cls) + 1)
        }
        assert len(models) == len(workloads.DATA_SEEDS) * (wl.pool(cls) + 1), cls.name


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "coding-mix", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
