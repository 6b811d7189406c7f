"""secwire benchmark: closed-loop in-process CLI workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--data-seed 1|2]

One client sends a seeded list of in-process ``secwire.cli.main(argv)`` calls
("ops") one after another on generated input files. Every op's ``results`` part
is compared with the stored reference from the seed commit; an op fails when
it exits non-zero, raises or differs. The last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of a traced run with
``--trace 1``. The line before it holds machine facts and run details.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

START = perf_counter()

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"  # before numpy loads
os.environ.pop("SECWIRE_THREADS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import spans  # noqa: E402
import workloads  # noqa: E402  (numpy loads here, after the thread pins above)

OUT_DIR = ROOT / ".perfbench-run"
TAIL_BEYOND = 10  # ops beyond the tail percentile
SETUP_SAMPLES = 3  # this process plus two setup-only child processes
# Reference check: the program prints floats to 10 significant digits, so a
# last-ulp change shows at most as one step in the last digit. RTOL accepts
# that and catches any larger change; ATOL covers values printed near zero,
# such as certified gaps. Lists longer than LONG_LIST (phrase lists,
# multiplicities) are stored as a digest and must match exactly.
RTOL, ATOL = 1e-8, 1e-12
LONG_LIST = 32


def results_part(argv, text: str):
    """The results part of an op's output: the feedback rows, else the results object."""
    if argv[0] == "feedback":
        return [json.loads(line) for line in text.splitlines()[1:]]
    return json.loads(text)["results"]


def reference_form(obj):
    """Results as stored: every list longer than LONG_LIST becomes the digest of its JSON."""
    if isinstance(obj, dict):
        return {k: reference_form(v) for k, v in obj.items()}
    if isinstance(obj, list):
        if len(obj) > LONG_LIST:
            canon = json.dumps(obj, sort_keys=True, separators=(",", ":"))
            return {"sha256": hashlib.sha256(canon.encode()).hexdigest()}
        return [reference_form(v) for v in obj]
    return obj


def matches(got, ref) -> bool:
    """Same structure and values; a float may differ from a number by RTOL or ATOL."""
    if isinstance(got, float) or isinstance(ref, float):
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (got, ref))
        return numbers and math.isclose(got, ref, rel_tol=RTOL, abs_tol=ATOL)
    if type(got) is not type(ref):
        return False
    if isinstance(ref, dict):
        return got.keys() == ref.keys() and all(matches(got[k], ref[k]) for k in ref)
    if isinstance(ref, list):
        return len(got) == len(ref) and all(map(matches, got, ref))
    return got == ref


def reference_key(data_seed: int, wl, cls, variant: int) -> str:
    return f"{data_seed}/{wl.name}/{workloads.op_key(cls, variant)}"


def run_op(cli, argv):
    """Run one op in process; returns (seconds, exit code or None if it raised, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an op that raises is a failed op; the loop goes on
        code = None
        err.write(traceback.format_exc())
    seconds = perf_counter() - start
    if code != 0:
        sys.stderr.write(f"op {' '.join(argv)} failed ({code}): {err.getvalue()[-2000:]}\n")
    return seconds, code, out.getvalue()


def check(argv, code, text, expected) -> bool:
    if code != 0 or expected is None:
        return False
    try:
        return matches(reference_form(results_part(argv, text)), expected)
    except (ValueError, KeyError, IndexError):
        return False


class Bench:
    """Inputs of one run on disk, the references, and the op loop."""

    def __init__(self, cli, wl, data_seed: int, refs: dict, workdir: Path):
        self.cli = cli
        self.wl = wl
        self.data_seed = data_seed
        self.refs = refs
        self.argv = {
            (cls.name, variant): workloads.write_op(workdir, wl, cls, variant, data_seed)
            for cls, variant in wl.pool_ops()
        }
        self.attempted = 0
        self.failed = 0

    def op(self, cls, variant: int) -> float:
        argv = self.argv[(cls.name, variant)]
        seconds, code, text = run_op(self.cli, argv)
        self.attempted += 1
        if not check(argv, code, text, self.refs.get(reference_key(self.data_seed, self.wl, cls, variant))):
            self.failed += 1
            sys.stderr.write(f"op {workloads.op_key(cls, variant)} gave a wrong or no result\n")
        return seconds

    def warm_up(self) -> None:
        first = self.wl.classes[0]
        self.op(first, self.wl.pool(first))

    def loop(self, rounds, seconds=float("inf"), max_rounds=None, recorder=None) -> list:
        """Run whole rounds until `seconds` of op time or `max_rounds`; returns op latencies per round."""
        done = []
        total = 0.0
        while total < seconds and len(done) != max_rounds:
            latencies = []
            for cls, variant in next(rounds):
                if recorder is not None:
                    recorder.op = self.attempted
                latencies.append(self.op(cls, variant))
            done.append(latencies)
            total += sum(latencies)
        return done


def git_commit():
    """HEAD commit read from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(np, args) -> dict:
    cpu = None
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu or platform.processor() or None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
        "secwire_threads": os.environ.get("SECWIRE_THREADS"),
        "git_commit": git_commit(),
        "workload_seed": args.seed,
        "data_seed": args.data_seed,
    }


def setup_sample(args) -> float:
    """Setup time of a fresh process running only the setup."""
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload, "--seed", str(args.seed),
        "--data-seed", str(args.data_seed), "--setup-only",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"setup-only child failed ({proc.returncode}): {proc.stderr[-2000:]}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def tail(latencies) -> tuple:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and that percentile."""
    ordered = sorted(latencies)
    idx = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def ops_per_s(done) -> float:
    """Ops completed per second of op time, over whole rounds."""
    return sum(len(r) for r in done) / sum(sum(r) for r in done)


def metric(value, unit):
    return {"value": value, "unit": unit}


def layer_metrics(rec, ops: int, untraced_ops_per_s: float, traced_ops_per_s: float) -> dict:
    """Per-layer metrics of the traced phase, per op, from the recorder's statistics."""
    out = {}
    for module, attr, counts, _, _ in spans.TARGETS:
        name = spans.span_name(module, attr)
        stat = rec.stats[name]
        out[f"{name}.calls"] = metric(stat.calls / ops, "calls/op")
        out[f"{name}.self_s"] = metric(stat.self_s / ops, "s/op")
        for key in counts:
            out[f"{name}.{key}"] = metric(stat.counts.get(key, 0) / ops, "count/op")
    budget = sys.modules["secwire.fsm_codec"].ENUMERATION_BUDGET
    entries = max(
        rec.stats[name].peaks.get("entries", 0)
        for name in ("fsm_codec.induced_security_channel", "fsm_codec.conditional_leakage")
    )
    out["fsm_codec.budget_share_max"] = metric(entries / budget, "ratio")
    sessions = rec.stats["feedback_binning.run_session"].calls
    bin_bits = "feedback_binning.BinAssignment.bin_bits"
    out["feedback_binning.hashes_per_session"] = metric(
        rec.stats[bin_bits].calls / sessions if sessions else 0.0, "count/session"
    )
    lds = "feedback_binning.list_decode_step"
    hashed = rec.pair_calls.get((lds, bin_bits), 0)
    useful = rec.pair_calls.get((lds, "parsing.conditional_lz_complexity"), 0)
    out["feedback_binning.survivor_ratio"] = metric(useful / hashed if hashed else 0.0, "ratio")
    op_s = sum(stat.self_s for stat in rec.stats.values())
    out["cli.main.self_share"] = metric(rec.stats["cli.main"].self_s / op_s if op_s else 0.0, "ratio")
    out["trace.untraced_ops_per_s"] = metric(untraced_ops_per_s, "1/s")
    out["trace.traced_ops_per_s"] = metric(traced_ops_per_s, "1/s")
    return out


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True, help="workload seed: picks and orders the ops")
    p.add_argument("--seconds", type=float, default=50.0, help="op time measured per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument(
        "--data-seed", type=int, choices=workloads.DATA_SEEDS, default=workloads.DATA_SEEDS[0],
        help="input pool; 2 is held out for checking a claim on unseen inputs",
    )
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "secwire" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no secwire sources under {ROOT / 'src'}\n")
        return 2
    refs_path = HERE / "references.json"
    refs = json.loads(refs_path.read_text())
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from secwire import cli

    if Path(cli.__file__).resolve().parent != ROOT / "src" / "secwire":
        sys.stderr.write(f"perfbench: imported secwire from {cli.__file__}, not from {ROOT / 'src'}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        bench = Bench(cli, wl, args.data_seed, refs["ops"], workdir)
        bench.warm_up()
        setup_s = perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        rounds = workloads.schedule(wl, args.seed)
        info = {"machine": machine_facts(np, args), "workload": wl.name, "reference_commit": refs["commit"]}
        if args.trace == 0:
            done = bench.loop(rounds, args.seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            samples = [setup_s] + [setup_sample(args) for _ in range(SETUP_SAMPLES - 1)]
            latencies = [t for r in done for t in r]
            tail_s, tail_pct = tail(latencies)
            metrics = {
                "setup_s": metric(statistics.median(samples), "s"),
                "ops_per_s": metric(ops_per_s(done), "1/s"),
                "op_p50_s": metric(statistics.median(latencies), "s"),
                "op_tail_s": metric(tail_s, "s"),
                "peak_rss_mb": metric(peak_rss_mb, "MB"),
                "ok_op_share": metric((bench.attempted - bench.failed) / bench.attempted, "ratio"),
            }
            info.update(
                rounds=len(done), timed_ops=len(latencies), round_s=[sum(r) for r in done],
                setup_samples_s=samples, op_tail_percentile=tail_pct,
                op_tail_ops_beyond=min(TAIL_BEYOND, len(latencies) - 1),
            )
        else:
            # the traced half runs as many rounds as the untraced half, on fresh variants
            untraced = bench.loop(rounds, args.seconds / 2)
            rec = spans.Recorder()
            with rec:
                traced = bench.loop(rounds, max_rounds=len(untraced), recorder=rec)
            spans_path = OUT_DIR / f"spans-{wl.name}-seed{args.seed}.jsonl"
            rec.write_jsonl(spans_path)
            traced_ops = sum(len(r) for r in traced)
            metrics = layer_metrics(rec, traced_ops, ops_per_s(untraced), ops_per_s(traced))
            info.update(
                rounds=len(untraced), untraced_ops=sum(len(r) for r in untraced), traced_ops=traced_ops,
                spans=str(spans_path),
            )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
