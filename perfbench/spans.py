"""Span recorder that traces secwire from outside the package.

The recorder wraps the public functions of each layer by replacing the
attribute in every ``secwire`` module namespace that bound it (modules import
names such as ``from .channels import sample``), and patches
``SymbolSequence.__init__`` and ``BinAssignment.bin_bits`` on their classes.
Patching ``__init__`` times the whole construction, whatever the class
stores. ``remove()`` puts every original back.

Each wrapped call opens a span with a name, start, end, parent and the op it
belongs to. A span's self time is its duration minus the time its direct
child spans cover. Spans stay in memory until ``write_jsonl`` is called at the
end of the run.

Two functions run millions of times per op and take about a microsecond
each: ``BinAssignment.bin_bits`` and ``SymbolSequence`` construction. They are
recorded as leaf aggregates (calls and seconds per op and parent) instead of
one span per call, which keeps memory bounded; their time still counts as
child time of the enclosing span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
from time import perf_counter

SPAN_CAP = 1_000_000  # spans kept in memory; later spans are counted, not stored


def _bound(sig, args, kwargs):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


def _symbols_arg0(sig, args, kwargs, result):
    return {"symbols": len(args[0]) if args else len(_bound(sig, args, kwargs)["u"])}


def _symbols_result(sig, args, kwargs, result):
    return {"symbols": len(result)}


def _symbols_self(args):
    return len(args[0])


def _solver(sig, args, kwargs, result):
    tol = _bound(sig, args, kwargs)["tol"]
    return {"iterations": result.iterations, "certificate_misses": int(result.certified_gap > tol)}


def _trials(sig, args, kwargs, result):
    return {"trials": int(_bound(sig, args, kwargs)["trials"])}


def _induced_entries(sig, args, kwargs, result):
    return {"entries": int(result.rows.size)}


def _g3_entries(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    enc, triple, n = a["enc"], a["triple"], a["n"]
    z_size = triple.wiretap.out_alphabet.size
    return {"entries": enc.in_size ** n * enc.side_size ** n * z_size ** (n // enc.k * enc.m)}


def _codewords_scored(sig, args, kwargs, result):
    code = args[0]
    return {"codewords_scored": code.bins * code.words_per_bin}


def _code_leakage_entries(sig, args, kwargs, result):
    a = _bound(sig, args, kwargs)
    code, ch = a["code"], a["eaves_channel"]
    return {"entries": code.bins * code.words_per_bin * ch.out_alphabet.size ** code.block_len}


def _rounds(sig, args, kwargs, result):
    return {"rounds": result.chunks_sent}


def _bytes(sig, args, kwargs, result):
    return {"bytes": len(result.encode("utf-8"))}


# (module, attribute, counts, counter, leaf). counts names what the counter
# reports: a span counter sees (signature, args, kwargs, result) and returns
# {count: value}; a leaf counter sees args and returns the value of its one count.
TARGETS = (
    ("sequences", "load_sequence", ("symbols",), _symbols_result, False),
    ("sequences", "SymbolSequence.__init__", ("symbols",), _symbols_self, True),
    ("parsing", "incremental_parse", ("symbols",), _symbols_arg0, False),
    ("parsing", "joint_parse", ("symbols",), _symbols_arg0, False),
    ("parsing", "conditional_lz_complexity", ("symbols",), _symbols_arg0, False),
    ("parsing", "prefix_phrase_counts", ("symbols",), _symbols_arg0, False),
    ("channels", "sample", ("symbols",), _symbols_result, False),
    ("channels", "load_channel", (), None, False),
    ("info_measures", "channel_capacity", ("iterations", "certificate_misses"), _solver, False),
    ("info_measures", "secrecy_capacity", ("iterations", "certificate_misses"), _solver, False),
    ("info_measures", "gamma", ("iterations", "certificate_misses"), _solver, False),
    ("bounds", "theorem1_bound", (), None, False),
    ("bounds", "theorem3_bound", (), None, False),
    ("bounds", "zeta_n", (), None, False),
    ("bounds", "eta_n", (), None, False),
    ("fsm_codec", "simulate_system", ("trials",), _trials, False),
    ("fsm_codec", "encode_stream", (), None, False),
    ("fsm_codec", "decode_stream", (), None, False),
    ("fsm_codec", "induced_security_channel", ("entries",), _induced_entries, False),
    ("fsm_codec", "conditional_leakage", ("entries",), _g3_entries, False),
    ("wyner_binning", "build_code", (), None, False),
    ("wyner_binning", "ml_decode", ("codewords_scored",), _codewords_scored, False),
    ("wyner_binning", "monte_carlo_error", ("trials",), _trials, False),
    ("wyner_binning", "code_leakage", ("entries",), _code_leakage_entries, False),
    ("wyner_binning", "randomness_audit", (), None, False),
    ("feedback_binning", "run_session", ("rounds",), _rounds, False),
    ("feedback_binning", "list_decode_step", (), None, False),
    ("feedback_binning", "BinAssignment.bin_bits", (), None, True),
    ("report", "render_json", ("bytes",), _bytes, False),
    ("cli", "main", (), None, False),
)


def span_name(module: str, attr: str) -> str:
    """Metric prefix of a target: SymbolSequence construction is named after the class."""
    if attr.endswith(".__init__"):
        attr = attr[: -len(".__init__")]
    return f"{module}.{attr}"


LEAF_COUNTS = {span_name(m, a): counts[0] for m, a, counts, _, leaf in TARGETS if leaf and counts}


class Stat:
    """Totals of one span name: calls, self seconds, and each count's sum and largest value."""

    __slots__ = ("calls", "self_s", "counts", "peaks")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.counts = {}
        self.peaks = {}


class Recorder:
    """Records spans from wrapped secwire functions; use as a context manager."""

    def __init__(self):
        self.spans = []  # (id, parent id, op, name, start, end, counts)
        self.dropped = 0
        self.stats = {}  # span name -> Stat
        self.pair_calls = {}  # (parent name, name) -> calls
        self.leaves = {}  # (op, parent name, name) -> [calls, seconds]
        self.op = -1
        # open frames: [child seconds, span id, name, {leaf name: [calls, seconds, count]}];
        # the root frame stands for "no enclosing span"
        self._stack = [[0.0, None, None, {}]]
        self._patches = []  # (owner, attribute, original)
        self._next_id = 0

    # -- patching ---------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("recorder already installed")
        mods = [m for n, m in list(sys.modules.items()) if n == "secwire" or n.startswith("secwire.")]
        try:
            for module, attr, _, counter, leaf in TARGETS:
                name = span_name(module, attr)
                self.stats.setdefault(name, Stat())
                owner = sys.modules[f"secwire.{module}"]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[meth]
                    self._patch(cls, meth, self._wrap(name, original, counter, leaf))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter, leaf)
                for mod in mods:
                    for key, val in list(vars(mod).items()):
                        if val is original:
                            self._patch(mod, key, wrapper)
        except BaseException:
            self.remove()
            raise

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def remove(self) -> None:
        """Restore every patched attribute; leaf calls made outside any span are counted here."""
        self._flush_leaves(self._stack[0])
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()
        return False

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, counter, leaf):
        if leaf:
            return self._wrap_leaf(name, fn, counter)
        sig = inspect.signature(fn)
        stat = self.stats[name]
        stack = self._stack
        rec = self

        def wrapper(*args, **kwargs):
            frame = [0.0, rec._next_id, name, {}]
            rec._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec._close(stat, frame, start, perf_counter(), None)
                raise
            end = perf_counter()
            rec._close(stat, frame, start, end, counter(sig, args, kwargs, result) if counter else None)
            return result

        return functools.update_wrapper(wrapper, fn)

    def _wrap_leaf(self, name, fn, counter):
        """Leaf wrapper: no span, calls and seconds add up in the enclosing frame."""
        stack = self._stack

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                top = stack[-1]
                top[0] += dur
                agg = top[3].get(name)
                if agg is None:
                    agg = top[3][name] = [0, 0.0, 0]
                agg[0] += 1
                agg[1] += dur
                if counter is not None:
                    agg[2] += counter(args)

        return functools.update_wrapper(wrapper, fn)

    def _close(self, stat, frame, start, end, counts) -> None:
        self._stack.pop()
        parent = self._stack[-1]
        dur = end - start
        parent[0] += dur
        stat.calls += 1
        stat.self_s += dur - frame[0]
        if counts:
            for key, val in counts.items():
                stat.counts[key] = stat.counts.get(key, 0) + val
                stat.peaks[key] = max(stat.peaks.get(key, val), val)
        self._flush_leaves(frame)
        pair = (parent[2], frame[2])
        self.pair_calls[pair] = self.pair_calls.get(pair, 0) + 1
        if len(self.spans) >= SPAN_CAP:
            self.dropped += 1
            return
        self.spans.append((frame[1], parent[1], self.op, frame[2], start, end, counts))

    def _flush_leaves(self, frame) -> None:
        for leaf, (calls, secs, count) in frame[3].items():
            stat = self.stats[leaf]
            stat.calls += calls
            stat.self_s += secs
            key = LEAF_COUNTS.get(leaf)
            if key is not None:
                stat.counts[key] = stat.counts.get(key, 0) + count
            pair = (frame[2], leaf)
            self.pair_calls[pair] = self.pair_calls.get(pair, 0) + calls
            agg = self.leaves.setdefault((self.op, frame[2], leaf), [0, 0.0])
            agg[0] += calls
            agg[1] += secs
        frame[3].clear()

    def write_jsonl(self, path) -> None:
        """One line per span in close order; leaf aggregates follow, one per (op, parent, name)."""
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent_id, op, name, start, end, counts in self.spans:
                rec = {"id": span_id, "parent": parent_id, "op": op, "name": name, "start": start, "end": end}
                if counts:
                    rec["counts"] = counts
                fh.write(json.dumps(rec) + "\n")
            for (op, parent_name, name), (calls, secs) in self.leaves.items():
                rec = {"op": op, "leaf": name, "parent": parent_name, "calls": calls, "seconds": secs}
                fh.write(json.dumps(rec) + "\n")
            if self.dropped:
                fh.write(json.dumps({"dropped_spans": self.dropped}) + "\n")
