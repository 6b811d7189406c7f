"""Workloads: op classes, their seeded input pools and the round schedule.

An op is one ``secwire`` command line plus the input files it reads. Each
workload is a list of op classes. A class has a pool of variants, enough for
``Workload.rounds`` rounds, whose inputs come from ``(data seed, workload,
class, variant)``, plus one extra variant used only for the warm-up op. The
stored references cover every variant of data seeds 1 and 2.

The run seed picks the order: each class walks its own seeded permutation of
the pool, every round runs ``per_round`` ops of every class in a shuffled
order, and the timed loop stops only at a round boundary. Whole rounds keep
the op mix, and so the throughput, the same from seed to seed; walking a
permutation keeps any variant from repeating until the pool is used up.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

DATA_SEEDS = (1, 2)  # 1 is used while tuning; 2 is held out to check a claim


@dataclass(frozen=True)
class OpClass:
    name: str
    per_round: int
    # rng -> (argv with "@file" placeholders, {file name: bytes})
    make: Callable[[np.random.Generator], tuple]


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: int  # rounds the pool covers before a variant repeats
    classes: tuple

    def pool(self, cls: OpClass) -> int:
        """Variants of a class in the timed pool; variant ``pool(cls)`` is the warm-up op."""
        return self.rounds * cls.per_round

    def pool_ops(self) -> list:
        """Every (class, variant) with inputs on disk: the pool plus the warm-up op."""
        return [(cls, v) for cls in self.classes for v in range(self.pool(cls) + 1)]


# -- input file text ------------------------------------------------------


def seq_bytes(symbols, alphabet: int = 2) -> bytes:
    """Sequence file with 40 symbols a line; symbols must be single digits."""
    if alphabet > 10:
        raise ValueError("seq_bytes writes single-digit symbols only")
    digits = np.asarray(symbols, dtype=np.uint8) + ord("0")
    out = np.full(2 * digits.size, ord(" "), dtype=np.uint8)
    out[0::2] = digits
    out[1::2][39::40] = ord("\n")
    out[-1] = ord("\n")
    return f"alphabet {alphabet}\n".encode() + out.tobytes()


def channel_bytes(rows) -> bytes:
    rows = [[float(v) for v in row] for row in rows]
    lines = [f"channel {len(rows)} {len(rows[0])}"]
    lines += [" ".join(repr(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def bsc_rows(p: float) -> list:
    return [[1.0 - p, p], [p, 1.0 - p]]


def fsm_bytes(lines) -> bytes:
    return ("\n".join(lines) + "\n").encode()


def _seed(rng) -> str:
    return str(int(rng.integers(0, 2 ** 31)))


def _wiretap_pair(rng) -> dict:
    """Binary main and wiretap channels with positive secrecy capacity."""
    return {
        "main.ch": channel_bytes(bsc_rows(float(rng.uniform(0.02, 0.08)))),
        "wire.ch": channel_bytes(bsc_rows(float(rng.uniform(0.10, 0.25)))),
    }


# -- Wyner binning sweep --------------------------------------------------

WYNER_TRIALS = 300


def _wyner(n: int, secret: int, random: int):
    def make(rng):
        argv = [
            "wyner", "--N", str(n), "--secret-bits", str(secret), "--random-bits", str(random),
            "--main", "@main.ch", "--wiretap", "@wire.ch", "--trials", str(WYNER_TRIALS),
            "--seed", _seed(rng), "--audit", "--ell", "2",
        ]
        return argv, _wiretap_pair(rng)

    # two per round give the binning sweep about a third of coding-mix op time
    return OpClass(f"wyner-N{n}-c{2 ** (secret + random)}", 2, make)


# -- feedback sessions ----------------------------------------------------

FEEDBACK_N = 12


def _feedback(coded: bool):
    def make(rng):
        u = rng.integers(0, 2, FEEDBACK_N)
        w = u ^ (rng.random(FEEDBACK_N) < 0.1)
        files = {"u.seq": seq_bytes(u), "w.seq": seq_bytes(w)}
        argv = [
            "feedback", "--seq", "@u.seq", "--side", "@w.seq", "--r", "3", "--delta", "0.5",
            "--sessions", "10", "--seed", _seed(rng),
        ]
        if coded:
            files["main.ch"] = channel_bytes(bsc_rows(float(rng.uniform(0.01, 0.03))))
            files["wire.ch"] = channel_bytes(bsc_rows(float(rng.uniform(0.10, 0.25))))
            argv += [
                "--coded", "--N", "8", "--secret-bits", "3", "--random-bits", "2",
                "--main", "@main.ch", "--wiretap", "@wire.ch",
            ]
        return argv, files

    return OpClass("feedback-coded" if coded else "feedback-ideal", 1 if coded else 3, make)


# -- long-sequence --------------------------------------------------------

LONG_N = 200_000


def _source(kind: str, rng) -> np.ndarray:
    if kind == "iid":
        return rng.integers(0, 2, LONG_N)
    flips = rng.random(LONG_N) < 0.05  # two-state Markov chain, flip probability 0.05
    return (int(rng.integers(2)) + np.cumsum(flips)) % 2


def _long(kind: str, op: str):
    def make(rng):
        u = _source(kind, rng)
        files = {"u.seq": seq_bytes(u)}
        if op in ("parse-side", "bound-t3"):
            files["w.seq"] = seq_bytes(u ^ (rng.random(LONG_N) < 0.1))
        if op == "parse-side":
            argv = ["parse", "--seq", "@u.seq", "--side", "@w.seq"]
        elif op == "parse-phrases":
            argv = ["parse", "--seq", "@u.seq", "--phrases"]
        else:
            files.update(_wiretap_pair(rng))
            argv = [
                "bound", op[-2:], "--seq", "@u.seq", "--main", "@main.ch", "--wiretap", "@wire.ch",
                "--k", "1", "--m", "4",
            ]
            if op == "bound-t3":
                argv[4:4] = ["--side", "@w.seq"]
        return argv, files

    # parse --phrases is the op with large report output; two per round also
    # put the median op inside one class instead of at a gap between two
    return OpClass(f"{kind}-{op}", 2 if op == "parse-phrases" else 1, make)


# -- exact leakage --------------------------------------------------------
# Every variant gets its own encoder or 3-ary triple: a small seeded
# perturbation of a base instance, so that no two timed ops solve the same
# problem. Across unrelated random instances the Blahut-Arimoto and
# conditional-gradient iteration counts swing from 1 to 2e5; perturbations
# this small keep them in a narrow band, and so keep op cost comparable from
# seed to seed.

LEAK_TRIPLE = {"main.ch": channel_bytes(bsc_rows(0.05)), "wire.ch": channel_bytes(bsc_rows(0.15))}

TRIPLES_3 = (
    ([[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.05, 0.15, 0.8]], [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
    ([[0.9, 0.05, 0.05], [0.2, 0.7, 0.1], [0.1, 0.1, 0.8]], [[0.6, 0.3, 0.1], [0.2, 0.6, 0.2], [0.25, 0.15, 0.6]]),
)
TRIPLE_SPREAD = 0.01  # largest change of one transition probability before renormalising
GAMMA_RATE = "0.65"


def _perturbed(rows, rng) -> list:
    rows = np.asarray(rows) + rng.uniform(-TRIPLE_SPREAD, TRIPLE_SPREAD, np.shape(rows))
    return (rows / rows.sum(axis=1, keepdims=True)).tolist()


def _scrambler(eps0: float, eps1: float, next_state) -> bytes:
    """Two-state encoder: x = u xor s, flipped with probability eps_s."""
    lines = ["encoder", "k 1", "m 1", "alpha 2", "beta 2", "states 2", "init 0"]
    for s, eps in ((0, eps0), (1, eps1)):
        for u in (0, 1):
            lines += [f"emit {s} {u} {u ^ s} {1.0 - eps!r}", f"emit {s} {u} {1 - (u ^ s)} {eps!r}"]
            lines.append(f"next {s} {u} {next_state(s, u)}")
    return fsm_bytes(lines)


def _plain_encoder(n: int, rng) -> bytes:
    # unequal flips keep Blahut-Arimoto busy for about 10^3 iterations (with
    # next state u instead of s xor u, the count swings from 5e3 to the 2e5
    # cap under these perturbations); equal flips make the induced channel
    # symmetric, so its cost is the enumeration
    if n == 8:
        return _scrambler(0.02 + rng.uniform(-0.002, 0.002), 0.3 + rng.uniform(-0.01, 0.01), lambda s, u: s ^ u)
    eps = 0.1 + rng.uniform(-0.01, 0.01)
    return _scrambler(eps, eps, lambda s, u: s ^ u)


PLAIN_DECODER = fsm_bytes(
    ["decoder", "k 1", "m 1", "gamma 2", "alpha 2", "states 1", "init 0", "out 0 0 0", "out 0 1 1", "next 0 * 0"]
)

SIDE_N = 6


def _side_encoder(rng) -> bytes:
    """Two-state side-information encoder: x = u xor w xor s, flipped with probability flip[s]."""
    flip = (0.1 + rng.uniform(-0.01, 0.01), 0.2 + rng.uniform(-0.01, 0.01))
    return fsm_bytes(
        ["encoder", "k 1", "m 1", "alpha 2", "beta 2", "states 2", "init 0", "side 2"]
        + [
            f"emit {s} {u} {w} {x} {p!r}"
            for s in (0, 1)
            for u in (0, 1)
            for w in (0, 1)
            for x, p in (((u ^ w ^ s), 1.0 - flip[s]), (1 - (u ^ w ^ s), flip[s]))
        ]
        + [f"next {s} {u} {w} {u ^ w}" for s in (0, 1) for u in (0, 1) for w in (0, 1)]
    )


SIDE_DECODER = fsm_bytes(
    ["decoder", "k 1", "m 1", "gamma 2", "alpha 2", "states 1", "init 0", "side 2"]
    + [f"out 0 {y} {w} {y ^ w}" for y in (0, 1) for w in (0, 1)]
    + ["next 0 * * 0"]
)
LEAK_CHANNEL = channel_bytes(bsc_rows(0.2))


def _plain(n: int):
    def make(rng):
        files = {"enc.fsm": _plain_encoder(n, rng), "dec.fsm": PLAIN_DECODER, "u.seq": seq_bytes(rng.integers(0, 2, n))}
        files.update(LEAK_TRIPLE)
        argv = [
            "simulate", "--enc", "@enc.fsm", "--dec", "@dec.fsm", "--main", "@main.ch", "--wiretap", "@wire.ch",
            "--seq", "@u.seq", "--trials", "20", "--seed", _seed(rng), "--exact-leakage",
        ]
        return argv, files

    return OpClass(f"plain-n{n}", 1, make)


def _side(rng):
    files = {
        "enc.fsm": _side_encoder(rng), "dec.fsm": SIDE_DECODER, "leak.ch": LEAK_CHANNEL,
        "u.seq": seq_bytes(rng.integers(0, 2, SIDE_N)), "w.seq": seq_bytes(rng.integers(0, 2, SIDE_N)),
    }
    files.update(LEAK_TRIPLE)
    argv = [
        "simulate", "--enc", "@enc.fsm", "--dec", "@dec.fsm", "--main", "@main.ch", "--wiretap", "@wire.ch",
        "--seq", "@u.seq", "--side", "@w.seq", "--trials", "20", "--seed", _seed(rng), "--exact-leakage",
        "--leak", "@leak.ch",
    ]
    return argv, files


def _capacity(index: int, gamma: bool):
    main, wire = TRIPLES_3[index]

    def make(rng):
        argv = ["capacity", "--main", "@main.ch", "--wiretap", "@wire.ch"]
        if gamma:
            argv += ["--gamma", GAMMA_RATE]
        return argv, {"main.ch": channel_bytes(_perturbed(main, rng)), "wire.ch": channel_bytes(_perturbed(wire, rng))}

    return OpClass(f"{'gamma' if gamma else 'secrecy'}-T{index + 1}", 1, make)


# Two workloads, so that each run can measure for long enough on a noisy
# shared host (see README.md). coding-mix joins the binning sweep, the
# feedback sessions and the exact-leakage ops; long-sequence stays apart
# because it is the only workload that parses long files in bulk.
WYNER_CLASSES = tuple(
    _wyner(n, s, r) for n, s, r in ((8, 3, 3), (8, 4, 4), (10, 4, 4), (10, 5, 5), (12, 3, 3), (12, 5, 5), (12, 6, 6))
)
FEEDBACK_CLASSES = (_feedback(False), _feedback(True))
EXACT_CLASSES = (_plain(8), _plain(10), OpClass("side-n6", 1, _side)) + tuple(
    _capacity(i, g) for g in (False, True) for i in range(len(TRIPLES_3))
)
LONG_CLASSES = tuple(
    _long(kind, op) for kind in ("iid", "markov") for op in ("parse-side", "parse-phrases", "bound-t1", "bound-t3")
)

WORKLOADS = {
    w.name: w
    for w in (
        Workload("coding-mix", 16, WYNER_CLASSES + FEEDBACK_CLASSES + EXACT_CLASSES),
        Workload("long-sequence", 24, LONG_CLASSES),
    )
}


def _tag(name: str) -> int:
    return zlib.crc32(name.encode())


def make_op(workload: Workload, cls: OpClass, variant: int, data_seed: int) -> tuple:
    """(argv, files) of one variant of a class."""
    rng = np.random.default_rng([data_seed, _tag(workload.name), _tag(cls.name), variant])
    return cls.make(rng)


def write_op(workdir, workload: Workload, cls: OpClass, variant: int, data_seed: int) -> list:
    """Write one variant's input files under workdir/<class>/ and return its argv."""
    argv, files = make_op(workload, cls, variant, data_seed)
    clsdir = workdir / cls.name
    clsdir.mkdir(parents=True, exist_ok=True)
    for name, data in files.items():
        (clsdir / f"{variant}-{name}").write_bytes(data)
    return [str(clsdir / f"{variant}-{a[1:]}") if a.startswith("@") else a for a in argv]


def op_key(cls: OpClass, variant: int) -> str:
    return f"{cls.name}/{variant}"


def schedule(workload: Workload, seed: int):
    """Endless seeded sequence of rounds; each round is a list of (class, variant)."""
    rng = np.random.default_rng([_tag("schedule"), seed % 2 ** 64])  # any int, negative too
    perms = [rng.permutation(workload.pool(cls)) for cls in workload.classes]
    r = 0
    while True:
        ops = [
            (cls, int(perm[(r * cls.per_round + j) % len(perm)]))
            for cls, perm in zip(workload.classes, perms)
            for j in range(cls.per_round)
        ]
        yield [ops[i] for i in rng.permutation(len(ops))]
        r += 1
