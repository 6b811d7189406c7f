"""Command-line interface.

Each subcommand handler loads its inputs, calls the library and returns its
results (the feedback handler, its session rows). main builds every document
in one place: the resolved configuration (including the seed and the
SECWIRE_THREADS setting), then the results, rendered through the
deterministic formatter, so identical invocations produce byte-identical
output. Exit codes: 0 success, 2 validation error, 3 enumeration budget
exceeded, 64 usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys

import numpy as np

from . import bounds as bd
from . import channels as ch
from . import feedback_binning as fb
from . import fsm_codec as fc
from . import info_measures as im
from . import parsing as pz
from . import report as rp
from . import sequences as sq
from . import wyner_binning as wb
from .errors import BudgetError, ValidationError
from .rand import check_seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(64)


def _threads() -> int:
    raw = os.environ.get("SECWIRE_THREADS", "1")
    try:
        val = int(raw)
    except ValueError:
        raise ValidationError(f"SECWIRE_THREADS must be an integer, got {raw!r}") from None
    if val < 1:
        raise ValidationError(f"SECWIRE_THREADS must be >= 1, got {val}")
    return val


def _config(args) -> dict:
    cfg = {key.replace("_", "-"): val for key, val in vars(args).items() if key not in ("handler", "command")}
    cfg["threads"] = _threads()
    return {"command": args.command, "config": cfg}


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("json", "csv"), default="json")


def _load_triple(args) -> ch.ChannelTriple:
    return ch.ChannelTriple(ch.load_channel(args.main), ch.load_channel(args.wiretap))


def _cmd_parse(args) -> dict:
    u = sq.load_sequence(args.seq)
    parse = pz.incremental_parse(u)
    results = {
        "n": len(u),
        "alphabet": u.alphabet.size,
        "c": parse.c,
        "rho": pz._lz_rate(parse, len(u)),
        "last_incomplete": parse.last_incomplete,
    }
    if args.phrases:
        results["phrases"] = parse.phrases
    if args.side:
        w = sq.load_sequence(args.side)
        jp = pz.joint_parse(u, w)
        results["c_joint"] = jp.c_joint
        results["c_w"] = jp.c_w
        results["multiplicities"] = [m for _, m in jp.w_phrases]
        results["rho_conditional"] = pz._rate_of_multiplicities(results["multiplicities"], len(u))
    return results


def _cmd_channel(args) -> dict:
    main = ch.load_channel(args.main)
    results = {
        "main": {"in": main.in_alphabet.size, "out": main.out_alphabet.size, "valid": True}
    }
    if args.wiretap:
        wiretap = ch.load_channel(args.wiretap)
        triple = ch.ChannelTriple(main, wiretap)
        results["wiretap"] = {"in": wiretap.in_alphabet.size, "out": wiretap.out_alphabet.size, "valid": True}
        results["cascade"] = {"in": triple.cascade.in_alphabet.size, "out": triple.cascade.out_alphabet.size}
        if args.emit_cascade:
            results["cascade"]["rows"] = [[float(v) for v in row] for row in triple.cascade.rows]
    elif args.emit_cascade:
        raise ValidationError("--emit-cascade needs --wiretap")
    return results


def _cmd_capacity(args) -> dict:
    main = ch.load_channel(args.main)
    if args.gamma is not None and not args.wiretap:
        raise ValidationError("--gamma needs --wiretap")
    if args.wiretap:
        triple = ch.ChannelTriple(main, ch.load_channel(args.wiretap))
        if args.gamma is not None:
            res = im.gamma(triple, args.gamma, tol=args.tol)
            results = {"kind": "gamma", "rate": args.gamma, **dataclasses.asdict(res)}
        else:
            res = im.secrecy_capacity(triple, tol=args.tol)
            results = {"kind": "secrecy", **dataclasses.asdict(res)}
    else:
        res = im.channel_capacity(main, tol=args.tol)
        results = {"kind": "channel", **dataclasses.asdict(res)}
    return results


def _report_dict(rep: bd.BoundReport) -> dict:
    out = {
        "bound_value": rep.bound_value,
        "vacuous": rep.vacuous,
        "ell_star": rep.ell_star,
        "terms": dict(rep.terms),
    }
    out["alternative"] = _report_dict(rep.alternative) if rep.alternative else None
    return out


def _cmd_bound(args) -> dict:
    triple = _load_triple(args)
    cs = im.secrecy_capacity(triple, tol=1e-10)
    u = sq.load_sequence(args.seq)
    if args.theorem == "t3":
        if not args.side:
            raise ValidationError("t3 needs --side")
        w = sq.load_sequence(args.side)
        params = _params(args, u.alphabet.size, w.alphabet.size)
        rep = bd.theorem3_bound(u, w, params, cs.value, n=args.n)
        results = _report_dict(rep)
    elif args.theorem == "t1":
        params = _params(args, u.alphabet.size, 1)
        rep = bd.theorem1_bound(u, params, cs.value, n=args.n)
        results = _report_dict(rep)
    else:
        params = _params(args, u.alphabet.size, 1)
        if args.ell is None:
            n = args.n if args.n is not None else len(u)
            _, ell = bd.zeta_n(n, params)
        else:
            ell = args.ell
        i_xz = im.mutual_information(cs.argmax, triple.cascade)
        value = bd.theorem2_bound(params, ell, i_xz)
        results = {
            "bound_value": value,
            "ell": ell,
            "i_xz_star": i_xz,
            "terms": {"m": params.m, "k": params.k, "eps_s": params.eps_s, "q_e": params.q_e},
        }
    results["c_s"] = cs.value
    results["c_s_certified_gap"] = cs.certified_gap
    return results


def _params(args, alpha: int, omega: int) -> bd.BoundParams:
    return bd.BoundParams(
        k=args.k,
        m=args.m,
        q_e=args.qe,
        q_d=args.qd,
        eps_r=args.eps_r,
        eps_s=args.eps_s,
        eps_n=args.eps_n,
        alpha=alpha,
        omega=omega,
    )


def _cmd_simulate(args) -> dict:
    enc = fc.load_fsm(args.enc)
    dec = fc.load_fsm(args.dec)
    if not isinstance(enc, fc.StochasticEncoderSpec):
        raise ValidationError(f"{args.enc} is not an encoder spec")
    if not isinstance(dec, fc.DecoderSpec):
        raise ValidationError(f"{args.dec} is not a decoder spec")
    triple = _load_triple(args)
    u = sq.load_sequence(args.seq)
    w = sq.load_sequence(args.side) if args.side else None
    stats = fc.simulate_system(
        enc, dec, triple, u, trials=args.trials, seed=args.seed, w=w, collect_joint=args.joint
    )
    results = {
        "trials": stats.trials,
        "chunk_count": stats.chunk_count,
        "bit_error_rate": stats.bit_error_rate,
        "worst_chunk_error": stats.worst_chunk_error,
        "per_chunk_error": list(stats.per_chunk_error),
    }
    if args.joint:
        results["empirical_joint"] = {
            ":".join(str(v) for v in key): freq for key, freq in stats.empirical_joint.items()
        }
    if args.exact_leakage:
        if enc.side_size == 1:
            res = fc.max_mi_security(enc, triple, len(u), tol=args.tol)
            results["leakage"] = {
                "total_bits": res.value,
                "per_symbol": res.value / len(u),
                "certified_gap": res.certified_gap,
                "iterations": res.iterations,
            }
        else:
            if not args.leak:
                raise ValidationError("side-information encoders need --leak for --exact-leakage")
            rep = fc.conditional_leakage(enc, triple, ch.load_channel(args.leak), len(u))
            results["leakage"] = {**dataclasses.asdict(rep), "sandwich_slack": rep.sandwich_slack}
    return results


def _cmd_wyner(args) -> dict:
    triple = _load_triple(args)
    in_size = triple.main.in_alphabet.size
    if args.dist:
        try:
            dist = [float(t) for t in args.dist.split(",")]
        except ValueError:
            raise ValidationError(f"--dist must be comma-separated numbers, got {args.dist!r}") from None
    else:
        dist = [1.0 / in_size] * in_size
    code = wb.build_code(args.N, args.secret_bits, args.random_bits, dist, seed=args.seed)
    err = wb.monte_carlo_error(code, triple.main, trials=args.trials, seed=args.seed)
    results = {
        "block_len": code.block_len,
        "secret_bits": code.secret_bits,
        "random_bits": code.random_bits,
        "secret_error_rate": err.secret_error_rate,
        "word_error_rate": err.word_error_rate,
        "trials": err.trials,
    }
    try:
        results["leakage_bits"] = wb.code_leakage(code, triple.cascade)
        results["leakage_per_use"] = results["leakage_bits"] / code.block_len
    except BudgetError as exc:
        results["leakage_bits"] = None
        results["leakage_note"] = str(exc)
    if args.audit:
        if args.ell is None:
            raise ValidationError("--audit needs --ell")
        if args.ell < 1:
            raise ValidationError(f"ell must be a positive integer, got {args.ell}")
        if args.N % args.ell != 0:
            raise ValidationError(f"--ell {args.ell} does not divide N = {args.N}")
        params = bd.BoundParams(
            k=args.k, m=args.N // args.ell, q_e=args.qe, eps_s=args.eps_s, alpha=in_size
        )
        results["audit"] = dataclasses.asdict(wb.randomness_audit(code, triple, params, args.ell))
    if args.pipeline:
        if not args.seq:
            raise ValidationError("--pipeline needs --seq")
        u = sq.load_sequence(args.seq)
        block = args.N if args.pipeline == "vtf" else None
        results["pipeline"] = wb.separation_plan(u, triple, args.delta, args.pipeline, block_len=block)
    return results


def _cmd_feedback(args) -> list:
    if args.sessions < 1:
        raise ValidationError(f"sessions must be >= 1, got {args.sessions}")
    u = sq.load_sequence(args.seq)
    w = sq.load_sequence(args.side)
    if args.coded:
        for flag in ("N", "secret_bits", "random_bits", "main", "wiretap"):
            if getattr(args, flag) is None:
                raise ValidationError(f"--coded needs --{flag.replace('_', '-')}")
        triple = _load_triple(args)
        code = wb.build_code(
            args.N,
            args.secret_bits,
            args.random_bits,
            [1.0 / triple.main.in_alphabet.size] * triple.main.in_alphabet.size,
            seed=int(np.random.SeedSequence([args.seed, 1]).generate_state(1)[0]),
        )
    rows = []
    for s in range(args.sessions):
        assign_seed = int(np.random.SeedSequence([args.seed, s, 0]).generate_state(1)[0])
        if args.coded:
            transport = fb.CodedTransport(
                code=code,
                main=triple.main,
                seed=int(np.random.SeedSequence([args.seed, s, 1]).generate_state(1)[0]),
            )
        else:
            transport = fb.IdealTransport()
        tr = fb.run_session(u, w, r=args.r, delta=args.delta, transport=transport, seed=assign_seed)
        rows.append(
            {
                "session": s,
                "chunks_sent": tr.chunks_sent,
                "i_star": tr.i_star,
                "acked": tr.acked,
                "correct": tr.correct,
                "compression_ratio": tr.compression_ratio,
                "chunk_error_count": tr.chunk_error_count,
                "reconstruction": list(tr.reconstruction.data) if tr.reconstruction else None,
            }
        )
    return rows


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="secwire", description="LZ-complexity wiretap coding toolkit")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("parse", help="incremental parsing and LZ complexities")
    p.add_argument("--seq", required=True)
    p.add_argument("--side", default=None)
    p.add_argument("--phrases", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("channel", help="validate channels and compose the cascade")
    p.add_argument("--main", required=True)
    p.add_argument("--wiretap", default=None)
    p.add_argument("--emit-cascade", action="store_true")
    _add_common(p)
    p.set_defaults(handler=_cmd_channel)

    p = sub.add_parser("capacity", help="channel capacity, secrecy capacity, Gamma[R]")
    p.add_argument("--main", required=True)
    p.add_argument("--wiretap", default=None)
    p.add_argument("--gamma", type=float, default=None, help="rate R for Gamma[R]")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(handler=_cmd_capacity)

    p = sub.add_parser("bound", help="Theorem 1/2/3 converse bounds")
    p.add_argument("theorem", choices=("t1", "t2", "t3"))
    p.add_argument("--seq", required=True)
    p.add_argument("--side", default=None)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--qe", type=int, default=1)
    p.add_argument("--qd", type=int, default=1)
    p.add_argument("--eps-r", type=float, default=0.0)
    p.add_argument("--eps-s", type=float, default=0.0)
    p.add_argument("--eps-n", type=float, default=0.0)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--ell", type=int, default=None, help="chunk count for t2")
    p.add_argument("--main", required=True)
    p.add_argument("--wiretap", required=True)
    _add_common(p)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("simulate", help="finite-state encoder/decoder simulation")
    p.add_argument("--enc", required=True)
    p.add_argument("--dec", required=True)
    p.add_argument("--main", required=True)
    p.add_argument("--wiretap", required=True)
    p.add_argument("--seq", required=True)
    p.add_argument("--side", default=None)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--joint", action="store_true", help="collect the empirical block joint")
    p.add_argument("--exact-leakage", action="store_true")
    p.add_argument("--leak", default=None, help="side-info leak channel file")
    p.add_argument("--tol", type=float, default=1e-9)
    _add_common(p)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("wyner", help="random binning codes: error, leakage, audit")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--secret-bits", type=int, required=True)
    p.add_argument("--random-bits", type=int, required=True)
    p.add_argument("--main", required=True)
    p.add_argument("--wiretap", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dist", default=None, help="comma-separated input distribution")
    p.add_argument("--audit", action="store_true")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--qe", type=int, default=1)
    p.add_argument("--eps-s", type=float, default=0.0)
    p.add_argument("--ell", type=int, default=None)
    p.add_argument("--pipeline", choices=("fixed", "vtf"), default=None)
    p.add_argument("--seq", default=None)
    p.add_argument("--delta", type=float, default=0.1)
    _add_common(p)
    p.set_defaults(handler=_cmd_wyner)

    p = sub.add_parser("feedback", help="feedback binning sessions")
    p.add_argument("--seq", required=True)
    p.add_argument("--side", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--sessions", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--coded", action="store_true")
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--secret-bits", type=int, default=None)
    p.add_argument("--random-bits", type=int, default=None)
    p.add_argument("--main", default=None)
    p.add_argument("--wiretap", default=None)
    _add_common(p)
    p.set_defaults(handler=_cmd_feedback)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built by the first main call and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        doc = _config(args)
        if hasattr(args, "seed"):
            check_seed(args.seed)
        results = args.handler(args)
        if args.command != "feedback":
            doc["results"] = results
            text = rp.render_csv(doc) if args.format == "csv" else rp.render_json(doc) + "\n"
        elif args.format == "csv":
            text = rp.render_csv_rows(results, common=doc)
        else:
            # JSON lines: the config, then one line per session row
            text = "\n".join(rp.render_json(obj, indent=None) for obj in [doc, *results]) + "\n"
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except ValidationError as exc:
        sys.stderr.write(f"secwire: validation error: {exc}\n")
        return 2
    except BudgetError as exc:
        sys.stderr.write(f"secwire: budget exceeded: {exc}\n")
        return 3
    except FileNotFoundError as exc:
        sys.stderr.write(f"secwire: file not found: {exc.filename}\n")
        return 2
    except IsADirectoryError as exc:
        sys.stderr.write(f"secwire: not a file: {exc.filename}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
