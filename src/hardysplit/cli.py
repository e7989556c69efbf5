"""Command-line front door: hardy-split {decompose,split,approx,spectrum,verify}.

Thin drivers over the library modules, which enforce their own invariants
by raising.  Exit codes: 0 success, 1 usage, I/O, or convergence failure,
2 a mathematical invariant check failed.  All reports are UTF-8 JSON with
shortest round-tripping floats, so identical configurations produce
byte-identical output.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import corpus
from .approx import AtomSchedule, single_pole_approx
from .cayley import BoundarySamples, theta_of_x
from .errors import HardySplitError, BoundNotMet, BoundViolated
from .hardy import cauchy_integral, line_profile, poisson_extend
from .rational import LaurentRational
from .serialize import to_json
from .spectral import build_F, dft_line, laplace_reconstruct, spectrum_support_test
from .split import decompose, poisson_recovery, split_atom

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INVARIANT = 2


def _emit(report: dict, output: str | None, csv_text: str | None = None,
          csv_flag: bool = False) -> None:
    text = csv_text if (csv_flag and csv_text is not None) else to_json(report)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        sys.stdout.write(text)
        sys.stdout.write("\n")


def _boundary_from_input(path: str):
    """Line evaluator from a line BoundarySamples JSON file."""
    with open(path, encoding="utf-8") as fh:
        samples = BoundarySamples.from_json(fh.read())
    if samples.domain_tag != "line":
        raise ValueError("expected line-domain samples")
    return lambda x: samples.eval_theta(theta_of_x(x))


def _corpus_entry(args) -> corpus.CorpusEntry:
    if not args.corpus:
        raise ValueError("this command needs --corpus or --input")
    return corpus.get(args.corpus)


def cmd_decompose(args) -> int:
    if not 0.0 < args.p < 1.0:
        print(f"error: decompose needs 0 < p < 1, got {args.p}", file=sys.stderr)
        return EXIT_ERROR
    if args.input:
        f = _boundary_from_input(args.input)
    else:
        f = _corpus_entry(args).boundary
    schedule = AtomSchedule()
    dec = decompose(f, args.p, args.eps, schedule)
    report = dec.to_report()
    report["recovery"] = [
        {"x": x, "y": 0.1, "value": poisson_recovery(dec, x, 0.1)}
        for x in (0.0, 1.0, -1.0)
    ] if dec.plus_atoms else []
    _emit(report, args.output)
    return EXIT_OK


def cmd_split(args) -> int:
    if not 0.0 < args.p < 1.0:
        print(f"error: split needs 0 < p < 1, got {args.p}", file=sys.stderr)
        return EXIT_ERROR
    if args.atom:
        with open(args.atom, encoding="utf-8") as fh:
            R = LaurentRational.from_json(fh.read())
    else:
        entry = _corpus_entry(args)
        if entry.laurent is None:
            print(f"error: corpus member {entry.name} has no Laurent form",
                  file=sys.stderr)
            return EXIT_ERROR
        R = entry.laurent
    res = split_atom(R, args.p, phi_candidates=args.phi_grid, tol=args.tol)
    _emit(res.to_report(), args.output)
    return EXIT_OK


def cmd_approx(args) -> int:
    entry = _corpus_entry(args)
    if args.single_pole:
        res = single_pole_approx(entry.boundary, args.N, args.degree, args.p)
        _emit(res.to_report(), args.output)
        return EXIT_OK
    from .approx import rational_sequence

    if not 0.0 < args.p < 1.0:
        print(f"error: the atom pipeline needs 0 < p < 1, got {args.p}",
              file=sys.stderr)
        return EXIT_ERROR
    seq = rational_sequence(entry.boundary, args.p, args.eps)
    _emit(seq.to_report(), args.output)
    return EXIT_OK


def cmd_spectrum(args) -> int:
    entry = _corpus_entry(args)
    if args.deltas:
        deltas = tuple(float(s) for s in args.deltas.split(","))
        Fp = build_F(entry.f, args.p, delta_list=deltas, L=args.L, n=args.n)
        _emit(Fp.to_report(), args.output, csv_text=Fp.to_csv(),
              csv_flag=args.csv)
        return EXIT_OK
    prof = dft_line(entry.boundary, L=args.L, n=args.n)
    _emit(prof.to_report(), args.output)
    return EXIT_OK


def _verify_spectrum(entry, p: float) -> dict:
    res = spectrum_support_test(entry.boundary, max(p, 1.0))
    expected = entry.side == corpus.UPPER or entry.side == corpus.ZERO
    return {
        "check": "spectrum",
        "expected_in_Hplus": expected,
        "in_Hplus": res["in_Hplus"],
        "ratio": res["ratio"],
        "ok": res["in_Hplus"] == expected,
    }


def _verify_profile(entry, p: float) -> dict:
    heights = (0.1, 0.5, 1.0, 2.0, 5.0)
    if entry.side == corpus.ZERO:
        return {"check": "profile", "ok": True, "monotone": True}
    prof = line_profile(entry.f, p, heights, tol=1e-6).to_report()
    expected = entry.side in (corpus.UPPER, corpus.ZERO)
    return {
        "check": "profile",
        "expected_monotone": expected,
        "monotone": prof["monotone"],
        "values": prof["values"],
        "diverged_heights": prof["diverged_heights"],
        "ok": prof["monotone"] == expected,
    }


def _verify_extension(entry) -> dict:
    if entry.side != corpus.UPPER:
        return {"check": "extension", "ok": True, "skipped": "upper-only check"}
    pts = [0.5j, 1j, 2j, 1.0 + 1j, -2.0 + 0.5j]
    worst = 0.0
    for z in pts:
        pv = poisson_extend(entry.boundary, z)
        cv = cauchy_integral(entry.boundary, z)
        exact = complex(np.asarray(entry.f(np.array([z])))[0])
        worst = max(worst, abs(pv - cv), abs(pv - exact), abs(cv - exact))
    return {"check": "extension", "max_dev": worst, "ok": worst < 1e-6}


def _verify_reconstruct(entry, p: float) -> dict:
    if entry.side != corpus.UPPER:
        return {"check": "reconstruct", "ok": True, "skipped": "upper-only check"}
    Fp = build_F(entry.f, min(p, 1.0), L=1600.0, n=2 ** 17)
    pts = [1j, 2j, 1.0 + 1.5j, -0.5 + 1j]
    worst = max(
        abs(laplace_reconstruct(Fp, z)
            - complex(np.asarray(entry.f(np.array([z])))[0]))
        for z in pts
    )
    return {
        "check": "reconstruct",
        "max_dev": worst,
        "max_cross_delta_dev": Fp.max_cross_delta_dev,
        "ok": worst < 1e-5 and Fp.max_cross_delta_dev < 1e-5,
    }


def cmd_verify(args) -> int:
    entry = _corpus_entry(args)
    checks = {
        "spectrum": lambda: _verify_spectrum(entry, args.p),
        "profile": lambda: _verify_profile(entry, args.p),
        "extension": lambda: _verify_extension(entry),
        "reconstruct": lambda: _verify_reconstruct(entry, args.p),
    }
    selected = [args.check] if args.check else list(checks)
    unknown = [c for c in selected if c not in checks]
    if unknown:
        print(f"error: unknown check(s) {unknown}; choose from {sorted(checks)}",
              file=sys.stderr)
        return EXIT_ERROR
    results = [checks[c]() for c in selected]
    report = {
        "corpus": entry.name,
        "p": args.p,
        "checks": results,
        "all_ok": all(r["ok"] for r in results),
    }
    _emit(report, args.output)
    return EXIT_OK if report["all_ok"] else EXIT_INVARIANT


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hardy-split",
        description="Hardy-space decomposition and spectrum verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, p_default=0.75):
        sp.add_argument("--p", type=float, default=p_default)
        sp.add_argument("--corpus", default=None,
                        help=f"one of {', '.join(corpus.names())}")
        sp.add_argument("--output", default=None)

    sp = sub.add_parser("decompose", help="atom pipeline + per-atom split")
    common(sp)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--input", default=None,
                    help="line BoundarySamples JSON instead of --corpus")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("split", help="split one Laurent atom")
    common(sp)
    sp.add_argument("--atom", default=None, help="LaurentRational JSON file")
    sp.add_argument("--tol", type=float, default=1e-4)
    sp.add_argument("--phi-grid", type=int, default=16, dest="phi_grid",
                    help="fallback grid size: phi candidates scanned only when "
                         "the structural phi fails to converge or breaks the bound")
    sp.set_defaults(fn=cmd_split)

    sp = sub.add_parser("approx", help="single-pole or atom-pipeline fit")
    common(sp)
    sp.add_argument("--single-pole", action="store_true", dest="single_pole")
    sp.add_argument("--N", type=int, default=2)
    sp.add_argument("--degree", type=int, default=64)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.set_defaults(fn=cmd_approx)

    sp = sub.add_parser("spectrum", help="boundary spectrum or F-profile")
    common(sp)
    sp.add_argument("--deltas", default=None,
                    help="comma-separated interior heights for the F-profile")
    sp.add_argument("--L", type=float, default=200.0)
    sp.add_argument("--n", type=int, default=2 ** 14)
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(fn=cmd_spectrum)

    sp = sub.add_parser("verify", help="invariant battery on a corpus member")
    common(sp)
    sp.add_argument("--check", default=None,
                    help="one of spectrum, profile, extension, reconstruct")
    sp.set_defaults(fn=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (BoundNotMet, BoundViolated) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except (HardySplitError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
