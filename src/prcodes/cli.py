"""Command-line front end.

Every file-producing subcommand writes CSV with a leading comment line
of the form ``# manifest: {...}`` carrying the command, its parameters,
the tool version, and the output names, so any artifact can be
regenerated byte-for-byte from its own header.  `_write_csv` is the only
code that fixes that format and opens a file; it derives the command from
the parsed arguments (the subcommand, plus the target for reproduce), so
a manifest cannot name another command than the one that wrote it.  The
output directory defaults to $PRCODES_OUTDIR, else the current directory.

`TARGETS` maps each `prcodes reproduce` target to the function writing it:

    table1, table2    KL divergence between the exact average dual / primal
                      distribution and its closed form, per (k, n)
    fig1, fig2        those exact and closed-form distributions themselves
    table3            exact enumerators of four codes
    fig3              distance bound and a code's minimum distance vs n
    fig4-pr, fig5-pr  ML word error rate and union bound at n = 20 / 32

Exit status: 0 when all requested outputs were written, 1 on domain
errors (bad polynomial, unsupported range, unwritable output, ...), 2 on
usage errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from . import __version__
from .awgn import SimConfig, simulate_wer
from .bounds import (
    dmin_bound,
    dmin_bound_exact,
    ebno_db_to_gamma,
    gv_distance,
    union_bound,
    verify_existence,
)
from .construct import build_code
from .errors import SLOW_SIMULATE_K
from .gf2 import BitPoly, enumerate_primitives, is_primitive
from .weights import (
    avg_dual_approx,
    avg_primal_approx,
    ensemble_average_exact,
    ensemble_summed_counts,
    kld,
    macwilliams,
    weight_enumerator_exact,
)

# canned parameter sets for the reproduce targets: (k, n, reference
# divergence) rows, as (default rows, rows --allow-slow adds), and the
# generator polynomials each curve uses; fig3 runs each of its polynomials
# at n = 2k, 2k + 4, ..., 48
KLD_POINTS = {
    "dual": ([(5, 12, 8.3e-3), (8, 20, 6.17e-4), (10, 25, 3.09e-5)],
             [(15, 31, 1.93e-6)]),
    "primal": ([(10, 25, 1.8e-3), (10, 45, 3.8e-3)],
               [(15, 60, 5.41e-5), (15, 100, 9.47e-5)]),
}
ENUMERATOR_ROWS = [
    (20, "0x13"),
    (32, "0x13"),
    (20, "1+x^2+x^3+x^4+x^5+x^8+x^11"),
    (32, "1+x^2+x^3+x^4+x^5+x^8+x^11"),
]
DISTANCE_GROWTH_POLYS = ["1+x+x^4", "1+x^2+x^3+x^5+x^8",
                         "1+x+x^4+x^6+x^8+x^9+x^11+x^13+x^16"]
WER_N20_POLYS = ["1+x+x^4", "1+x+x^4+x^5+x^6", "1+x^2+x^3+x^5+x^8",
                 "1+x+x^2+x^3+x^5+x^6+x^10"]
WER_N32_POLYS = ["1+x+x^3", "1+x^2+x^5", "1+x+x^3+x^6+x^7", "1+x+x^3+x^4+x^9",
                 "1+x^2+x^3+x^4+x^5+x^8+x^11"]


def _write_csv(args, name: str, params: dict, header: str, rows, seed=None) -> None:
    """Write one artifact under the output directory and print its path."""
    outdir = args.outdir or os.environ.get("PRCODES_OUTDIR") or "."
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    command = args.subcommand
    if command == "reproduce":
        command += f" {args.target}"
    manifest = {"command": command, "params": params, "version": __version__,
                "seed": seed, "outputs": [name]}
    with open(path, "w", newline="\n") as f:
        f.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(f"{v:.12g}" if isinstance(v, float) else str(v)
                             for v in row) + "\n")
    print(path)


def _parse_poly(text: str) -> BitPoly:
    p = BitPoly.parse(text)
    if not is_primitive(p):
        raise ValueError(f"{text!r} does not generate a maximum-length sequence")
    return p


def _ebno_list(text: str) -> tuple[float, ...]:
    try:
        points = tuple(float(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse SNR list {text!r}; expected e.g. 2,3,4.5")
    if not all(math.isfinite(x) for x in points):
        raise ValueError(f"SNR list {text!r} has a non-finite value")
    return points


def _exact_and_approx(k: int, n: int, which: str):
    """Exact ensemble average of the dual or primal distribution, and its
    closed-form estimate (approx8 for the dual, approx9 for the primal)."""
    primal, dual = ensemble_average_exact(k, n)
    if which == "dual":
        return dual, avg_dual_approx(k, n)
    return primal, avg_primal_approx(k, n, mode="primary")


def _bound_curve(poly: BitPoly, n: int, points, source: str, weighted: bool):
    k = poly.degree
    gammas = [ebno_db_to_gamma(db, k, n) for db in points]  # refuse a bad point first
    if source == "exact":
        dist = weight_enumerator_exact(build_code(poly, n)).as_distribution()
    else:
        dist = avg_primal_approx(k, n, mode="primary")
    d = dmin_bound(dist)
    return [(db, union_bound(dist, d, n, gamma, weighted=weighted))
            for db, gamma in zip(points, gammas)]


def _simulate_csv(args, name: str, code, points, max_trials: int,
                  target_errors: int) -> None:
    """Simulate ML decoding of `code` over `points` and write the WER CSV."""
    cfg = SimConfig(code=code, ebno_db_points=points, max_trials=max_trials,
                    target_word_errors=target_errors, seed=args.seed)
    _write_csv(args, name,
               {"poly": code.poly.to_hex(), "n": code.n,
                "ebno_list": list(cfg.ebno_db_points),
                "max_trials": max_trials, "target_errors": target_errors},
               "ebno_db,trials,word_errors,wer",
               [(r.ebno_db, r.trials, r.word_errors, r.wer) for r in simulate_wer(cfg)],
               seed=args.seed)


# ---------------------------------------------------------------------------
# subcommands

def _cmd_primitives(args):
    for p in enumerate_primitives(args.k):
        print(p.to_hex())


def _cmd_weights(args):
    poly = _parse_poly(args.poly)
    enum = weight_enumerator_exact(build_code(poly, args.n))
    if args.dual:
        enum = macwilliams(enum)
    which = "dual" if args.dual else "primal"
    _write_csv(args, f"weights_{which}_{poly.to_hex()}_n{args.n}.csv",
               {"poly": poly.to_hex(), "n": args.n, "dual": args.dual},
               "j,value", enumerate(enum.counts))


def _cmd_avg_weights(args):
    k, n, mode = args.k, args.n, args.mode
    if mode == "exact":
        dist, _ = ensemble_average_exact(k, n)
    elif mode == "approx8":
        dist = avg_dual_approx(k, n)
    elif mode == "approx9":
        dist = avg_primal_approx(k, n, mode="primary")
    else:
        dist = avg_primal_approx(k, n, mode="literal")
    _write_csv(args, f"avg_weights_{mode}_k{k}_n{n}.csv",
               {"k": k, "n": n, "mode": mode}, "j,value", enumerate(dist.values))


def _cmd_kld(args):
    k, n = args.k, args.n
    value = kld(*_exact_and_approx(k, n, args.which))
    print(f"kld {args.which} k={k} n={n}: {value:.6g}")
    _write_csv(args, f"kld_{args.which}_k{k}_n{n}.csv",
               {"k": k, "n": n, "which": args.which}, "k,n,which,kld",
               [(k, n, args.which, value)])


def _cmd_dmin(args):
    k, n = args.k, args.n
    if args.scan:
        rep = verify_existence(k, n)
        d, witness = rep.dmin_bound, rep.witness_d
        print(f"dmin_bound={d} gv={rep.gv_d} "
              f"witness={rep.witness_poly.to_hex()} witness_d={witness}")
        row = (n, d, witness)
    else:
        pairs, sums = ensemble_summed_counts(k, n)
        d = dmin_bound_exact(pairs, sums)
        print(f"dmin_bound={d} gv={gv_distance(n, k)}")
        row = (n, d, "")
    _write_csv(args, f"dmin_k{k}_n{n}.csv",
               {"k": k, "n": n, "scan": args.scan}, "n,dmin_bound,witness_d", [row])


def _cmd_union_bound(args):
    poly = _parse_poly(args.poly)
    points = _ebno_list(args.ebno_list)
    rows = _bound_curve(poly, args.n, points, args.source,
                        weighted=not args.no_prefactor)
    _write_csv(args, f"union_bound_{poly.to_hex()}_n{args.n}.csv",
               {"poly": poly.to_hex(), "n": args.n, "ebno_list": list(points),
                "source": args.source, "no_prefactor": args.no_prefactor},
               "ebno_db,epsilon_ub", rows)


def _cmd_simulate(args):
    poly = _parse_poly(args.poly)
    if poly.degree >= SLOW_SIMULATE_K and not args.allow_slow:
        raise ValueError(f"simulation with k={poly.degree} takes minutes; "
                         "rerun with --allow-slow")
    _simulate_csv(args, f"wer_{poly.to_hex()}_n{args.n}_seed{args.seed}.csv",
                  build_code(poly, args.n), _ebno_list(args.ebno_list),
                  args.max_trials, args.target_errors)


# ---------------------------------------------------------------------------
# canned reproduction targets

def _kld_points(args, which: str):
    default, extended = KLD_POINTS[which]
    return default + extended if args.allow_slow else default


def _kld_table(args, which: str):
    rows = []
    for k, n, ref in _kld_points(args, which):
        value = kld(*_exact_and_approx(k, n, which))
        print(f"k={k} n={n}: computed={value:.3e} reference={ref:.3e}")
        rows.append((k, n, value, ref))
    _write_csv(args, f"{args.target}.csv", {"allow_slow": args.allow_slow},
               "k,n,kld_computed,kld_reference", rows)


def _average_curves(args, which: str):
    for k, n, _ in _kld_points(args, which):
        for tag, dist in zip(("exact", "approx"), _exact_and_approx(k, n, which)):
            _write_csv(args, f"{args.target}_{which}_{tag}_k{k}_n{n}.csv",
                       {"k": k, "n": n, "allow_slow": args.allow_slow},
                       "j,value", enumerate(dist.values))


def _enumerator_table(args):
    for n, poly_text in ENUMERATOR_ROWS:
        poly = _parse_poly(poly_text)
        enum = weight_enumerator_exact(build_code(poly, n))
        _write_csv(args, f"table3_k{poly.degree}_n{n}.csv", {"poly": poly.to_hex(), "n": n},
                   "j,value", enumerate(enum.counts))


def _distance_growth(args):
    for poly_text in DISTANCE_GROWTH_POLYS:
        poly = _parse_poly(poly_text)
        rows = [(n, dmin_bound(avg_primal_approx(poly.degree, n, mode="primary")),
                 weight_enumerator_exact(build_code(poly, n)).min_nonzero_weight())
                for n in range(2 * poly.degree, 49, 4)]
        _write_csv(args, f"fig3_dmin_growth_{poly.to_hex()}.csv", {"poly": poly.to_hex()},
                   "n,dmin_bound,witness_d", rows)


def _wer_curves(args, n: int, polys):
    """Simulated ML word error rate and its union bound, per polynomial."""
    top, max_trials = (8, 2_000_000) if args.allow_slow else (6, 200_000)
    points = tuple(float(x) for x in range(0, top + 1))
    stem = args.target.replace("-", "_")
    for poly_text in polys:
        poly = _parse_poly(poly_text)
        _simulate_csv(args, f"{stem}_wer_{poly.to_hex()}.csv", build_code(poly, n),
                      points, max_trials, 100)
        _write_csv(args, f"{stem}_ub_{poly.to_hex()}.csv",
                   {"poly": poly.to_hex(), "n": n, "ebno_list": list(points)},
                   "ebno_db,epsilon_ub",
                   _bound_curve(poly, n, points, "approx9", weighted=True))


TARGETS = {
    "table1": lambda args: _kld_table(args, "dual"),
    "table2": lambda args: _kld_table(args, "primal"),
    "table3": _enumerator_table,
    "fig1": lambda args: _average_curves(args, "dual"),
    "fig2": lambda args: _average_curves(args, "primal"),
    "fig3": _distance_growth,
    "fig4-pr": lambda args: _wer_curves(args, 20, WER_N20_POLYS),
    "fig5-pr": lambda args: _wer_curves(args, 32, WER_N32_POLYS),
}


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Reads "-<digit>...", "-.<digit>...", "-inf..." and "-nan..." as values,
    not options, so that ``--ebno-list -3,2`` works and ``--ebno-list -inf``
    reaches the non-finite check; no prcodes option starts that way."""

    def _parse_optional(self, arg_string):
        if re.match(r"-(\.?\d|inf|nan)", arg_string, re.IGNORECASE):
            return None
        return super()._parse_optional(arg_string)


@functools.cache  # built once per process: about 2.5 ms a call
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="prcodes",
        description="Weight distributions, distance bounds, and ML-decoding "
                    "simulation for codes built from maximum-length LFSR "
                    "sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    no_effect = "accepted for compatibility; has no effect"

    def add_common(p, allow_slow_help=None):
        if allow_slow_help:
            p.add_argument("--allow-slow", action="store_true", help=allow_slow_help)
        p.add_argument("--outdir", default=None,
                       help="output directory (default: $PRCODES_OUTDIR or .)")

    p = sub.add_parser("primitives", help="list maximal-period polynomials")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=_cmd_primitives)

    p = sub.add_parser("weights", help="exact weight distribution of one code")
    p.add_argument("--poly", required=True, help="hex mask or 1+x+x^4 form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dual", action="store_true",
                   help="emit the dual code's distribution")
    add_common(p)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("avg-weights", help="degree-wide average distribution")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", required=True,
                   choices=["exact", "approx8", "approx9", "literal9"])
    add_common(p, allow_slow_help=no_effect)
    p.set_defaults(func=_cmd_avg_weights)

    p = sub.add_parser("kld", help="divergence of exact vs approximate average")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", required=True, choices=["dual", "primal"])
    add_common(p, allow_slow_help=no_effect)
    p.set_defaults(func=_cmd_kld)

    p = sub.add_parser("dmin", help="minimum-distance bound at one (k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scan", action="store_true",
                   help="exhaustively find a code meeting the bound")
    add_common(p, allow_slow_help=no_effect)
    p.set_defaults(func=_cmd_dmin)

    p = sub.add_parser("union-bound", help="union-bound WER curve")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ebno-list", required=True, help="comma-separated dB values")
    p.add_argument("--source", choices=["approx9", "exact"], default="approx9",
                   help="weight profile feeding the bound")
    p.add_argument("--no-prefactor", action="store_true",
                   help="drop the i/n weighting (plain pairwise-error sum)")
    add_common(p)
    p.set_defaults(func=_cmd_union_bound)

    p = sub.add_parser("simulate", help="Monte Carlo ML-decoding WER")
    p.add_argument("--poly", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ebno-list", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-trials", type=int, default=10_000_000)
    p.add_argument("--target-errors", type=int, default=100)
    add_common(p, allow_slow_help=f"needed for k >= {SLOW_SIMULATE_K}")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="regenerate a canned table or figure")
    p.add_argument("target", choices=TARGETS)
    p.add_argument("--seed", type=int, default=0)
    add_common(p, allow_slow_help="include the k=15 rows / extended SNR grids")
    p.set_defaults(func=lambda args: TARGETS[args.target](args))

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
