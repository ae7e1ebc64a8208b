"""Command-line front end.

Every file-producing subcommand writes CSV with a leading comment line
of the form ``# manifest: {...}`` carrying the command, its parameters,
the tool version, and the output names, so any artifact can be
regenerated byte-for-byte from its own header.  The output directory
defaults to $PRCODES_OUTDIR, falling back to the current directory.

Exit status: 0 when all requested outputs were written, 1 on domain
errors (bad polynomial, unsupported range, ...), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .awgn import SimConfig, simulate_wer
from .bounds import dmin_bound, ebno_db_to_gamma, gv_distance, union_bound, verify_existence
from .construct import build_code
from .gf2 import BitPoly, enumerate_primitives, is_primitive
from .weights import (
    avg_dual_approx,
    avg_primal_approx,
    ensemble_average_exact,
    kld,
    macwilliams,
    weight_enumerator_exact,
)

# ensembles above this k, and simulations at or above it, take minutes
SLOW_ENSEMBLE_K = 13
SLOW_SIMULATE_K = 12

# canned parameter sets for the reproduce targets: (k, n) grids with
# reference values, and the generator polynomials each curve uses
KLD_DUAL_POINTS = [(5, 12, 8.3e-3), (8, 20, 6.17e-4), (10, 25, 3.09e-5)]
KLD_DUAL_SLOW = [(15, 31, 1.93e-6)]
KLD_PRIMAL_POINTS = [(10, 25, 1.8e-3), (10, 45, 3.8e-3)]
KLD_PRIMAL_SLOW = [(15, 60, 5.41e-5), (15, 100, 9.47e-5)]
ENUMERATOR_ROWS = [
    (20, "0x13"),
    (32, "0x13"),
    (20, "1+x^2+x^3+x^4+x^5+x^8+x^11"),
    (32, "1+x^2+x^3+x^4+x^5+x^8+x^11"),
]
DISTANCE_GROWTH_POLYS = [
    ("1+x+x^4", range(8, 49, 4)),
    ("1+x^2+x^3+x^5+x^8", range(16, 49, 4)),
    ("1+x+x^4+x^6+x^8+x^9+x^11+x^13+x^16", range(32, 49, 4)),
]
WER_N20_POLYS = ["1+x+x^4", "1+x+x^4+x^5+x^6", "1+x^2+x^3+x^5+x^8",
                 "1+x+x^2+x^3+x^5+x^6+x^10"]
WER_N32_POLYS = ["1+x+x^3", "1+x^2+x^5", "1+x+x^3+x^6+x^7", "1+x+x^3+x^4+x^9",
                 "1+x^2+x^3+x^4+x^5+x^8+x^11"]
REPRODUCE_TARGETS = ("table1", "table2", "table3", "fig1", "fig2", "fig3",
                     "fig4-pr", "fig5-pr")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _outdir(args) -> str:
    d = args.outdir or os.environ.get("PRCODES_OUTDIR") or "."
    os.makedirs(d, exist_ok=True)
    return d


def _write_csv(path: str, manifest: dict, header: str, rows) -> None:
    with open(path, "w", newline="\n") as f:
        f.write("# manifest: " + json.dumps(manifest, sort_keys=True) + "\n")
        f.write(header + "\n")
        for row in rows:
            f.write(",".join(_fmt(v) for v in row) + "\n")
    print(path)


def _manifest(command: str, params: dict, outputs: list[str], seed=None) -> dict:
    return {
        "command": command,
        "params": params,
        "version": __version__,
        "seed": seed,
        "outputs": outputs,
    }


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


def _require_fast(kind: str, k: int, cap: int, allow_slow: bool) -> None:
    if k >= cap and not allow_slow:
        raise ValueError(
            f"{kind} with k={k} takes minutes; rerun with --allow-slow"
        )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_primitives(args) -> int:
    for p in enumerate_primitives(args.k):
        print(p.to_hex())
    return 0


def _cmd_weights(args) -> int:
    poly = _parse_poly(args.poly)
    code = build_code(poly, args.n)
    enum = weight_enumerator_exact(code)
    which = "dual" if args.dual else "primal"
    if args.dual:
        enum = macwilliams(enum)
    name = f"weights_{which}_{poly.to_hex()}_n{args.n}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("weights",
                    {"poly": poly.to_hex(), "n": args.n, "dual": args.dual},
                    [name])
    _write_csv(path, man, "j,value", list(enumerate(enum.counts)))
    return 0


def _cmd_avg_weights(args) -> int:
    k, n, mode = args.k, args.n, args.mode
    if mode == "exact":
        _require_fast("exact ensemble average", k, SLOW_ENSEMBLE_K, args.allow_slow)
        dist, _ = ensemble_average_exact(k, n)
    elif mode == "approx8":
        dist = avg_dual_approx(k, n)
    elif mode == "approx9":
        dist = avg_primal_approx(k, n, mode="primary")
    else:
        dist = avg_primal_approx(k, n, mode="literal")
    name = f"avg_weights_{mode}_k{k}_n{n}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("avg-weights", {"k": k, "n": n, "mode": mode}, [name])
    _write_csv(path, man, "j,value", list(enumerate(dist.values)))
    return 0


def _cmd_kld(args) -> int:
    k, n = args.k, args.n
    _require_fast("exact ensemble average", k, SLOW_ENSEMBLE_K, args.allow_slow)
    primal, dual = ensemble_average_exact(k, n)
    if args.which == "dual":
        value = kld(dual, avg_dual_approx(k, n))
    else:
        value = kld(primal, avg_primal_approx(k, n, mode="primary"))
    print(f"kld {args.which} k={k} n={n}: {value:.6g}")
    name = f"kld_{args.which}_k{k}_n{n}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("kld", {"k": k, "n": n, "which": args.which}, [name])
    _write_csv(path, man, "k,n,which,kld", [(k, n, args.which, value)])
    return 0


def _cmd_dmin(args) -> int:
    k, n = args.k, args.n
    _require_fast("exact ensemble average", k, SLOW_ENSEMBLE_K, args.allow_slow)
    if args.scan:
        rep = verify_existence(k, n)
        d, witness = rep.dmin_bound, rep.witness_d
        print(f"dmin_bound={d} gv={rep.gv_d} "
              f"witness={rep.witness_poly.to_hex()} witness_d={witness}")
        row = (n, d, witness)
    else:
        abar, _ = ensemble_average_exact(k, n)
        d = dmin_bound(abar)
        print(f"dmin_bound={d} gv={gv_distance(n, k)}")
        row = (n, d, "")
    name = f"dmin_k{k}_n{n}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("dmin", {"k": k, "n": n, "scan": args.scan}, [name])
    _write_csv(path, man, "n,dmin_bound,witness_d", [row])
    return 0


def _bound_curve(k: int, n: int, points, source: str, poly: BitPoly,
                 weighted: bool):
    if source == "exact":
        dist = weight_enumerator_exact(build_code(poly, n)).as_distribution()
    else:
        dist = avg_primal_approx(k, n, mode="primary")
    d = dmin_bound(dist)
    rows = []
    for db in points:
        eps = union_bound(dist, d, n, ebno_db_to_gamma(db, k, n),
                          weighted=weighted)
        rows.append((db, eps))
    return rows


def _cmd_union_bound(args) -> int:
    poly = _parse_poly(args.poly)
    k, n = poly.degree, args.n
    points = _ebno_list(args.ebno_list)
    rows = _bound_curve(k, n, points, args.source, poly,
                        weighted=not args.no_prefactor)
    name = f"union_bound_{poly.to_hex()}_n{n}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("union-bound",
                    {"poly": poly.to_hex(), "n": n, "ebno_list": list(points),
                     "source": args.source, "no_prefactor": args.no_prefactor},
                    [name])
    _write_csv(path, man, "ebno_db,epsilon_ub", rows)
    return 0


def _cmd_simulate(args) -> int:
    poly = _parse_poly(args.poly)
    _require_fast("simulation", poly.degree, SLOW_SIMULATE_K, args.allow_slow)
    code = build_code(poly, args.n)
    cfg = SimConfig(
        code=code,
        ebno_db_points=_ebno_list(args.ebno_list),
        max_trials=args.max_trials,
        target_word_errors=args.target_errors,
        seed=args.seed,
    )
    results = simulate_wer(cfg)
    name = f"wer_{poly.to_hex()}_n{args.n}_seed{args.seed}.csv"
    path = os.path.join(_outdir(args), name)
    man = _manifest("simulate",
                    {"poly": poly.to_hex(), "n": args.n,
                     "ebno_list": list(cfg.ebno_db_points),
                     "max_trials": args.max_trials,
                     "target_errors": args.target_errors},
                    [name], seed=args.seed)
    _write_csv(path, man, "ebno_db,trials,word_errors,wer",
               [(r.ebno_db, r.trials, r.word_errors, r.wer) for r in results])
    return 0


# ---------------------------------------------------------------------------
# canned reproduction targets

def _reproduce_kld_table(args, which: str, points, name: str) -> int:
    rows = []
    for k, n, ref in points:
        primal, dual = ensemble_average_exact(k, n)
        if which == "dual":
            value = kld(dual, avg_dual_approx(k, n))
        else:
            value = kld(primal, avg_primal_approx(k, n, mode="primary"))
        print(f"k={k} n={n}: computed={value:.3e} reference={ref:.3e}")
        rows.append((k, n, value, ref))
    path = os.path.join(_outdir(args), name)
    man = _manifest(f"reproduce {args.target}", {"allow_slow": args.allow_slow},
                    [name])
    _write_csv(path, man, "k,n,kld_computed,kld_reference", rows)
    return 0


def _reproduce_avg_pair(args, pairs, which: str, prefix: str) -> int:
    outdir = _outdir(args)
    for k, n in pairs:
        primal, dual = ensemble_average_exact(k, n)
        if which == "dual":
            exact, approx = dual, avg_dual_approx(k, n)
        else:
            exact, approx = primal, avg_primal_approx(k, n, mode="primary")
        for tag, dist in (("exact", exact), ("approx", approx)):
            name = f"{prefix}_{tag}_k{k}_n{n}.csv"
            man = _manifest(f"reproduce {args.target}",
                            {"k": k, "n": n, "allow_slow": args.allow_slow},
                            [name])
            _write_csv(os.path.join(outdir, name), man, "j,value",
                       list(enumerate(dist.values)))
    return 0


def _cmd_reproduce(args) -> int:
    target = args.target
    outdir = _outdir(args)
    if target == "table1":
        points = KLD_DUAL_POINTS + (KLD_DUAL_SLOW if args.allow_slow else [])
        return _reproduce_kld_table(args, "dual", points, "table1.csv")
    if target == "table2":
        points = KLD_PRIMAL_POINTS + (KLD_PRIMAL_SLOW if args.allow_slow else [])
        return _reproduce_kld_table(args, "primal", points, "table2.csv")
    if target == "table3":
        for n, poly_text in ENUMERATOR_ROWS:
            poly = _parse_poly(poly_text)
            enum = weight_enumerator_exact(build_code(poly, n))
            name = f"table3_k{poly.degree}_n{n}.csv"
            man = _manifest("reproduce table3",
                            {"poly": poly.to_hex(), "n": n}, [name])
            _write_csv(os.path.join(outdir, name), man, "j,value",
                       list(enumerate(enum.counts)))
        return 0
    if target == "fig1":
        pairs = [(k, n) for k, n, _ in KLD_DUAL_POINTS]
        if args.allow_slow:
            pairs += [(k, n) for k, n, _ in KLD_DUAL_SLOW]
        return _reproduce_avg_pair(args, pairs, "dual", "fig1_dual")
    if target == "fig2":
        pairs = [(k, n) for k, n, _ in KLD_PRIMAL_POINTS]
        if args.allow_slow:
            pairs += [(k, n) for k, n, _ in KLD_PRIMAL_SLOW]
        return _reproduce_avg_pair(args, pairs, "primal", "fig2_primal")
    if target == "fig3":
        for poly_text, n_range in DISTANCE_GROWTH_POLYS:
            poly = _parse_poly(poly_text)
            k = poly.degree
            rows = []
            for n in n_range:
                bound = dmin_bound(avg_primal_approx(k, n, mode="primary"))
                enum = weight_enumerator_exact(build_code(poly, n))
                rows.append((n, bound, enum.min_nonzero_weight()))
            name = f"fig3_dmin_growth_{poly.to_hex()}.csv"
            man = _manifest("reproduce fig3", {"poly": poly.to_hex()}, [name])
            _write_csv(os.path.join(outdir, name), man,
                       "n,dmin_bound,witness_d", rows)
        return 0
    if target in ("fig4-pr", "fig5-pr"):
        n = 20 if target == "fig4-pr" else 32
        polys = WER_N20_POLYS if target == "fig4-pr" else WER_N32_POLYS
        if args.allow_slow:
            points = tuple(float(x) for x in range(0, 9))
            max_trials = 2_000_000
        else:
            points = tuple(float(x) for x in range(0, 7))
            max_trials = 200_000
        for poly_text in polys:
            poly = _parse_poly(poly_text)
            code = build_code(poly, n)
            cfg = SimConfig(code=code, ebno_db_points=points,
                            max_trials=max_trials, target_word_errors=100,
                            seed=args.seed)
            results = simulate_wer(cfg)
            name = f"{target.replace('-', '_')}_wer_{poly.to_hex()}.csv"
            man = _manifest(f"reproduce {target}",
                            {"poly": poly.to_hex(), "n": n,
                             "ebno_list": list(points),
                             "max_trials": max_trials, "target_errors": 100},
                            [name], seed=args.seed)
            _write_csv(os.path.join(outdir, name), man,
                       "ebno_db,trials,word_errors,wer",
                       [(r.ebno_db, r.trials, r.word_errors, r.wer)
                        for r in results])
            brows = _bound_curve(poly.degree, n, points, "approx9", poly,
                                 weighted=True)
            bname = f"{target.replace('-', '_')}_ub_{poly.to_hex()}.csv"
            bman = _manifest(f"reproduce {target}",
                             {"poly": poly.to_hex(), "n": n,
                              "ebno_list": list(points)}, [bname])
            _write_csv(os.path.join(outdir, bname), bman,
                       "ebno_db,epsilon_ub", brows)
        return 0
    raise ValueError(f"unknown reproduce target {target!r}")


# ---------------------------------------------------------------------------
# parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prcodes",
        description="Weight distributions, distance bounds, and ML-decoding "
                    "simulation for codes built from maximum-length LFSR "
                    "sequences.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
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
    p.add_argument("--allow-slow", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_avg_weights)

    p = sub.add_parser("kld", help="divergence of exact vs approximate average")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--which", required=True, choices=["dual", "primal"])
    p.add_argument("--allow-slow", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_kld)

    p = sub.add_parser("dmin", help="minimum-distance bound at one (k, n)")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--scan", action="store_true",
                   help="exhaustively find a code meeting the bound")
    p.add_argument("--allow-slow", action="store_true")
    add_common(p)
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
    p.add_argument("--allow-slow", action="store_true")
    add_common(p)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("reproduce", help="regenerate a canned table or figure")
    p.add_argument("target", choices=REPRODUCE_TARGETS)
    p.add_argument("--allow-slow", action="store_true",
                   help="include the k=15 rows / extended SNR grids")
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=_cmd_reproduce)

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests; returns the exit status."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
