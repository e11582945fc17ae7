"""Command-line interface.

Every operation of the library is reachable from a subcommand; reports
are JSON (default) or CSV, randomized suites print their seed, and exit
codes distinguish verification failures (1) from usage errors (2).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import carlitz as cz
from . import counting as ct
from . import lincomp as lco
from . import verify
from .errors import FFPermError, FieldTooLarge
from .gf import FieldCtx, format_field_spec, make_field, parse_field_spec, primitive_element
from .polyring import Poly, degree, is_permutation, poly_from_json, poly_to_json, weight

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2


def _field_from_args(args) -> FieldCtx:
    if args.field is not None:
        if args.p is not None or args.n is not None:
            raise SystemExit2("--field cannot be combined with --p or --n")
        return parse_field_spec(args.field)
    if args.p is not None:
        return make_field(args.p, 1 if args.n is None else args.n)
    if args.n is not None:
        raise SystemExit2("--n needs --p")
    raise SystemExit2("a field is required (--field or --p [--n])")


def _poly_field(args) -> FieldCtx | None:
    """The field named by the field options, or None to take it from --poly."""
    if args.field is None and args.p is None and args.n is None:
        return None
    return _field_from_args(args)


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _chain_from_args(args) -> cz.Chain:
    """--chain over the field options, refused above the rank cap as `rank`
    is: `expand` and `rank2-coeffs` expand it by O(q^2) scalar work."""
    ctx = _field_from_args(args)
    if ctx.q > cz.RANK_CAP_DEFAULT:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {cz.RANK_CAP_DEFAULT}")
    try:
        ints = [int(s) for s in args.chain.split(",")]
    except ValueError as exc:
        raise SystemExit2(f"bad chain {args.chain!r}, expected integers a0,a1,...") from exc
    return cz.Chain(ctx, tuple(ctx.from_int(v) for v in ints))


def _load_poly(args, ctx: FieldCtx | None = None) -> Poly:
    text = args.poly
    try:
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        return poly_from_json(text, ctx)
    except OSError as exc:
        raise SystemExit2(f"cannot read --poly: {exc}") from exc
    except (ValueError, KeyError, TypeError) as exc:
        raise SystemExit2(f"bad polynomial JSON: {exc}") from exc


def _emit(obj) -> None:
    print(json.dumps(obj, sort_keys=True))


def _emit_sweep_row(args, row: dict) -> None:
    if args.format == "csv":
        print(",".join(row))
        print(",".join(str(v) for v in row.values()))
    else:
        _emit(row)


def _fe_repr(v):
    return v.coeffs[0] if v.ctx.n == 1 else list(v.coeffs)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns an exit code

def cmd_field_info(args) -> int:
    ctx = _field_from_args(args)
    g = primitive_element(ctx)
    _emit({
        "field": format_field_spec(ctx),
        "p": ctx.p, "n": ctx.n, "q": ctx.q,
        "modulus": list(ctx.modulus) if ctx.n > 1 else None,
        "primitive": _fe_repr(g),
    })
    return EXIT_OK


def cmd_expand(args) -> int:
    f = cz.expand_chain(_chain_from_args(args), route=args.route)
    print(poly_to_json(f))
    return EXIT_OK


def cmd_rank2_coeffs(args) -> int:
    ch = _chain_from_args(args)
    if ch.n != 2:
        raise SystemExit2("rank2-coeffs needs a chain a0,a1,a2,a3")
    f = cz.rank2_coeffs(*ch.a)
    expanded = cz.expand_chain(ch)
    if f != expanded:
        _emit({"error": "closed form disagrees with expansion",
               "chain": args.chain})
        return EXIT_VERIFY
    print(poly_to_json(f))
    return EXIT_OK


def cmd_rank(args) -> int:
    ctx = _poly_field(args)
    f = _load_poly(args, ctx)
    rep = cz.rank_upto2(f, cap=args.cap)
    out = {"rank": rep.label}
    if rep.witness is not None:
        out["witness_chain"] = [_fe_repr(a) for a in rep.witness.a]
    _emit(out)
    return EXIT_OK


def cmd_weight(args) -> int:
    ctx = _poly_field(args)
    f = _load_poly(args, ctx)
    _emit({"weight": weight(f), "degree": degree(f),
           "permutation": is_permutation(f)})
    return EXIT_OK


def cmd_nu_p(args) -> int:
    row = ct.nu_p(args.p)
    _emit({"p": row.p, "nu": row.nu, "argmax": list(row.argmax),
           "bound": float(row.bound), "ratio_log": row.ratio_log})
    return EXIT_OK


def cmd_scan_nu(args) -> int:
    lo, hi = _parse_range(args.range)
    rows, summary = ct.conjecture_scan(lo, hi)
    if args.format == "csv":
        sys.stdout.write(ct.nu_rows_csv(rows))
    else:
        for r in rows:
            _emit({"p": r.p, "nu": r.nu, "argmax": list(r.argmax),
                   "bound": float(r.bound), "ratio_log": r.ratio_log})
    _emit({"summary": summary})
    ok = all(r.nu <= r.bound for r in rows)
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_count_window(args) -> int:
    ctx = _field_from_args(args)
    qr = ct.CountQuery(ctx, ctx.from_int(args.gamma), ctx.from_int(args.c),
                       ctx.from_int(args.d), args.L, args.M)
    count = ct.count_exp_linear(qr)
    out = {"count": count}
    if args.M >= 3:
        bound = ct.lemma_window_bound(args.M)
        out["bound"] = float(bound)
        out["within_bound"] = bool(count <= bound)
    _emit(out)
    return EXIT_OK


def cmd_count_full(args) -> int:
    ctx = _field_from_args(args)
    count = ct.count_full(ctx, ctx.from_int(args.gamma))
    _emit({"q": ctx.q, "gamma": args.gamma, "count": count})
    return EXIT_OK


def cmd_bounds(args) -> int:
    ctx = _field_from_args(args)
    nu = ct.nu_p(ctx.p).nu
    thm = cz.thm_rank2_bound(ctx)
    cor = cz.cor_rank2_bound(ctx, nu)
    _emit({"q": ctx.q, "nu_p": nu,
           "rank2_weight_bound": float(thm),
           "rank2_weight_bound_sharp": cor})
    return EXIT_OK


def cmd_sweep_rank1(args) -> int:
    ctx = _field_from_args(args)
    q, p = ctx.q, ctx.p
    sw = cz.sweep_rank1(ctx)
    mism = len(sw.mismatches)
    row = {"q": q, "p": p, "case": "rank1", "min_weight": sw.min_weight,
           "bound_thm33": "", "bound_cor35": "", "violations": mism}
    _emit_sweep_row(args, row)
    return EXIT_OK if mism == 0 else EXIT_VERIFY


def cmd_sweep_rank2(args) -> int:
    ctx = _field_from_args(args)
    q, p = ctx.q, ctx.p
    sw = cz.sweep_rank2(ctx)
    nu = ct.nu_p(p).nu
    thm = cz.thm_rank2_bound(ctx)
    cor = cz.cor_rank2_bound(ctx, nu)
    viol = 0
    if sw.min_weight is not None:
        viol = int((sw.weights[sw.exact_rank2] < cor).sum())
    row = {"q": q, "p": p, "case": "rank2", "min_weight": sw.min_weight,
           "bound_thm33": round(float(thm), 6), "bound_cor35": cor,
           "violations": viol}
    _emit_sweep_row(args, row)
    return EXIT_OK if viol == 0 else EXIT_VERIFY


def cmd_blahut(args) -> int:
    ctx = _poly_field(args)
    f = _load_poly(args, ctx)
    lc, fw, eq = lco.blahut_check(f, fold=not args.no_fold, cap=args.cap)
    _emit({"linear_complexity": lc, "folded_weight": fw, "equal": eq})
    return EXIT_OK if eq else EXIT_VERIFY


def cmd_example_f11(args) -> int:
    f = cz.example_fn(1 if args.n is None else args.n)
    _emit({"q": f.ctx.q, "weight": weight(f),
           "permutation": is_permutation(f),
           "sharp_bound": cz.cor_rank2_bound(f.ctx, ct.nu_p(11).nu)})
    if args.show_poly:
        print(poly_to_json(f))
    return EXIT_OK


def cmd_selftest(args) -> int:
    print(f"# seed = {args.seed}")
    results = verify.run_all(nu_limit=args.nu_limit, seed=args.seed,
                             report=print)
    failed = [r for r in results if not r.passed]
    print(f"# {len(results) - len(failed)}/{len(results)} criteria passed")
    for r in failed:
        _emit({"criterion": r.number, "name": r.name,
               "counterexample": r.details})
    return EXIT_OK if not failed else EXIT_VERIFY


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise SystemExit2(f"bad range {text!r}, expected pmin:pmax") from exc


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ffperm",
        description="Permutation polynomials of small Carlitz rank: "
                    "weights, bounds, and linear complexity.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, field=True, poly=False, chain=False, fmt=False, cap=None):
        if field:
            sp.add_argument("--field", help="field spec p=<int>[,n=<int>][,mod=c0,c1,...,1]")
            sp.add_argument("--p", type=int, help="characteristic (prime)")
            sp.add_argument("--n", type=int, help="extension degree")
        if fmt:
            sp.add_argument("--format", choices=["json", "csv"], default="json")
        if cap is not None:
            sp.add_argument("--cap", type=int, default=cap, help="largest q accepted")
        if poly:
            sp.add_argument("--poly", required=True,
                            help="polynomial JSON (inline or a file path)")
        if chain:
            sp.add_argument("--chain", required=True,
                            help="comma-separated chain a0,a1,...")
        return sp

    common(sub.add_parser("field-info", help="field parameters and enumeration"))
    sp = common(sub.add_parser("expand", help="expand a chain to a reduced polynomial"), chain=True)
    sp.add_argument("--route", choices=["table", "power"], default="table")
    common(sub.add_parser("rank2-coeffs", help="closed-form coefficients of a length-2 chain"), chain=True)
    common(sub.add_parser("rank", help="Carlitz rank classification up to 2"), poly=True,
           cap=cz.RANK_CAP_DEFAULT)
    common(sub.add_parser("weight", help="weight/degree/permutation test"), poly=True)
    sp = sub.add_parser("nu-p", help="nu_p with argmax and bound")
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp = common(sub.add_parser("scan-nu", help="nu_p table over a prime range"),
                field=False, fmt=True)
    sp.add_argument("--range", required=True, help="pmin:pmax")
    sp = common(sub.add_parser("count-window", help="window solution count"))
    sp.add_argument("--gamma", type=int, required=True)
    sp.add_argument("--c", type=int, required=True)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--L", type=int, required=True)
    sp.add_argument("--M", type=int, required=True)
    sp = common(sub.add_parser("count-full", help="full-range solution count"))
    sp.add_argument("--gamma", type=int, required=True)
    common(sub.add_parser("bounds", help="rank-2 weight bounds for a field"))
    common(sub.add_parser("sweep-rank1", help="exhaustive rank-1 weight sweep"), fmt=True)
    common(sub.add_parser("sweep-rank2", help="exhaustive normalized rank-2 sweep"), fmt=True)
    sp = common(sub.add_parser("blahut", help="linear complexity vs folded weight"), poly=True,
                cap=lco.BLAHUT_CAP)
    sp.add_argument("--no-fold", action="store_true",
                    help="compare against the raw weight instead")
    sp = sub.add_parser("example-f11", help="the sharp family over F_(11^n)")
    sp.add_argument("--n", type=int, help="extension degree (1 or 2)")
    sp.add_argument("--show-poly", action="store_true")
    sp = sub.add_parser("selftest", help="run the full verification suite")
    sp.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    sp.add_argument("--nu-limit", type=int, default=verify.NU_SCAN_LIMIT,
                    help="upper end of the nu_p scan")
    return ap


HANDLERS = {
    "field-info": cmd_field_info,
    "expand": cmd_expand,
    "rank2-coeffs": cmd_rank2_coeffs,
    "rank": cmd_rank,
    "weight": cmd_weight,
    "nu-p": cmd_nu_p,
    "scan-nu": cmd_scan_nu,
    "count-window": cmd_count_window,
    "count-full": cmd_count_full,
    "bounds": cmd_bounds,
    "sweep-rank1": cmd_sweep_rank1,
    "sweep-rank2": cmd_sweep_rank2,
    "blahut": cmd_blahut,
    "example-f11": cmd_example_f11,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return HANDLERS[args.command](args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FFPermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
