"""Command-line interface.

Every operation of the library is reachable from a subcommand; reports
are JSON (default) or CSV, randomized suites print their seed, and exit
codes distinguish verification failures (1) from usage errors (2).
Importing this module and building a parser load neither numpy nor the
computing modules: each handler imports the modules it runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict

from .errors import FFPermError, FieldTooLarge
from .gf import FieldCtx, format_field_spec, make_field, parse_field_spec, primitive_element
from .polyring import Poly, _coeff_to_jsonable, degree, poly_from_json, poly_to_json, weight

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


class SystemExit2(Exception):
    """Usage error discovered after argparse."""


def _capped(ctx: FieldCtx, cap: int) -> FieldCtx:
    if ctx.q > cap:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {cap}")
    return ctx


def _chain_from_args(args):
    """--chain over the field options, as a carlitz.Chain, refused above the
    rank cap as `rank` is: `expand` and `rank2-coeffs` expand it through the
    (q*n)^2 interpolation matrix."""
    from . import carlitz as cz
    ctx = _capped(_field_from_args(args), cz.RANK_CAP_DEFAULT)
    try:
        ints = [int(s) for s in args.chain.split(",")]
    except ValueError as exc:
        raise SystemExit2(f"bad chain {args.chain!r}, expected integers a0,a1,...") from exc
    return cz.Chain(ctx, tuple(ctx.from_int(v) for v in ints))


def _rank_cap() -> int:
    from .carlitz import RANK_CAP_DEFAULT
    return RANK_CAP_DEFAULT


def _blahut_cap() -> int:
    from .lincomp import BLAHUT_CAP
    return BLAHUT_CAP


def _load_poly(args, cap) -> Poly:
    """--poly over the field options, if given.  Its JSON and field spec are
    parsed before cap() imports the module that defines the cap, so a malformed
    --poly loads no computing module; the field is refused above the cap before
    the dense coefficient list is built."""
    ctx = None  # take the field from --poly
    if args.field is not None or args.p is not None or args.n is not None:
        ctx = _field_from_args(args)
    text = args.poly
    try:
        if not text.lstrip().startswith("{"):
            with open(text) as fh:
                text = fh.read()
        _capped(parse_field_spec(json.loads(text)["field"]), cap())
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
        print(",".join("" if v is None else str(v) for v in row.values()))
    else:
        _emit(row)


# ---------------------------------------------------------------------------
# subcommand bodies; each returns an exit code

def cmd_field_info(args) -> int:
    ctx = _field_from_args(args)
    g = primitive_element(ctx)
    _emit({
        "field": format_field_spec(ctx),
        "p": ctx.p, "n": ctx.n, "q": ctx.q,
        "modulus": list(ctx.modulus) if ctx.n > 1 else None,
        "primitive": _coeff_to_jsonable(g),
    })
    return EXIT_OK


def cmd_expand(args) -> int:
    from . import carlitz as cz
    f = cz.expand_chain(_chain_from_args(args))
    print(poly_to_json(f))
    return EXIT_OK


def cmd_rank2_coeffs(args) -> int:
    from . import carlitz as cz
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
    f = _load_poly(args, _rank_cap)
    from . import carlitz as cz
    rep = cz.rank_upto2(f)
    out = {"rank": rep.label}
    if rep.witness is not None:
        out["witness_chain"] = [_coeff_to_jsonable(a) for a in rep.witness.a]
    _emit(out)
    return EXIT_OK


def cmd_weight(args) -> int:
    f = _load_poly(args, _rank_cap)  # the permutation test builds q x q tables
    from .fastfield import permutes, value_table
    _emit({"weight": weight(f), "degree": degree(f),
           "permutation": permutes(value_table(f))})
    return EXIT_OK


def cmd_nu_p(args) -> int:
    from . import counting as ct
    _emit(asdict(ct.nu_p(args.p)))
    return EXIT_OK


def cmd_scan_nu(args) -> int:
    from . import counting as ct
    lo, hi = _parse_range(args.range)
    rows, summary = ct.conjecture_scan(lo, hi)
    if args.format == "csv":
        sys.stdout.write(ct.nu_rows_csv(rows))
    else:
        for r in rows:
            _emit(asdict(r))
    _emit({"summary": summary})
    return EXIT_OK if summary["all_bounded"] else EXIT_VERIFY


def cmd_count_window(args) -> int:
    from . import counting as ct
    ctx = _field_from_args(args)
    qr = ct.CountQuery(ctx, ctx.from_int(args.gamma), ctx.from_int(args.c),
                       ctx.from_int(args.d), args.L, args.M)
    count = ct.count_exp_linear(qr)
    out = {"count": count}
    if 3 <= args.M <= ctx.p:  # the lemma's range, as in window_bound_scan
        out["bound"] = ct.window_bound(args.M)
        out["within_bound"] = ct.within_window_bound(count, args.M)
    _emit(out)
    return EXIT_OK


def cmd_count_full(args) -> int:
    from . import counting as ct
    ctx = _field_from_args(args)
    count = ct.count_full(ctx, ctx.from_int(args.gamma))
    _emit({"q": ctx.q, "gamma": args.gamma, "count": count})
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import carlitz as cz
    from . import counting as ct
    ctx = _field_from_args(args)
    nu = ct.nu_p(ctx.p).nu
    thm = cz.thm_rank2_bound(ctx)
    cor = cz.cor_rank2_bound(ctx, nu)
    _emit({"q": ctx.q, "nu_p": nu,
           "rank2_weight_bound": thm,
           "rank2_weight_bound_sharp": cor})
    return EXIT_OK


def cmd_sweep_rank1(args) -> int:
    from . import carlitz as cz
    ctx = _field_from_args(args)
    q, p = ctx.q, ctx.p
    sw = cz.sweep_rank1(ctx)
    mism = len(sw.mismatches)
    row = {"q": q, "p": p, "case": "rank1", "min_weight": sw.min_weight,
           "bound_thm33": "", "bound_cor35": "", "violations": mism}
    _emit_sweep_row(args, row)
    return EXIT_OK if mism == 0 else EXIT_VERIFY


def cmd_sweep_rank2(args) -> int:
    from . import carlitz as cz
    from . import counting as ct
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
           "bound_thm33": round(thm, 6), "bound_cor35": cor,
           "violations": viol}
    _emit_sweep_row(args, row)
    return EXIT_OK if viol == 0 else EXIT_VERIFY


def cmd_blahut(args) -> int:
    f = _load_poly(args, _blahut_cap)
    from . import lincomp as lco
    lc, fw, eq = lco.blahut_check(f)
    _emit({"linear_complexity": lc, "folded_weight": fw, "equal": eq})
    return EXIT_OK if eq else EXIT_VERIFY


def cmd_example_f11(args) -> int:
    from . import carlitz as cz
    from . import counting as ct
    from .fastfield import permutes, value_table
    f = cz.example_fn(1 if args.n is None else args.n)
    _emit({"q": f.ctx.q, "weight": weight(f),
           "permutation": permutes(value_table(f)),
           "sharp_bound": cz.cor_rank2_bound(f.ctx, ct.nu_p(11).nu)})
    if args.show_poly:
        print(poly_to_json(f))
    return EXIT_OK


def cmd_selftest(args) -> int:
    from . import verify
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    nu_limit = verify.NU_SCAN_LIMIT if args.nu_limit is None else args.nu_limit
    print(f"# seed = {seed}")
    results = verify.run_all(nu_limit=nu_limit, seed=seed, report=print)
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
# option name -> (flag, argparse keywords)
OPTIONS = {
    "field": ("--field", {"help": "field spec p=<int>[,n=<int>][,mod=c0,c1,...,1]"}),
    "p": ("--p", {"type": int, "help": "characteristic (prime)"}),
    "n": ("--n", {"type": int, "help": "extension degree"}),
    "odd-p": ("--p", {"type": int, "required": True, "help": "odd prime"}),
    "f11-n": ("--n", {"type": int, "help": "extension degree (1 or 2)"}),
    "format": ("--format", {"choices": ["json", "csv"], "default": "json"}),
    "poly": ("--poly", {"required": True, "help": "polynomial JSON (inline or a file path)"}),
    "chain": ("--chain", {"required": True, "help": "comma-separated chain a0,a1,..."}),
    "range": ("--range", {"required": True, "help": "pmin:pmax"}),
    "gamma": ("--gamma", {"type": int, "required": True}),
    "c": ("--c", {"type": int, "required": True}),
    "d": ("--d", {"type": int, "required": True}),
    "L": ("--L", {"type": int, "required": True}),
    "M": ("--M", {"type": int, "required": True}),
    "show-poly": ("--show-poly", {"action": "store_true"}),
    "seed": ("--seed", {"type": int}),  # None: verify.DEFAULT_SEED
    "nu-limit": ("--nu-limit", {"type": int, "help": "upper end of the nu_p scan"}),
}
FIELD = ("field", "p", "n")

# subcommand -> (handler, help line, the options it reads in help order)
COMMANDS = {
    "field-info": (cmd_field_info, "field parameters and enumeration", FIELD),
    "expand": (cmd_expand, "expand a chain to a reduced polynomial", FIELD + ("chain",)),
    "rank2-coeffs": (cmd_rank2_coeffs, "closed-form coefficients of a length-2 chain",
                     FIELD + ("chain",)),
    "rank": (cmd_rank, "Carlitz rank classification up to 2", FIELD + ("poly",)),
    "weight": (cmd_weight, "weight/degree/permutation test", FIELD + ("poly",)),
    "nu-p": (cmd_nu_p, "nu_p with argmax and bound", ("odd-p",)),
    "scan-nu": (cmd_scan_nu, "nu_p table over a prime range", ("format", "range")),
    "count-window": (cmd_count_window, "window solution count",
                     FIELD + ("gamma", "c", "d", "L", "M")),
    "count-full": (cmd_count_full, "full-range solution count", FIELD + ("gamma",)),
    "bounds": (cmd_bounds, "rank-2 weight bounds for a field", FIELD),
    "sweep-rank1": (cmd_sweep_rank1, "exhaustive rank-1 weight sweep", FIELD + ("format",)),
    "sweep-rank2": (cmd_sweep_rank2, "exhaustive normalized rank-2 sweep", FIELD + ("format",)),
    "blahut": (cmd_blahut, "linear complexity vs folded weight", FIELD + ("poly",)),
    "example-f11": (cmd_example_f11, "the sharp family over F_(11^n)", ("f11-n", "show-poly")),
    "selftest": (cmd_selftest, "run the full verification suite", ("seed", "nu-limit")),
}


def _add_options(ap: argparse.ArgumentParser, opts) -> argparse.ArgumentParser:
    for opt in opts:
        flag, kw = OPTIONS[opt]
        ap.add_argument(flag, **kw)
    return ap


def build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The parser of the one subcommand named, as `ffperm <name>` with the usage
    its subparser has; with no name, the ffperm parser with every subcommand."""
    if name is not None:
        ap = _add_options(argparse.ArgumentParser(prog=f"ffperm {name}"), COMMANDS[name][2])
        ap.set_defaults(command=name)
        return ap
    ap = argparse.ArgumentParser(
        prog="ffperm",
        description="Permutation polynomials of small Carlitz rank: "
                    "weights, bounds, and linear complexity.")
    sub = ap.add_subparsers(dest="command", required=True)
    for cmd, (_, help_line, opts) in COMMANDS.items():
        _add_options(sub.add_parser(cmd, help=help_line), opts)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # one parser when argv names a subcommand; all of them for --help and errors
    name = argv[0] if argv and argv[0] in COMMANDS else None
    try:
        args = build_parser(name).parse_args(argv[1:] if name else argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return COMMANDS[args.command][0](args)
    except SystemExit2 as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FFPermError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
