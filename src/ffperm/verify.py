"""Self-verification suite: one check per headline claim.

Each check returns a pass flag and a human-readable detail line;
run_check names and times it as a CheckResult, and run_all runs every
criterion in order.  Checks that fail do so because the underlying claim
fails on real counterexamples -- those are reported verbatim, never
suppressed.
"""

from __future__ import annotations

import math
import random
import time
import timeit
from dataclasses import dataclass

import numpy as np

from . import carlitz as cz
from . import counting as ct
from . import fastfield as ff
from . import lincomp as lco
from .errors import BadRange
from .gf import make_field
from .polyring import weight

__all__ = ["CheckResult", "run_check", "run_all", "CHECKS", "NU_SCAN_LIMIT"]

NU_SCAN_LIMIT = 10_000
DEFAULT_SEED = 20240915


@dataclass
class CheckResult:
    number: int
    name: str
    passed: bool
    details: str
    elapsed: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] criterion {self.number:2d} ({self.name}): {self.details} [{self.elapsed:.2f}s]"


_nu_rows_cache: dict[int, list] = {}


def _nu_rows(limit: int) -> list:
    if limit not in _nu_rows_cache:
        rows, _ = ct.conjecture_scan(3, limit)
        _nu_rows_cache[limit] = rows
    return _nu_rows_cache[limit]


# ---------------------------------------------------------------------------

def check_1(**kw) -> tuple[bool, str]:
    row = ct.nu_p(11)
    ok = row.nu == 3 and 7 in row.argmax
    per_call = min(timeit.repeat(lambda: ct.nu_p(11), number=50, repeat=5)) / 50
    fast = per_call < 1e-3
    details = (f"nu_11 = {row.nu}, argmax = {list(row.argmax)}, "
               f"{per_call * 1e6:.0f} us/call (< 1 ms: {fast})")
    return ok and fast, details


def check_2(nu_limit: int = NU_SCAN_LIMIT, **kw) -> tuple[bool, str]:
    rows = _nu_rows(nu_limit)
    viol = [r.p for r in rows if not ct.within_window_bound(r.nu, r.p)]
    details = (f"{len(rows)} odd primes <= {nu_limit}, "
               f"max nu = {max(r.nu for r in rows)}, violations: {viol}")
    return not viol, details


def check_3(**kw) -> tuple[bool, str]:
    bad = []
    for p, n in [(5, 1), (3, 2), (5, 2), (3, 3), (7, 2)]:
        ctx = make_field(p, n)
        q = ctx.q
        sw = cz.sweep_rank1(ctx)
        allowed = {1, 2, q - q // p, q - q // p - 1}
        extra = set(np.unique(sw.weights).tolist()) - allowed
        mism = len(sw.mismatches)
        if extra or mism:
            bad.append((q, sorted(extra), mism))
    details = f"q in (5, 9, 25, 27, 49); per-field (q, stray weights, mismatches): {bad or 'none'}"
    return not bad, details


RANK2_SWEEP_QS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
                  (7, 2), (11, 2)]
_sweep_cache: dict = {}


def _rank2_sweep(p: int, n: int):
    if (p, n) not in _sweep_cache:
        _sweep_cache[(p, n)] = cz.sweep_rank2(make_field(p, n))
    return _sweep_cache[(p, n)]


def check_4(**kw) -> tuple[bool, str]:
    problems = []
    for p, n in RANK2_SWEEP_QS:
        q = p ** n
        sw = _rank2_sweep(p, n)
        if not (sw.weights[sw.case_a] == q - q // p - 1).all():
            problems.append(f"q={q}: case (a) weight off")
        if not (sw.weights[sw.case_b] == q - 2).all():
            problems.append(f"q={q}: case (b) weight off")
        target = q - q // p - 1 - ct.nu_p(p).nu
        mw = sw.min_weight
        if mw is None:
            problems.append(f"q={q}: no chain of exact rank 2 exists "
                            f"(sharpness target {target} unattained)")
        elif mw != target:
            problems.append(f"q={q}: min weight {mw} != {target}")
    details = "; ".join(problems) if problems else \
        "cases (a), (b) exact and sharp minimum on all nine fields"
    return not problems, details


def check_5(**kw) -> tuple[bool, str]:
    f1 = cz.example_fn(1)  # raises if the sum and chain forms disagree
    w1 = weight(f1)
    perm = ff.permutes(ff.value_table(f1))
    rk = cz.rank_upto2(f1).rank_class
    f2 = cz.example_fn(2)
    w2 = weight(f2)
    ok = w1 == 6 and perm and rk == 2 and w2 == 106
    details = (f"f_1: weight {w1}, permutation {perm}, rank {rk}; "
               f"f_2: weight {w2}")
    return ok, details


def check_6(seed: int = DEFAULT_SEED, **kw) -> tuple[bool, str]:
    mismatches = 0
    fields = 0
    for p, n in [(3, 1), (2, 2), (5, 1), (7, 1), (2, 3), (3, 2), (11, 1), (13, 1), (2, 4),
                 (17, 1), (19, 1), (23, 1), (5, 2), (3, 3)]:  # every 3 <= q <= 27, ascending
        t = ff.tables(make_field(p, n))
        mismatches += _closed_form_mismatches(t, *ff.chain_grid(t.q, 2))
        fields += 1
    rng = random.Random(seed)
    for p, n in [(7, 2), (3, 4), (11, 2)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        m = 1000
        a0 = np.fromiter((rng.randrange(1, q) for _ in range(m)), np.int32, m)
        a1 = np.fromiter((rng.randrange(q) for _ in range(m)), np.int32, m)
        a2 = np.fromiter((rng.randrange(1, q) for _ in range(m)), np.int32, m)
        a3 = np.fromiter((rng.randrange(q) for _ in range(m)), np.int32, m)
        mismatches += _closed_form_mismatches(t, a0, a1, a2, a3)
        fields += 1
    details = (f"{fields} fields (exhaustive q <= 27, 1000 random tuples for "
               f"q in (49, 81, 121)): {mismatches} coefficient mismatches")
    return mismatches == 0, details


def _closed_form_mismatches(t, a0, a1, a2, a3) -> int:
    cols = [a0, a1, a2, a3]
    bad = 0
    for s, rows in ff.chain_coeff_blocks(t, cols):
        closed = ff.rank2_coeff_rows(t, *(a[s:s + len(rows)] for a in cols))
        bad += int((rows != closed).any(axis=1).sum())
    return bad


def check_7(**kw) -> tuple[bool, str]:
    viols = []
    for p in [5, 7, 11, 13, 17, 19]:
        scan = ct.window_bound_scan(p)
        for M in range(3, p + 1):
            if not ct.within_window_bound(scan[M], M):
                viols.append((p, M, scan[M], round(ct.window_bound(M), 3)))
    if viols:
        # exhibit one concrete witness for the smallest violating (p, M)
        p, M, cnt, bnd = viols[0]
        wit = _window_witness(p, M, cnt)
        details = (f"violations (p, M, count, bound): {viols}; e.g. p={p}, "
                   f"M={M}: gamma={wit[0]}, c={wit[1]}, d={wit[2]}, L={wit[3]} "
                   f"gives {cnt} solutions")
    else:
        details = "no window exceeds the bound"
    return not viols, details


def _window_witness(p: int, M: int, target: int):
    ctx = make_field(p)
    for gm in range(p):
        for c in range(1, p):
            for d in range(p):
                for L in range(p):
                    qr = ct.CountQuery(ctx, ctx.from_int(gm), ctx.from_int(c),
                                       ctx.from_int(d), L, M)
                    if ct.count_exp_linear(qr) >= target:
                        return gm, c, d, L
    return None


def check_8(**kw) -> tuple[bool, str]:
    viols = []
    for p, n in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]:
        ctx = make_field(p, n)
        q = ctx.q
        one = ctx.one()
        for i in range(q):
            gamma = ctx.el_at(i)
            if gamma == one:
                continue
            c = ct.count_full(ctx, gamma)
            # c <= q/p + 1/4 + sqrt(3p/2 - 39/16): the window bound at p, shifted
            if not ct.within_window_bound(c - (q // p - 1), p):
                viols.append((q, i, c))
    details = (f"q in (9, 25, 27, 49, 81, 121), all gamma != 1: "
               f"violations {viols or 'none'}")
    return not viols, details


def check_9(seed: int = DEFAULT_SEED, **kw) -> tuple[bool, str]:
    rng = random.Random(seed)
    injective_checked = 0
    bad = 0
    for _ in range(1000):
        while True:
            n1 = rng.randrange(1, 31)
            n2 = rng.randrange(1, 31)
            if np.gcd(n1, n2) == 1:
                break
        alphabet = rng.randrange(1, 8) + max(n1, n2)
        g1 = [rng.randrange(alphabet) for _ in range(n1)]
        g2 = [rng.randrange(alphabet) for _ in range(n2)]
        ct.crt_match_count(g1, g2)  # raises if the two routes disagree
        if len(set(g1)) == n1 and len(set(g2)) == n2:
            l = rng.randrange(1, 4)
            _, _, ok = ct.cor23_window_check(g1, g2, l, start=rng.randrange(50))
            injective_checked += 1
            if not ok:
                bad += 1
    details = (f"1000 coprime-period pairs, dual counts agree; "
               f"{injective_checked} injective cases, {bad} bound violations")
    return bad == 0, details


def check_10(seed: int = DEFAULT_SEED, **kw) -> tuple[bool, str]:
    bad = 0
    total = 0
    for p, n in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        # every distinct rank <= 2 chain expansion
        tabs = np.unique(np.vstack([ff.chain_value_tables(t, ff.chain_grid(q, k))
                                    for k in (1, 2)]), axis=0)
        lc, fw = lco.blahut_rows(t, t.batch_interp(tabs), tabs)
        bad += int((lc != fw).sum())
        total += len(lc)
    rng = random.Random(seed)
    for p, n in [(5, 1), (3, 2), (11, 1), (13, 1), (5, 2)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        coeffs = np.fromiter((rng.randrange(q) for _ in range(500 * q)),
                             np.int32, 500 * q).reshape(500, q)
        lc, fw = lco.blahut_rows(t, coeffs, t.batch_eval(coeffs))
        bad += int((lc != fw).sum())
        total += len(lc)
    details = f"{total} polynomials (all rank <= 2 maps + 500 random per field), {bad} mismatches"
    return bad == 0, details


def check_11(**kw) -> tuple[bool, str]:
    viols = []
    for p, n in RANK2_SWEEP_QS:
        q = p ** n
        sw = _rank2_sweep(p, n)
        deg_ok = sw.degrees >= 2
        # shape c1 + c2 x^(q-2): nonzero coefficients confined to {0, q-2}
        # (column q-1, -sum_x f(x), is zero because every chain permutes F_q)
        sel = deg_ok & ~sw.special
        # an integer weight exceeds q/3 - 2 exactly when it exceeds its floor
        if not (sw.weights[sel] > math.floor(cz._weight_floor(q, 2))).all():
            viols.append(f"q={q}: weight bound q/3-2")
        if not (2 >= cz._degree_rank_floor(q, sw.degrees[sel])).all():
            viols.append(f"q={q}: degree bound")
    details = "; ".join(viols) if viols else \
        "weight > q/3 - 2 and rank >= q - 1 - deg on all sweep instances"
    return not viols, details


def check_12(**kw) -> tuple[bool, str]:
    bad = 0
    total = 0
    for p, n in RANK2_SWEEP_QS:
        sw = _rank2_sweep(p, n)
        ctx, q = sw.ctx, sw.ctx.q
        sel = ~sw.case_a & ~sw.case_b
        gammas, at = np.unique(sw.gamma_idx[sel], return_inverse=True)
        counts = np.array([ct.count_full(ctx, ctx.el_at(int(g))) for g in gammas],
                          dtype=np.int64)
        bad += int((sw.weights[sel] != (q - 2) - counts[at]).sum())
        total += int(sel.sum())
    details = f"{total} case-(c) chains across nine fields, {bad} mismatches"
    return bad == 0, details


def check_13(nu_limit: int = NU_SCAN_LIMIT, **kw) -> tuple[bool, str]:
    rows = _nu_rows(nu_limit)
    csv_text = ct.nu_rows_csv(rows)
    best = max(rows, key=lambda r: r.ratio_log)
    bounded = all(ct.within_window_bound(r.nu, r.p) for r in rows)
    emitted = csv_text.count("\n") == len(rows) + 1
    details = (f"table of {len(rows)} rows emitted, max nu_p/ln p = "
               f"{best.ratio_log:.4f} at p = {best.p}, all bounded: {bounded}")
    return emitted and bounded, details


# criterion name -> check, in criterion order
CHECKS = {
    "nu_11 value and speed": check_1,
    "nu_p window bound": check_2,
    "rank-1 weight classification": check_3,
    "rank-2 sweep and sharpness": check_4,
    "the F_11 family": check_5,
    "closed form vs expansion": check_6,
    "window bound, all (gamma, c, d, L, M)": check_7,
    "full-range count bound": check_8,
    "CRT matching counts": check_9,
    "weight equals linear complexity": check_10,
    "consistency with prior bounds": check_11,
    "weight = (q-2) - count_full(gamma)": check_12,
    "conjecture scan report": check_13,
}


def run_check(k: int, **kw) -> CheckResult:
    """Run criterion k (1-based) and time it."""
    if not 1 <= k <= len(CHECKS):
        raise ValueError(f"no criterion {k}")
    name, fn = list(CHECKS.items())[k - 1]
    t0 = time.perf_counter()
    passed, details = fn(**kw)
    return CheckResult(k, name, passed, details, time.perf_counter() - t0)


def run_all(nu_limit: int = NU_SCAN_LIMIT, seed: int = DEFAULT_SEED,
            report=None) -> list[CheckResult]:
    if nu_limit < 3:  # refused before criterion 1, not when criterion 2 reaches the scan
        raise BadRange(f"the nu_p scan needs a limit >= 3, got {nu_limit}")
    ct._check_nu_cap(nu_limit)
    results = []
    for k in range(1, len(CHECKS) + 1):
        res = run_check(k, nu_limit=nu_limit, seed=seed)
        results.append(res)
        if report is not None:
            report(res.line())
    return results
