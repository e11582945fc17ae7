"""Self-verification suite: one check per headline claim.

Each check returns a CheckResult with a pass flag and a human-readable
detail line; run_all executes them in order.  Checks that fail do so
because the underlying claim fails on real counterexamples -- those are
reported verbatim, never suppressed.
"""

from __future__ import annotations

import random
import time
import timeit
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import carlitz as cz
from . import counting as ct
from . import fastfield as ff
from . import lincomp as lco
from .gf import is_prime, make_field
from .polyring import is_permutation, weight
from .surd import sqrt_plus

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


def _prime_powers(lo: int, hi: int) -> list[tuple[int, int]]:
    out = []
    for p in range(2, hi + 1):
        if not is_prime(p):
            continue
        q, n = p, 1
        while q <= hi:
            if q >= lo:
                out.append((p, n))
            q *= p
            n += 1
    return sorted(out, key=lambda t: t[0] ** t[1])


# ---------------------------------------------------------------------------

def check_1(**kw) -> CheckResult:
    t0 = time.time()
    row = ct.nu_p(11)
    ok = row.nu == 3 and 7 in row.argmax
    per_call = min(timeit.repeat(lambda: ct.nu_p(11), number=50, repeat=5)) / 50
    fast = per_call < 1e-3
    details = (f"nu_11 = {row.nu}, argmax = {list(row.argmax)}, "
               f"{per_call * 1e6:.0f} us/call (< 1 ms: {fast})")
    return CheckResult(1, "nu_11 value and speed", ok and fast, details,
                       time.time() - t0)


def check_2(nu_limit: int = NU_SCAN_LIMIT, **kw) -> CheckResult:
    t0 = time.time()
    rows = _nu_rows(nu_limit)
    viol = [r.p for r in rows if not r.nu <= r.bound]
    details = (f"{len(rows)} odd primes <= {nu_limit}, "
               f"max nu = {max(r.nu for r in rows)}, violations: {viol}")
    return CheckResult(2, "nu_p window bound", not viol, details,
                       time.time() - t0)


def check_3(**kw) -> CheckResult:
    t0 = time.time()
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
    return CheckResult(3, "rank-1 weight classification", not bad, details,
                       time.time() - t0)


RANK2_SWEEP_QS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3),
                  (7, 2), (11, 2)]
_sweep_cache: dict = {}


def _rank2_sweep(p: int, n: int):
    if (p, n) not in _sweep_cache:
        _sweep_cache[(p, n)] = cz.sweep_rank2(make_field(p, n))
    return _sweep_cache[(p, n)]


def check_4(**kw) -> CheckResult:
    t0 = time.time()
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
        elif n == 1 and mw != target:
            problems.append(f"q={q}: min weight {mw} != {target}")
        elif n > 1 and mw < target:
            problems.append(f"q={q}: min weight {mw} < {target}")
    details = "; ".join(problems) if problems else \
        "cases (a), (b) exact and sharp minimum on all nine fields"
    return CheckResult(4, "rank-2 sweep and sharpness", not problems, details,
                       time.time() - t0)


def check_5(**kw) -> CheckResult:
    t0 = time.time()
    f1 = cz.example_fn(1)  # raises if the sum and chain forms disagree
    w1 = weight(f1)
    perm = is_permutation(f1)
    rk = cz.rank_upto2(f1).rank_class
    f2 = cz.example_fn(2)
    w2 = weight(f2)
    ok = w1 == 6 and perm and rk == 2 and w2 == 106
    details = (f"f_1: weight {w1}, permutation {perm}, rank {rk}; "
               f"f_2: weight {w2}")
    return CheckResult(5, "the F_11 family", ok, details, time.time() - t0)


def check_6(seed: int = DEFAULT_SEED, **kw) -> CheckResult:
    t0 = time.time()
    mismatches = 0
    fields = 0
    for p, n in _prime_powers(3, 27):
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        a0, a1, a2, a3 = [g.ravel().astype(np.int32) for g in np.meshgrid(
            np.arange(1, q), np.arange(q), np.arange(1, q), np.arange(q),
            indexing="ij")]
        mismatches += _closed_form_mismatches(t, a0, a1, a2, a3)
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
    return CheckResult(6, "closed form vs expansion", mismatches == 0,
                       details, time.time() - t0)


def _closed_form_mismatches(t, a0, a1, a2, a3, chunk: int = 100_000) -> int:
    bad = 0
    for s in range(0, len(a0), chunk):
        sl = slice(s, s + chunk)
        tables = ff.chain_value_tables(t, [a0[sl], a1[sl], a2[sl], a3[sl]])
        via_interp = t.batch_interp(tables)
        closed = ff.rank2_coeff_rows(t, a0[sl], a1[sl], a2[sl], a3[sl])
        bad += int((via_interp != closed).any(axis=1).sum())
    return bad


def check_7(**kw) -> CheckResult:
    t0 = time.time()
    viols = []
    for p in [5, 7, 11, 13, 17, 19]:
        scan = ct.window_bound_scan(p)
        for M in range(3, p + 1):
            if not scan[M] <= ct.lemma_window_bound(M):
                viols.append((p, M, scan[M], round(float(ct.lemma_window_bound(M)), 3)))
    if viols:
        # exhibit one concrete witness for the smallest violating (p, M)
        p, M, cnt, bnd = viols[0]
        wit = _window_witness(p, M, cnt)
        details = (f"violations (p, M, count, bound): {viols}; e.g. p={p}, "
                   f"M={M}: gamma={wit[0]}, c={wit[1]}, d={wit[2]}, L={wit[3]} "
                   f"gives {cnt} solutions")
    else:
        details = "no window exceeds the bound"
    return CheckResult(7, "window bound, all (gamma, c, d, L, M)", not viols,
                       details, time.time() - t0)


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


def check_8(**kw) -> CheckResult:
    t0 = time.time()
    viols = []
    for p, n in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]:
        ctx = make_field(p, n)
        q = ctx.q
        bound = sqrt_plus(Fraction(3 * p, 2) - Fraction(39, 16),
                          Fraction(q, p) + Fraction(1, 4))
        one = ctx.one()
        for i in range(q):
            gamma = ctx.el_at(i)
            if gamma == one:
                continue
            c = ct.count_full(ctx, gamma)
            if not c <= bound:
                viols.append((q, i, c))
    details = (f"q in (9, 25, 27, 49, 81, 121), all gamma != 1: "
               f"violations {viols or 'none'}")
    return CheckResult(8, "full-range count bound", not viols, details,
                       time.time() - t0)


def check_9(seed: int = DEFAULT_SEED, **kw) -> CheckResult:
    t0 = time.time()
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
    return CheckResult(9, "CRT matching counts", bad == 0, details,
                       time.time() - t0)


def check_10(seed: int = DEFAULT_SEED, **kw) -> CheckResult:
    t0 = time.time()
    bad = 0
    total = 0
    for p, n in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        # every distinct rank <= 2 chain expansion
        a0, a1, a2 = [g.ravel().astype(np.int32) for g in np.meshgrid(
            np.arange(1, q), np.arange(q), np.arange(q), indexing="ij")]
        tabs1 = ff.chain_value_tables(t, [a0, a1, a2])
        b0, b1, b2, b3 = [g.ravel().astype(np.int32) for g in np.meshgrid(
            np.arange(1, q), np.arange(q), np.arange(1, q), np.arange(q),
            indexing="ij")]
        tabs2 = ff.chain_value_tables(t, [b0, b1, b2, b3])
        tabs = np.unique(np.vstack([tabs1, tabs2]), axis=0)
        coeffs = t.batch_interp(tabs)
        n_ok, n_tot = _blahut_batch(t, coeffs, tabs)
        bad += n_tot - n_ok
        total += n_tot
    rng = random.Random(seed)
    for p, n in [(5, 1), (3, 2), (11, 1), (13, 1), (5, 2)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        coeffs = np.fromiter((rng.randrange(q) for _ in range(500 * q)),
                             np.int32, 500 * q).reshape(500, q)
        tabs = t.batch_eval(coeffs)
        n_ok, n_tot = _blahut_batch(t, coeffs, tabs)
        bad += n_tot - n_ok
        total += n_tot
    details = f"{total} polynomials (all rank <= 2 maps + 500 random per field), {bad} mismatches"
    return CheckResult(10, "weight equals linear complexity", bad == 0,
                       details, time.time() - t0)


def _blahut_batch(t, coeff_rows, table_rows) -> tuple[int, int]:
    """(agreeing, total) for lc(s) == folded weight, via index tables."""
    q = t.q
    ops = ff.TableOps(t)
    order = t.exp  # s_n = f(alpha^n) = table[exp[n]]
    fw = (np.count_nonzero(coeff_rows[:, 1:q - 1], axis=1)
          + (t.add[coeff_rows[:, 0], coeff_rows[:, q - 1]] != 0))
    ok = 0
    for r in range(len(coeff_rows)):
        s = table_rows[r][order].tolist()
        lc = lco.berlekamp_massey(s + s, ops)
        if lc == int(fw[r]):
            ok += 1
    return ok, len(coeff_rows)


def check_11(**kw) -> CheckResult:
    t0 = time.time()
    viols = []
    for p, n in RANK2_SWEEP_QS:
        q = p ** n
        sw = _rank2_sweep(p, n)
        deg_ok = sw.degrees >= 2
        # shape c1 + c2 x^(q-2): nonzero coefficients confined to {0, q-2}
        mid = sw.coeff_rows.copy()
        mid[:, 0] = 0
        mid[:, q - 2] = 0
        special = (mid == 0).all(axis=1)
        sel = deg_ok & ~special
        thr = Fraction(q, 3) - 2
        if not all(w > thr for w in sw.weights[sel]):
            viols.append(f"q={q}: weight bound q/3-2")
        if not (2 >= q - 1 - sw.degrees[sel]).all():
            viols.append(f"q={q}: degree bound")
    details = "; ".join(viols) if viols else \
        "weight > q/3 - 2 and rank >= q - 1 - deg on all sweep instances"
    return CheckResult(11, "consistency with prior bounds", not viols,
                       details, time.time() - t0)


def check_12(**kw) -> CheckResult:
    t0 = time.time()
    bad = 0
    total = 0
    for p, n in [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2)]:
        ctx = make_field(p, n)
        q = ctx.q
        sw = _rank2_sweep(p, n)
        sel = ~sw.case_a & ~sw.case_b
        counts = {}
        for gi in np.unique(sw.gamma_idx[sel]):
            counts[int(gi)] = ct.count_full(ctx, ctx.el_at(int(gi)))
        for w, gi in zip(sw.weights[sel], sw.gamma_idx[sel]):
            total += 1
            if int(w) != (q - 2) - counts[int(gi)]:
                bad += 1
    details = f"{total} case-(c) chains across six fields, {bad} mismatches"
    return CheckResult(12, "weight = (q-2) - count_full(gamma)", bad == 0,
                       details, time.time() - t0)


def check_13(nu_limit: int = NU_SCAN_LIMIT, **kw) -> CheckResult:
    t0 = time.time()
    rows = _nu_rows(nu_limit)
    csv_text = ct.nu_rows_csv(rows)
    best = max(rows, key=lambda r: r.ratio_log)
    bounded = all(r.nu <= r.bound for r in rows)
    emitted = csv_text.count("\n") == len(rows) + 1
    details = (f"table of {len(rows)} rows emitted, max nu_p/ln p = "
               f"{best.ratio_log:.4f} at p = {best.p}, all bounded: {bounded}")
    return CheckResult(13, "conjecture scan report", emitted and bounded,
                       details, time.time() - t0)


CHECKS = [check_1, check_2, check_3, check_4, check_5, check_6, check_7,
          check_8, check_9, check_10, check_11, check_12, check_13]


def run_check(k: int, **kw) -> CheckResult:
    if not 1 <= k <= len(CHECKS):
        raise ValueError(f"no criterion {k}")
    return CHECKS[k - 1](**kw)


def run_all(nu_limit: int = NU_SCAN_LIMIT, seed: int = DEFAULT_SEED,
            report=None) -> list[CheckResult]:
    results = []
    for fn in CHECKS:
        res = fn(nu_limit=nu_limit, seed=seed)
        results.append(res)
        if report is not None:
            report(res.line())
    return results
