"""Solution counting for exponential-linear equations.

Central objects: window counts of gamma^(i+1) = i*c + d, taken by one
incremental pass that a window longer than its period p(q-1) reduces by
that period, under one step cap; the full-range count over i in [1, q-2]
as one such window; the prime-field maximum nu_p of that count over
gamma != 1; and the CRT matching count for coprime-period functions.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (BadRange, CompositeP, EvenCharacteristic, FieldTooLarge,
                     GammaOne, NonCoprimePeriods, ZeroC)
from .gf import Fe, FieldCtx, factorize, is_prime

__all__ = [
    "CountQuery", "NuRow", "count_exp_linear", "count_exp_linear_naive",
    "within_window_bound", "window_bound", "count_full", "nu_p", "nu_p_naive",
    "crt_match_count", "cor23_window_check", "conjecture_scan", "nu_rows_csv",
    "window_bound_scan",
]

NU_P_CAP = 1 << 15  # nu_p is O(p^2) time; the 10^4 scan and its benchmark band fit
_NU_BLOCK = 1 << 15  # kernel elements per int32 block, so the temporaries stay in cache
# steps of count_exp_linear's one pass, up to 40 us each (count_full on F_(2^15): 1.3 s)
COUNT_STEP_CAP = 1 << 15


@dataclass(frozen=True)
class CountQuery:
    """Window query: how many i in [L, L+M] satisfy gamma^(i+1) = i*c + d.

    i enters the right side through its image mod p.
    """

    ctx: FieldCtx
    gamma: Fe
    c: Fe
    d: Fe
    L: int
    M: int

    def __post_init__(self):
        if not self.c:
            raise ZeroC("c must be nonzero")
        if self.M < 0:
            raise BadRange("window length M must be >= 0")


@dataclass(frozen=True)
class NuRow:
    """nu_p with its argmax list; bound is window_bound(p), for display."""

    p: int
    nu: int
    argmax: tuple[int, ...]
    bound: float
    ratio_log: float

    def __post_init__(self):
        if self.nu > 0 and not self.argmax:
            raise AssertionError("positive nu needs a witness gamma")


def count_exp_linear(qr: CountQuery) -> int:
    """Single incremental pass over the window: one multiply per step.

    The right side gains c per step and wraps by itself, since p*c = 0.
    The pair (gamma^(i+1), i mod p) repeats every p(q-1) steps, because
    the order of gamma divides q - 1 (and 0^(i+1) = 0 for i >= 0), so a
    longer window counts as whole periods plus a prefix of one walk of
    min(M + 1, p(q-1)) steps; more than COUNT_STEP_CAP is refused first.
    """
    ctx, gamma, c, d = qr.ctx, qr.gamma, qr.c, qr.d
    lo, hi = qr.L, qr.L + qr.M
    count = 0
    if not gamma:
        # 0^0 = 1 at i = -1; below it the power does not exist
        count = int(lo <= -1 <= hi and d - c == ctx.one())
        lo = max(lo, 0)
    n = max(hi - lo + 1, 0)
    period = ctx.p * (ctx.q - 1)
    steps = min(n, period)
    if steps > COUNT_STEP_CAP:
        raise FieldTooLarge(f"the window pass walks min({n}, p(q-1) = {period}) "
                            f"steps, over the {COUNT_STEP_CAP} cap")
    pw = gamma ** (lo + 1)
    rhs = c * ctx.from_int(lo) + d
    hits = []  # the steps that solve
    for k in range(steps):
        if pw == rhs:
            hits.append(k)
        pw = pw * gamma
        rhs = rhs + c
    whole, rest = divmod(n, period)
    return count + whole * len(hits) + sum(k < rest for k in hits)


def count_exp_linear_naive(qr: CountQuery) -> int:
    """Reference count recomputing gamma^(i+1) from scratch at every i."""
    ctx = qr.ctx
    count = 0
    for i in range(qr.L, qr.L + qr.M + 1):
        if not qr.gamma and i < -1:
            continue  # 0^(i+1) does not exist; 0^0 = 1 at i = -1
        if qr.gamma ** (i + 1) == qr.c * ctx.from_int(i % ctx.p) + qr.d:
            count += 1
    return count


def _check_window_m(M: int) -> None:
    if M < 3:
        raise BadRange("the window bound needs M >= 3")


def within_window_bound(count: int, M: int) -> bool:
    """count <= sqrt(3M/2 - 39/16) + 5/4, decided in integers.

    Times 4 this is 4*count - 5 <= sqrt(24M - 39), which holds exactly
    when 4*count - 5 <= 0 or (4*count - 5)^2 <= 24M - 39.  The full-range
    bound q/p + 1/4 + sqrt(3p/2 - 39/16) is this one at M = p shifted by
    the integer q/p - 1, so it is within_window_bound(count - (q/p - 1), p).
    """
    _check_window_m(M)
    s = 4 * count - 5
    return s <= 0 or s * s <= 24 * M - 39


def window_bound(M: int) -> float:
    """sqrt(3M/2 - 39/16) + 5/4 as a float, for display only."""
    _check_window_m(M)
    return 1.25 + math.sqrt((24 * M - 39) / 16)


def count_full(ctx: FieldCtx, gamma: Fe) -> int:
    """|{1 <= i <= q-2 : gamma^(i+1) = i(1-gamma) + 1}| (i taken mod p).

    The window starts at i = 0, which solves only for gamma = 1: the count
    is the same, and q = 2's empty range is still a window.
    """
    gamma = ctx.el(gamma)
    one = ctx.one()
    if gamma == one:
        raise GammaOne("gamma = 1 makes the equation degenerate")
    return count_exp_linear(CountQuery(ctx, gamma, one - gamma, one, 0, ctx.q - 2))


# ---------------------------------------------------------------------------
# nu_p

def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise EvenCharacteristic("nu_p is defined for odd primes")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")


def _nu_row(p: int, nu: int, argmax: list[int]) -> NuRow:
    return NuRow(p, nu, tuple(sorted(argmax)), window_bound(p), nu / math.log(p))


def nu_p_naive(p: int) -> NuRow:
    """Per-gamma integer passes of count_full's equation; the test oracle for `nu_p`."""
    _check_nu_cap(p)
    _check_odd_prime(p)
    best, arg = 0, []
    for g in range(p):
        if g == 1:
            continue
        c = (1 - g) % p
        count = 0
        pw, rhs = g * g % p, (c + 1) % p  # both sides at i = 1
        for _ in range(1, p - 1):
            count += pw == rhs
            pw = pw * g % p
            rhs = (rhs + c) % p
        if count > best:
            best, arg = count, [g]
        elif count == best and count > 0:
            arg.append(g)
    return _nu_row(p, best, arg)


def _nu_kernel(p: int) -> tuple[int, list[int]]:
    """nu_p and its argmax list, one subgroup of F_p^* at a time.

    A gamma of order l >= 3 is h^u, h = g^((p-1)/l) for the least primitive
    root g, u a unit mod l.  With j = (i+1) mod l and k = u*j mod l,
    gamma^(i+1) = h^k pins i to i0(k) = (h^k - 1)/(1 - gamma) in [0, p-1],
    a solution iff i0(k) + 1 = j (mod l), i.e. iff u*(i0(k) + 1) = k (mod l).
    k = u (j = 1, i0 = p-1) always matches but lies outside [1, p-2], so it
    is subtracted; k = 0 never matches; gamma in {0, -1} keeps count 0.
    Products stay below p^2 <= 2^30, so int32 is exact; x mod m is taken as
    x - (x // m)*m: numpy divides by a scalar far faster than it reduces.
    """
    n = p - 1
    fac = factorize(n)
    g = next(g for g in range(2, p) if all(pow(g, n // f, p) != 1 for f in fac))
    pow_g = np.ones(n, dtype=np.int32)  # pow_g[e] = g^e, by doubling
    m = 1
    while m < n:
        pow_g[m:2 * m] = pow_g[:min(m, n - m)] * pow(g, m, p) % p
        m *= 2

    counts = np.zeros(p, dtype=np.int64)
    for l in range(3, n + 1):
        if n % l:
            continue
        hk = pow_g[::n // l]  # h^k, k in [0, l)
        A, K = hk - 1, np.arange(l, dtype=np.int32)
        us = np.flatnonzero(np.gcd(K, l) == 1).astype(np.int32)
        gammas = hk[us]
        ws = np.array([pow(1 - x, -1, p) for x in gammas.tolist()], dtype=np.int32)
        rows = max(1, _NU_BLOCK // l)
        for s in range(0, len(us), rows):
            t = A * ws[s:s + rows, None]
            t -= t // p * p
            t += 1                          # i0(k) + 1
            t *= us[s:s + rows, None]
            t -= t // l * l                 # u*(i0(k) + 1) mod l
            counts[gammas[s:s + rows]] = np.count_nonzero(t == K, axis=1) - 1
    nu = int(counts.max())
    arg = np.nonzero(counts == nu)[0].tolist() if nu > 0 else []
    return nu, arg


def _check_nu_cap(p: int) -> None:
    if p > NU_P_CAP:
        raise FieldTooLarge(f"nu_p needs p <= {NU_P_CAP}, got {p}")


def nu_p(p: int) -> NuRow:
    """max over gamma in F_p \\ {1} of count_full; includes gamma = 0."""
    _check_nu_cap(p)
    _check_odd_prime(p)
    return _nu_row(p, *_nu_kernel(p))


# ---------------------------------------------------------------------------
# CRT matching counts

def crt_match_count(g1, g2) -> int:
    """|{1 <= i <= n1*n2 : g1(i) = g2(i)}| for coprime periods.

    Computed twice -- directly, and as sum over values u of m1(u)*m2(u)
    where m_k(u) counts u in one period -- and the two must agree.
    """
    n1, n2 = len(g1), len(g2)
    if n1 == 0 or n2 == 0:
        raise NonCoprimePeriods("periods must be positive")
    if math.gcd(n1, n2) != 1:
        raise NonCoprimePeriods(f"gcd({n1}, {n2}) != 1")
    direct = sum(1 for i in range(1, n1 * n2 + 1)
                 if g1[i % n1] == g2[i % n2])
    m1: dict = {}
    m2: dict = {}
    for v in g1:
        m1[v] = m1.get(v, 0) + 1
    for v in g2:
        m2[v] = m2.get(v, 0) + 1
    product = sum(m1[u] * m2.get(u, 0) for u in m1)
    if direct != product:
        raise AssertionError("direct and multiplicity counts disagree")
    return direct


def cor23_window_check(g1, g2, l: int, start: int = 1) -> tuple[int, int, bool]:
    """Match count over l*n1*n2 consecutive integers vs the injective bound.

    Requires both one-period restrictions injective; returns
    (count, l*min(n1, n2), count <= bound).
    """
    n1, n2 = len(g1), len(g2)
    if math.gcd(n1, n2) != 1:
        raise NonCoprimePeriods(f"gcd({n1}, {n2}) != 1")
    if len(set(g1)) != n1 or len(set(g2)) != n2:
        raise BadRange("both restrictions must be injective")
    count = sum(1 for i in range(start, start + l * n1 * n2)
                if g1[i % n1] == g2[i % n2])
    bound = l * min(n1, n2)
    return count, bound, count <= bound


# ---------------------------------------------------------------------------
# window-bound scans and the conjecture table

def window_bound_scan(p: int) -> dict[int, int]:
    """Max window count per M in [3, p], over all gamma, c != 0, d, L.

    Shifting the window start L re-parameterizes (c, d) by units, so for
    gamma != 0 every window is equivalent to one starting at L = 0; the
    scan therefore quantifies over all (gamma, c, d) with L = 0 and is
    still exhaustive.  (For gamma = 0 at most one linear solution exists
    per p consecutive indices, giving counts <= 2 <= every bound.)
    """
    _check_odd_prime(p)
    i = np.arange(p + 1, dtype=np.int64)
    maxima = np.zeros(p + 1, dtype=np.int64)  # index M
    cs = np.arange(1, p, dtype=np.int64)
    for gamma in range(p):
        A = np.empty(p + 1, dtype=np.int64)
        acc = gamma % p
        for k in range(p + 1):  # A[k] = gamma^(k+1)
            A[k] = acc
            acc = acc * gamma % p
        # B[c-1, k] = A[k] - c*k mod p; a solution at k means d = B[c-1, k]
        B = (A[None, :] - cs[:, None] * i[None, :]) % p
        counts = np.zeros((p - 1, p), dtype=np.int64)  # per (c, d)
        rows = np.arange(p - 1)
        best = np.zeros(p - 1, dtype=np.int64)
        for M in range(p + 1):
            col = B[:, M]
            counts[rows, col] += 1
            np.maximum(best, counts[rows, col], out=best)
            m = int(best.max())
            if m > maxima[M]:
                maxima[M] = m
    return {M: int(maxima[M]) for M in range(3, p + 1)}


def conjecture_scan(p_min: int, p_max: int) -> tuple[list[NuRow], dict]:
    """NuRow per odd prime in [p_min, p_max], plus the growth-fit summary.

    The usable cores take the primes largest first; rows come back ascending.
    """
    if p_min > p_max:
        return [], {"count": 0, "max_ratio": None, "argmax_p": None,
                    "all_bounded": True}
    _check_nu_cap(p_max)
    primes = [p for p in range(max(3, p_min), p_max + 1) if p % 2 and is_prime(p)]
    import multiprocessing  # here, so importing the CLI does not pay for it
    workers = min(len(os.sched_getaffinity(0)), len(primes))
    if workers <= 1 or "fork" not in multiprocessing.get_all_start_methods():
        found = [_nu_kernel(p) for p in primes]
    else:  # the task is private, so tracers that rebind public names leave it picklable
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            found = pool.map(_nu_kernel, primes[::-1], chunksize=1)[::-1]
    rows = [_nu_row(p, *r) for p, r in zip(primes, found)]
    summary = {
        "count": len(rows),
        "max_ratio": max((r.ratio_log for r in rows), default=None),
        "argmax_p": max(rows, key=lambda r: r.ratio_log).p if rows else None,
        "all_bounded": all(within_window_bound(r.nu, r.p) for r in rows),
    }
    return rows, summary


def nu_rows_csv(rows: list[NuRow]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["p", "nu", "argmax_list", "bound_num", "bound_formula",
                "ratio_log"])
    for r in rows:
        w.writerow([r.p, r.nu, ";".join(map(str, r.argmax)),
                    f"{r.bound:.6f}",
                    f"sqrt(3*{r.p}/2-39/16)+5/4",
                    f"{r.ratio_log:.6f}"])
    return out.getvalue()
