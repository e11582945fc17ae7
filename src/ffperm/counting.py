"""Solution counting for exponential-linear equations.

Central objects: window counts of gamma^(i+1) = i*c + d, the full-range
count over i in [1, q-2], the prime-field maximum nu_p of that count over
gamma != 1, and the CRT matching count for coprime-period functions.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import (BadRange, CompositeP, EvenCharacteristic, FieldTooLarge,
                     GammaOne, NonCoprimePeriods, ZeroC)
from .gf import Fe, FieldCtx, factorize, is_prime, make_field
from .surd import Surd, sqrt_plus

__all__ = [
    "CountQuery", "NuRow", "count_exp_linear", "count_exp_linear_naive",
    "lemma_window_bound", "count_full", "nu_p", "nu_p_naive",
    "crt_match_count", "cor23_window_check", "conjecture_scan", "nu_rows_csv",
    "window_bound_scan",
]

NU_FAST_THRESHOLD = 400  # below this the plain per-gamma pass is used
NU_P_CAP = 1 << 15  # nu_p is O(p^2) time; the 10^4 scan and its benchmark band fit


@dataclass(frozen=True)
class CountQuery:
    """Window query: how many i in [L, L+M] satisfy gamma^(i+1) = i*c + d.

    i enters the right side through its image mod p; the loop index and
    the embedded value are tracked separately so windows past p behave.
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
    p: int
    nu: int
    argmax: tuple[int, ...]
    bound: Surd
    ratio_log: float

    def __post_init__(self):
        if not (0 <= self.nu) or not (self.nu <= self.bound):
            raise AssertionError(f"nu_{self.p} = {self.nu} escapes its bound")
        if self.nu > 0 and not self.argmax:
            raise AssertionError("positive nu needs a witness gamma")


def _power_at(gamma: Fe, e: int) -> Fe | None:
    """gamma^e with 0^0 = 1; None when the power does not exist (0^neg)."""
    if not gamma and e < 0:
        return None
    return gamma ** e


def count_exp_linear(qr: CountQuery) -> int:
    """Single incremental pass over the window: one multiply per step."""
    ctx = qr.ctx
    gamma, c, d = qr.gamma, qr.c, qr.d
    count = 0
    if not gamma:
        # powers of zero don't iterate; test each exponent directly
        for i in range(qr.L, qr.L + qr.M + 1):
            pw = _power_at(gamma, i + 1)
            if pw is not None and pw == c * ctx.from_int(i % ctx.p) + d:
                count += 1
        return count
    pw = _power_at(gamma, qr.L + 1)
    emb = ctx.from_int(qr.L % ctx.p)
    one = ctx.one()
    rhs = c * emb + d
    for _ in range(qr.M + 1):
        if pw == rhs:
            count += 1
        pw = pw * gamma
        rhs = rhs + c  # tracks c*(i mod p) + d as the embedded i advances
    return count


def count_exp_linear_naive(qr: CountQuery) -> int:
    """Reference count recomputing gamma^(i+1) from scratch at every i."""
    ctx = qr.ctx
    count = 0
    for i in range(qr.L, qr.L + qr.M + 1):
        pw = _power_at(qr.gamma, i + 1)
        if pw is not None and pw == qr.c * ctx.from_int(i % ctx.p) + qr.d:
            count += 1
    return count


def lemma_window_bound(M: int) -> Surd:
    """sqrt(3M/2 - 39/16) + 5/4 as an exact comparison object."""
    if M < 3:
        raise BadRange("the window bound needs M >= 3")
    return sqrt_plus(Fraction(3 * M, 2) - Fraction(39, 16), Fraction(5, 4))


def count_full(ctx: FieldCtx, gamma: Fe) -> int:
    """|{1 <= i <= q-2 : gamma^(i+1) = i(1-gamma) + 1}| (i taken mod p)."""
    gamma = ctx.el(gamma)
    if gamma == ctx.one():
        raise GammaOne("gamma = 1 makes the equation degenerate")
    if ctx.n == 1:
        # prime field: plain integer arithmetic, same incremental pass
        p = ctx.p
        g = gamma.coeffs[0]
        c = (1 - g) % p
        count = 0
        pw = g * g % p
        rhs = (c + 1) % p
        for _ in range(1, p - 1):
            if pw == rhs:
                count += 1
            pw = pw * g % p
            rhs = (rhs + c) % p
        return count
    one = ctx.one()
    c = one - gamma
    count = 0
    pw = gamma * gamma  # gamma^(i+1) at i = 1
    rhs = c + one       # i(1-gamma) + 1 at i = 1
    emb = 1
    for _ in range(1, ctx.q - 1):
        if pw == rhs:
            count += 1
        pw = pw * gamma
        emb += 1
        if emb == ctx.p:
            emb = 0
            rhs = one  # wrap: i mod p returns to 0
        else:
            rhs = rhs + c
    return count


# ---------------------------------------------------------------------------
# nu_p

def _check_odd_prime(p: int) -> None:
    if p == 2:
        raise EvenCharacteristic("nu_p is defined for odd primes")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")


def _nu_row(p: int, nu: int, argmax: list[int]) -> NuRow:
    bound = lemma_window_bound(p)
    return NuRow(p, nu, tuple(sorted(argmax)), bound, nu / math.log(p))


def nu_p_naive(p: int) -> NuRow:
    """Per-gamma incremental passes; the oracle route for the fast scan."""
    _check_odd_prime(p)
    ctx = make_field(p)
    best, arg = 0, []
    for g in range(p):
        if g == 1:
            continue
        c = count_full(ctx, ctx.from_int(g))
        if c > best:
            best, arg = c, [g]
        elif c == best and c > 0:
            arg.append(g)
    return _nu_row(p, best, arg)


def _nu_fast(p: int) -> tuple[int, list[int]]:
    """Vectorized nu_p grouping gamma by multiplicative order.

    For gamma of order l, gamma^(i+1) = i(1-gamma)+1 forces a residue
    condition: writing i0 = (gamma^(j+1) - 1)/(1-gamma) for the value the
    linear side must take, a solution with i = i0 exists in [1, p-2] iff
    i0 mod l lands on j-1 (j runs over the exponent classes; j = 0 and
    j = 1 give i0 in {0, p-1}, outside the range, so they never count).
    """
    n = p - 1
    fac = factorize(n)  # least primitive root mod p
    g = next(g for g in range(2, p) if all(pow(g, n // f, p) != 1 for f in fac))
    pow_g = np.ones(n, dtype=np.int32)
    if n > 1:
        pow_g[1] = g
        m = 2
        while m < n:
            k = min(m, n - m)
            pow_g[m:m + k] = (pow_g[:k].astype(np.int64) * pow(g, m, p)) % p
            m += k
    dlog = np.empty(p, dtype=np.int64)
    dlog[pow_g] = np.arange(n)
    invs = pow_g[(n - dlog[1:]) % n].astype(np.int64)  # invs[x-1] = 1/x mod p

    counts = np.zeros(p, dtype=np.int64)
    for l in range(3, n + 1):
        if n % l:
            continue
        step = n // l
        us = np.nonzero(np.fromiter((math.gcd(u, l) == 1 for u in range(l)),
                                    bool, l))[0]
        es = (step * us).astype(np.int32)
        gammas = pow_g[es].astype(np.int64)
        w = invs[(1 - gammas) % p - 1].astype(np.int32)  # 1/(1-gamma)
        J = np.arange(2, l, dtype=np.int32)
        rows = max(1, 2_000_000 // max(1, l - 2))
        for s in range(0, len(es), rows):
            E = es[s:s + rows, None]
            W = w[s:s + rows, None]
            V = pow_g[(E * J) % np.int32(n)]       # gamma^j
            I0 = (V * W - W) % np.int32(p)          # (gamma^j - 1)/(1-gamma)
            sol = (I0 % np.int32(l)) == (J - 1)
            counts[gammas[s:s + rows]] = np.count_nonzero(sol, axis=1)
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
    if p < NU_FAST_THRESHOLD:
        return nu_p_naive(p)
    nu, arg = _nu_fast(p)
    return _nu_row(p, nu, arg)


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
    """NuRow per odd prime in [p_min, p_max], plus the growth-fit summary."""
    if p_min > p_max:
        return [], {"count": 0, "max_ratio": None, "argmax_p": None,
                    "all_bounded": True}
    _check_nu_cap(p_max)
    rows = []
    for p in range(max(3, p_min), p_max + 1):
        if p % 2 and is_prime(p):
            rows.append(nu_p(p))
    summary = {
        "count": len(rows),
        "max_ratio": max((r.ratio_log for r in rows), default=None),
        "argmax_p": max(rows, key=lambda r: r.ratio_log).p if rows else None,
        "all_bounded": all(r.nu <= r.bound for r in rows),
    }
    return rows, summary


def nu_rows_csv(rows: list[NuRow]) -> str:
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(["p", "nu", "argmax_list", "bound_num", "bound_formula",
                "ratio_log"])
    for r in rows:
        w.writerow([r.p, r.nu, ";".join(map(str, r.argmax)),
                    f"{float(r.bound):.6f}",
                    f"sqrt(3*{r.p}/2-39/16)+5/4",
                    f"{r.ratio_log:.6f}"])
    return out.getvalue()
