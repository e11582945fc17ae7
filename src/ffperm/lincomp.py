"""Linear complexity over F_q and the weight/complexity duality check.

For f reduced mod x^q - x and alpha a primitive element, the sequence
s_n = f(alpha^n) has period q - 1 and its linear complexity equals the
number of nonzero coefficients of f once the coefficient of x^(q-1) is
folded into the constant term (alpha^n never takes the value 0, so the
sequence cannot tell x^(q-1) from 1).

berlekamp_massey_rows takes one of two paths, chosen from an (R, N)
input's R * N: at or below BM_WALK_MAX a row-by-row walk over list copies
of the index tables, above it a numpy loop over all rows in lockstep
(CHANGES.md records the measured crossovers).  The scalar
berlekamp_massey on Fe values is the test oracle for both.
"""

from __future__ import annotations

import numpy as np

from . import fastfield as ff
from .errors import EmptySequence, FieldTooLarge
from .gf import Fe, inv0, primitive_element
from .polyring import Poly, evaluate

__all__ = ["berlekamp_massey", "berlekamp_massey_rows", "blahut_check", "blahut_rows",
           "folded_weight", "sequence_from_poly", "BLAHUT_CAP"]

BLAHUT_CAP = 512
# largest R * N that berlekamp_massey_rows walks row by row (measured crossover)
BM_WALK_MAX = 640


def sequence_from_poly(f: Poly) -> tuple[Fe, ...]:
    """One period of s_n = f(alpha^n), n = 0..q-2, alpha the primitive element."""
    ctx = f.ctx
    alpha = primitive_element(ctx)
    terms = []
    x = ctx.one()
    for _ in range(ctx.q - 1):
        terms.append(evaluate(f, x))
        x = x * alpha
    return tuple(terms)


def berlekamp_massey(s) -> int:
    """Length of the shortest LFSR over F_q generating the Fe terms of s.

    The scalar reference for berlekamp_massey_rows.  Periodic inputs
    should provide two periods.
    """
    s = list(s)
    if not s:
        raise EmptySequence("berlekamp_massey needs at least one term")
    one = s[0].ctx.one()
    zero = s[0].ctx.zero()
    C = [one]
    B = [one]
    L, m = 0, 1
    b = one
    for n in range(len(s)):
        d = s[n]
        for i in range(1, L + 1):
            d = d + C[i] * s[n - i]
        if d == zero:
            m += 1
            continue
        coef = d * inv0(b)
        T = list(C)
        C = C + [zero] * (len(B) + m - len(C))
        for i, bv in enumerate(B):
            C[i + m] = C[i + m] - coef * bv
        if 2 * L <= n:
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            m += 1
    return L


def berlekamp_massey_rows(t: ff.FieldTables, S) -> np.ndarray:
    """Linear complexity of every row of S, an (R, N) array of element indices.

    Berlekamp-Massey (Massey 1969) by one of two paths, chosen from R * N.
    At or below BM_WALK_MAX the rows are walked one at a time
    (_bm_rows_walk, about R * N * L list lookups, L the linear complexity);
    above it they step in lockstep (_bm_rows_lockstep, N numpy steps of a
    fixed overhead).  With L about N / 2 the costs cross at a fixed R * N
    (measured in CHANGES.md): one blahut row walks for q <= 321, criterion
    10's batches step in lockstep.  Both paths return the same
    int64 array of shape (R,); the scalar berlekamp_massey is their oracle.
    """
    S = np.asarray(S, dtype=np.int32)
    R, N = S.shape
    if N == 0:
        raise EmptySequence("berlekamp_massey needs at least one term")
    if R * N <= BM_WALK_MAX:
        return _bm_rows_walk(t, S)
    return _bm_rows_lockstep(t, S)


def _bm_rows_walk(t: ff.FieldTables, S: np.ndarray) -> np.ndarray:
    """berlekamp_massey on each row of S in turn, over list copies of
    the index tables made for this call.  deg C <= L, so the discrepancy
    of step n sums C_1..C_L only; C -= coef x^m B is added as
    (-coef) * B_i, one row of mul per update."""
    add, mul, neg, inv0 = (a.tolist() for a in (t.add, t.mul, t.neg, t.inv0))
    one = int(t.emb[1])
    out = np.zeros(len(S), dtype=np.int64)
    for r, s in enumerate(S.tolist()):
        C, B = [one], [one]
        L, m, b = 0, 1, one
        for n, d in enumerate(s):
            for c, v in zip(C[1:L + 1], reversed(s[n - L:n])):
                d = add[d][mul[c][v]]
            if d == 0:
                m += 1
                continue
            mrow = mul[neg[mul[d][inv0[b]]]]
            T = C[:]
            C += [0] * (len(B) + m - len(C))
            for i, bv in enumerate(B, m):
                C[i] = add[C[i]][mrow[bv]]
            if 2 * L <= n:
                L, B, b, m = n + 1 - L, T, d, 1
            else:
                m += 1
        out[r] = L
    return out


def _bm_rows_lockstep(t: ff.FieldTables, S: np.ndarray) -> np.ndarray:
    """All rows of S in lockstep: each row keeps its own L, b and
    connection polynomial C, and x^m B in place of B and its step count m
    (index rows of width N + 2), and every update applies under the mask
    of the rows it concerns.  At step n both C and x^m B have degree
    <= n + 1.  Since deg C <= L, the discrepancy of step n needs only
    C_0..C_K, K = min(n, max L); it is summed over prime-field
    components, (sum_i elems[mul[C_i, s_(n-i)]]) mod p."""
    R, N = S.shape
    one = t.emb[1]
    C = np.zeros((R, N + 2), dtype=np.int32)
    C[:, 0] = one
    xB = np.zeros_like(C)
    xB[:, 1] = one  # x^1 * 1
    L = np.zeros(R, dtype=np.int64)
    b = np.full(R, one, dtype=np.int32)
    for n in range(N):
        K = min(n, int(L.max(initial=0)))
        prods = t.mul[C[:, :K + 1], S[:, n::-1][:, :K + 1]]
        d = ((t.elems[prods].sum(axis=1) % t.p) @ t.place).astype(np.int32)
        r = np.flatnonzero(d)
        w = n + 2
        if len(r):
            coef = t.mul[d[r], t.inv0[b[r]]]
            Cr = C[r, :w]
            C[r, :w] = t.add[Cr, t.neg[t.mul[coef[:, None], xB[r, :w]]]]  # C -= coef x^m B
            longer = 2 * L[r] <= n
            grow = r[longer]
            xB[grow, :w] = Cr[longer]  # B = old C, m = 0
            b[grow] = d[grow]
            L[grow] = n + 1 - L[grow]
        xB[:, 1:w + 1] = xB[:, :w]  # m += 1
        xB[:, 0] = 0
    return L


def folded_weight(f: Poly) -> int:
    """Weight after folding the x^(q-1) coefficient into the constant."""
    q = f.ctx.q
    w = sum(1 for c in f.coeffs[1:q - 1] if c)
    if f.coeffs[0] + f.coeffs[q - 1]:
        w += 1
    return w


def blahut_rows(t: ff.FieldTables, coeff_rows: np.ndarray,
                table_rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(linear complexity, folded weight) per row, for s_n = f(alpha^n).

    Row r of coeff_rows holds the reduced coefficients of one f and row r
    of table_rows its value table, both as element indices.  The linear
    complexity comes from the sequence alone: the table read at the powers
    of alpha, run through berlekamp_massey_rows on two periods.  The weight
    is folded_weight's: the x^(q-1) coefficient folded into the constant.
    """
    q = t.q
    s = table_rows[:, t.exp]
    lc = berlekamp_massey_rows(t, np.hstack([s, s]))
    w = (np.count_nonzero(coeff_rows[:, 1:q - 1], axis=1)
         + (t.add[coeff_rows[:, 0], coeff_rows[:, q - 1]] != 0))
    return lc, w


def blahut_check(f: Poly) -> tuple[int, int, bool]:
    """(linear complexity, folded weight, equal?) for one f, by blahut_rows."""
    ctx = f.ctx
    if ctx.q > BLAHUT_CAP:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {BLAHUT_CAP}")
    t = ff.tables(ctx)
    row = ff.coeff_row(f)
    lc, w = (int(v[0]) for v in blahut_rows(t, row, t.batch_eval(row)))
    return lc, w, lc == w
