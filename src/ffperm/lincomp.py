"""Linear complexity over F_q and the weight/complexity duality check.

For f reduced mod x^q - x and alpha a primitive element, the sequence
s_n = f(alpha^n) has period q - 1 and its linear complexity equals the
number of nonzero coefficients of f once the coefficient of x^(q-1) is
folded into the constant term (alpha^n never takes the value 0, so the
sequence cannot tell x^(q-1) from 1).
"""

from __future__ import annotations

from . import fastfield as ff
from .errors import EmptySequence, FieldTooLarge, MixedFields
from .gf import Fe, FieldCtx, primitive_element
from .polyring import Poly, evaluate, weight

__all__ = ["Sequence", "berlekamp_massey", "blahut_check", "folded_weight",
           "sequence_from_poly", "BLAHUT_CAP"]

BLAHUT_CAP = 512


class Sequence:
    """One period of s_n = f(alpha^n), n = 0..q-2, plus its provenance."""

    def __init__(self, ctx: FieldCtx, terms, source: Poly | None = None,
                 alpha: Fe | None = None):
        self.ctx = ctx
        self.terms = tuple(ctx.el(t) for t in terms)
        self.source = source
        self.alpha = alpha if alpha is not None else primitive_element(ctx)
        if source is not None and len(self.terms) != ctx.q - 1:
            raise ValueError("polynomial sequences have exactly q-1 terms")

    def doubled(self) -> tuple[Fe, ...]:
        return self.terms + self.terms


def sequence_from_poly(f: Poly, alpha: Fe | None = None) -> Sequence:
    ctx = f.ctx
    if alpha is None:
        alpha = primitive_element(ctx)
    elif alpha.ctx != ctx:
        raise MixedFields("alpha from a different field")
    terms = []
    x = ctx.one()
    for _ in range(ctx.q - 1):
        terms.append(evaluate(f, x))
        x = x * alpha
    return Sequence(ctx, terms, source=f, alpha=alpha)


class _FeOps:
    """Field operations on Fe values, the default backend for BM."""

    def __init__(self, ctx: FieldCtx):
        self.ctx = ctx
        self.one = ctx.one()

    def add(self, x, y):
        return x + y

    def sub(self, x, y):
        return x - y

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        from .gf import inv0
        return inv0(x)


def berlekamp_massey(s, ops=None) -> int:
    """Length of the shortest LFSR over F_q generating the terms of s.

    s is a sequence of Fe values (or of element indices when ops is a
    fastfield.TableOps).  Periodic inputs should provide two periods.
    """
    s = list(s)
    if not s:
        raise EmptySequence("berlekamp_massey needs at least one term")
    if ops is None:
        ops = _FeOps(s[0].ctx)
    zero = ops.sub(ops.one, ops.one)
    C = [ops.one]
    B = [ops.one]
    L, m = 0, 1
    b = ops.one
    for n in range(len(s)):
        d = s[n]
        for i in range(1, L + 1):
            d = ops.add(d, ops.mul(C[i], s[n - i]))
        if d == zero:
            m += 1
            continue
        coef = ops.mul(d, ops.inv(b))
        if 2 * L <= n:
            T = list(C)
            C = C + [zero] * (len(B) + m - len(C))
            for i, bv in enumerate(B):
                C[i + m] = ops.sub(C[i + m], ops.mul(coef, bv))
            L = n + 1 - L
            B = T
            b = d
            m = 1
        else:
            C = C + [zero] * (len(B) + m - len(C))
            for i, bv in enumerate(B):
                C[i + m] = ops.sub(C[i + m], ops.mul(coef, bv))
            m += 1
    return L


def folded_weight(f: Poly) -> int:
    """Weight after folding the x^(q-1) coefficient into the constant."""
    q = f.ctx.q
    w = sum(1 for c in f.coeffs[1:q - 1] if c)
    if f.coeffs[0] + f.coeffs[q - 1]:
        w += 1
    return w


def blahut_check(f: Poly, fold: bool = True,
                 cap: int = BLAHUT_CAP) -> tuple[int, int, bool]:
    """(linear complexity, folded weight, equal?) for s_n = f(alpha^n).

    fold=False compares against the raw weight instead, exposing the
    mismatch for polynomials with an x^(q-1) term.
    """
    ctx = f.ctx
    if ctx.q > cap:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {cap}")
    seq = sequence_from_poly(f)
    lc = berlekamp_massey(seq.doubled())
    w = folded_weight(f) if fold else weight(f)
    return lc, w, lc == w
