"""Polynomials over F_q as maps F_q -> F_q.

A Poly is stored in reduced form: a dense length-q coefficient vector
with exponents folded by x^q == x.  The fold keeps exponent q-1 distinct
from 0 (x^(q-1) and the constant 1 differ as maps, at x = 0); collapsing
q-1 into 0 happens only in the Blahut check (see lincomp).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import BadRange, MixedFields
from .gf import Fe, FieldCtx, format_field_spec, lucas_binom, parse_field_spec

__all__ = [
    "Poly", "ValueTable", "reduce_mod_xq_x", "weight", "degree", "evaluate",
    "eval_table", "is_permutation", "interpolate", "poly_to_json", "poly_from_json",
]


def _fold_exp(e: int, q: int) -> int:
    """x^e == x^fold(e) on all of F_q: e > 0 folds into [1, q-1], 0 stays 0."""
    if e == 0:
        return 0
    return (e - 1) % (q - 1) + 1


@dataclass(frozen=True)
class Poly:
    """Reduced polynomial: coeffs[i] is the coefficient of x^i, length q."""

    ctx: FieldCtx
    coeffs: tuple[Fe, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.ctx.q:
            raise ValueError(f"need exactly {self.ctx.q} coefficients")

    @classmethod
    def from_coeffs(cls, ctx: FieldCtx, coeffs) -> "Poly":
        """Dense low-to-high coefficients with exponents < q; shorter lists pad."""
        fes = [ctx.el(c) for c in coeffs]
        if len(fes) > ctx.q:
            raise ValueError("use reduce_mod_xq_x for exponents >= q")
        fes += [ctx.zero()] * (ctx.q - len(fes))
        return cls(ctx, tuple(fes))

    @classmethod
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, (ctx.zero(),) * ctx.q)

    def __add__(self, other: "Poly") -> "Poly":
        if other.ctx != self.ctx:
            raise MixedFields("polynomials over different fields")
        return Poly(self.ctx, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __repr__(self):
        terms = [f"{list(c.coeffs) if self.ctx.n > 1 else c.coeffs[0]}*x^{i}"
                 for i, c in enumerate(self.coeffs) if c]
        return "Poly(" + (" + ".join(terms) or "0") + f" over GF({self.ctx.q}))"


@dataclass(frozen=True)
class ValueTable:
    """Values f(a) for a in the fixed field enumeration (index via ctx.el_at)."""

    ctx: FieldCtx
    values: tuple[Fe, ...]

    def __post_init__(self):
        if len(self.values) != self.ctx.q:
            raise ValueError(f"need exactly {self.ctx.q} values")


def reduce_mod_xq_x(ctx: FieldCtx, terms) -> Poly:
    """Build a reduced Poly from sparse (exponent, coefficient) terms."""
    acc = [ctx.zero()] * ctx.q
    for e, c in terms:
        if e < 0:
            raise ValueError(f"negative exponent {e}")
        c = ctx.el(c)
        if isinstance(c, Fe) and c.ctx != ctx:
            raise MixedFields("term coefficient from a different field")
        k = _fold_exp(e, ctx.q)
        acc[k] = acc[k] + c
    return Poly(ctx, tuple(acc))


def weight(f: Poly) -> int:
    """Number of nonzero coefficients of the reduced form."""
    return sum(1 for c in f.coeffs if c)


def degree(f: Poly) -> int | None:
    """Largest exponent with nonzero coefficient; None for the zero polynomial."""
    for i in range(f.ctx.q - 1, -1, -1):
        if f.coeffs[i]:
            return i
    return None


def evaluate(f: Poly, x: Fe) -> Fe:
    if x.ctx != f.ctx:
        raise MixedFields("point from a different field")
    acc = f.ctx.zero()
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def eval_table(f: Poly) -> ValueTable:
    ctx = f.ctx
    return ValueTable(ctx, tuple(evaluate(f, ctx.el_at(i)) for i in range(ctx.q)))


def is_permutation(f: Poly) -> bool:
    return len(set(eval_table(f).values)) == f.ctx.q


def interpolate(t: ValueTable) -> Poly:
    """Unique reduced polynomial matching the table.

    Uses the kernel form sum_a f(a) * (1 - (x - a)^(q-1)); the binomials
    of (x - a)^(q-1) are taken mod p digit-wise.
    """
    ctx = t.ctx
    q = ctx.q
    binoms = [ctx.from_int(lucas_binom(q - 1, k, ctx.p)) for k in range(q)]
    acc = [ctx.zero()] * q
    for idx in range(q):
        v = t.values[idx]
        if not v:
            continue
        a = ctx.el_at(idx)
        # powers of (-a), 0..q-1, with (-a)^0 = 1 even for a = 0
        neg_a = -a
        pw = [ctx.one()]
        for _ in range(q - 1):
            pw.append(pw[-1] * neg_a)
        acc[0] = acc[0] + v
        for k in range(q):
            acc[k] = acc[k] - v * binoms[k] * pw[q - 1 - k]
    return Poly(ctx, tuple(acc))


def _mul_reduce(f: Poly, g: Poly) -> Poly:
    """Product of two reduced polynomials, folded back to reduced form."""
    ctx = f.ctx
    q = ctx.q
    acc = [ctx.zero()] * q
    for i, a in enumerate(f.coeffs):
        if not a:
            continue
        for j, b in enumerate(g.coeffs):
            if not b:
                continue
            k = _fold_exp(i + j, q)
            acc[k] = acc[k] + a * b
    return Poly(ctx, tuple(acc))


def _pow_reduce(f: Poly, e: int) -> Poly:
    """f^e folded by x^q == x (e >= 0)."""
    ctx = f.ctx
    result = Poly.from_coeffs(ctx, [1])
    base = f
    while e:
        if e & 1:
            result = _mul_reduce(result, base)
        base = _mul_reduce(base, base)
        e >>= 1
    return result


# ---------------------------------------------------------------------------
# JSON text form

def _coeff_to_jsonable(c: Fe):
    return c.coeffs[0] if c.ctx.n == 1 else list(c.coeffs)


def poly_to_json(f: Poly) -> str:
    top = degree(f)
    upto = 0 if top is None else top + 1
    return json.dumps({
        "field": format_field_spec(f.ctx),
        "coeffs": [_coeff_to_jsonable(c) for c in f.coeffs[:upto]],
    })


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)  # JSON true/false are no coefficients


def poly_from_json(text: str, ctx: FieldCtx | None = None) -> Poly:
    obj = json.loads(text)
    fctx = parse_field_spec(obj["field"])
    if ctx is not None and fctx != ctx:
        raise MixedFields("polynomial JSON names a different field")
    coeffs = obj["coeffs"]
    if not isinstance(coeffs, list):
        raise BadRange(f"coeffs must be a list, got {json.dumps(coeffs)}")
    for k, c in enumerate(coeffs):
        if not (_is_int(c) or isinstance(c, list) and all(map(_is_int, c))):
            raise BadRange(f"coeffs[{k}] = {json.dumps(c)} is not an int or a list of ints")
    return Poly.from_coeffs(fctx, coeffs)
