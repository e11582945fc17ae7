"""Carlitz chains, convergents, rank detection and weight bounds.

A chain of length n is the nested expression
    (...((a0 x + a1)^(q-2) + a2)^(q-2) ... + a_n)^(q-2) + a_{n+1},
with a0 != 0 and a2, ..., a_n != 0.  Off its pole set the chain agrees
with the fractional linear convergent built by the standard continued
fraction recurrence; that identity drives both the rank search and the
closed-form coefficient formula for length-2 chains.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fastfield as ff
from .errors import (BadChain, BadParam, BadRange, EvenCharacteristic,
                     FieldTooLarge, NotPermutation)
from .gf import Fe, FieldCtx, format_field_spec, inv0, make_field, parse_field_spec
from .polyring import (Poly, ValueTable, _pow_reduce, degree, eval_table,
                       evaluate, interpolate, is_permutation, reduce_mod_xq_x,
                       weight)
from .surd import Surd

__all__ = [
    "Chain", "MobiusMap", "PoleSet", "RankReport", "INFINITY",
    "expand_chain", "convergents", "agreement_check", "rank2_coeffs",
    "rank2_piecewise_eval", "rank1_weight", "rank1_weight_class",
    "rank_upto2", "thm_rank2_bound", "cor_rank2_bound", "got_bounds",
    "degree_rank_check", "example_fn", "sweep_rank1", "sweep_rank2",
]

RANK_CAP_DEFAULT = 343
MORE_THAN_2 = 3  # rank_class value meaning "more than 2"


class _Infinity:
    """The point at infinity of the projective line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"


INFINITY = _Infinity()


@dataclass(frozen=True)
class Chain:
    """Chain parameters (a0, ..., a_{n+1}); n = len(a) - 2 inversion steps."""

    ctx: FieldCtx
    a: tuple[Fe, ...]

    def __post_init__(self):
        if len(self.a) < 2:
            raise BadChain("a chain needs at least (a0, a1)")
        a = tuple(self.ctx.el(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if not a[0]:
            raise BadChain("a0 must be nonzero")
        for k in range(2, len(a) - 1):
            if not a[k]:
                raise BadChain(f"a{k} must be nonzero")

    @property
    def n(self) -> int:
        return len(self.a) - 2

    def to_json(self) -> str:
        n = self.ctx.n
        return json.dumps({
            "field": format_field_spec(self.ctx),
            "a": [c.coeffs[0] if n == 1 else list(c.coeffs) for c in self.a],
        })

    @classmethod
    def from_json(cls, text: str) -> "Chain":
        obj = json.loads(text)
        ctx = parse_field_spec(obj["field"])
        return cls(ctx, tuple(ctx.el(v) for v in obj["a"]))


@dataclass(frozen=True)
class MobiusMap:
    """(num[0] x + num[1]) / (den[0] x + den[1]) with nonzero determinant."""

    ctx: FieldCtx
    num: tuple[Fe, Fe]
    den: tuple[Fe, Fe]

    def __post_init__(self):
        if not (self.num[0] or self.num[1]) or not (self.den[0] or self.den[1]):
            raise BadParam("Mobius rows must be nonzero")
        if not self.det:
            raise BadParam("Mobius determinant must be nonzero")

    @property
    def det(self) -> Fe:
        return self.num[0] * self.den[1] - self.den[0] * self.num[1]

    def __call__(self, x: Fe):
        """Value at x, or INFINITY at the denominator's root."""
        d = self.den[0] * x + self.den[1]
        if not d:
            return INFINITY
        return (self.num[0] * x + self.num[1]) * inv0(d)

    def at_infinity(self):
        if not self.den[0]:
            return INFINITY
        return self.num[0] * inv0(self.den[0])


@dataclass(frozen=True)
class PoleSet:
    """Poles -beta_i/alpha_i, i = 1..n, as points of P^1(F_q)."""

    points: tuple

    def __contains__(self, x) -> bool:
        return x in self.points

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class RankReport:
    """rank_class in {0, 1, 2, MORE_THAN_2}; witness reproduces f when given."""

    rank_class: int
    witness: Chain | None = None

    @property
    def label(self) -> str:
        return "more-than-2" if self.rank_class == MORE_THAN_2 else str(self.rank_class)


# ---------------------------------------------------------------------------
# chain expansion and convergents

def _chain_value(ch: Chain, x: Fe) -> Fe:
    a = ch.a
    v = a[0] * x + a[1]
    for k in range(2, len(a)):
        v = inv0(v) + a[k]
    return v


def expand_chain(ch: Chain, route: str = "table") -> Poly:
    """Reduced polynomial of the chain; always a permutation polynomial.

    route="table" evaluates with inv0 and interpolates; route="power"
    repeatedly raises to q-2 with reduction mod x^q - x.  The two must
    agree (checked in the tests); "table" is the default because the
    power route costs O(q^2 log q).
    """
    ctx = ch.ctx
    if route == "table":
        vt = ValueTable(ctx, tuple(_chain_value(ch, ctx.el_at(i)) for i in range(ctx.q)))
        return interpolate(vt)
    if route == "power":
        poly = reduce_mod_xq_x(ctx, [(1, ch.a[0]), (0, ch.a[1])])
        for k in range(2, len(ch.a)):
            poly = _pow_reduce(poly, ctx.q - 2)
            poly = poly + Poly.from_coeffs(ctx, [ch.a[k]])
        return poly
    raise ValueError(f"unknown route {route!r}")


def convergents(ch: Chain) -> tuple[MobiusMap, PoleSet]:
    """Convergent R_n and pole set O_n from the standard recurrence."""
    if ch.n < 1:
        raise BadChain("convergents need chain length n >= 1")
    ctx = ch.ctx
    alpha = [ctx.zero(), ch.a[0]]
    beta = [ctx.one(), ch.a[1]]
    for k in range(2, ch.n + 2):
        alpha.append(alpha[k - 1] * ch.a[k] + alpha[k - 2])
        beta.append(beta[k - 1] * ch.a[k] + beta[k - 2])
    n = ch.n
    poles = []
    for i in range(1, n + 1):
        if alpha[i]:
            poles.append(-beta[i] * inv0(alpha[i]))
        else:
            poles.append(INFINITY)
    mob = MobiusMap(ctx, (alpha[n + 1], beta[n + 1]), (alpha[n], beta[n]))
    return mob, PoleSet(tuple(poles))


def agreement_check(ch: Chain) -> bool:
    """Chain equals its convergent at every point outside the pole set."""
    if ch.n < 1:
        raise BadChain("agreement check needs n >= 1")
    mob, poles = convergents(ch)
    ctx = ch.ctx
    for i in range(ctx.q):
        x = ctx.el_at(i)
        if x in poles:
            continue
        if mob(x) != _chain_value(ch, x):
            return False
    return True


# ---------------------------------------------------------------------------
# length-2 closed form

def rank2_coeffs(a0: Fe, a1: Fe, a2: Fe, a3: Fe) -> Poly:
    """Closed-form coefficients of ((a0 x + a1)^(q-2) + a2)^(q-2) + a3.

    coeff_i = a2^-1 (-a0)^i [(a1 - i a2^-1)(a1 + a2^-1)^(q-2-i) - a1^(q-1-i)]
    for 1 <= i <= q-2, constant a3 + a2^-1 [a1 (a1+a2^-1)^(q-2) + 1 - a1^(q-1)],
    under the 0^0 = 1 convention.
    """
    if not a0:
        raise BadParam("a0 must be nonzero")
    if not a2:
        raise BadParam("a2 must be nonzero")
    ctx = a0.ctx
    q = ctx.q
    inv_a2 = inv0(a2)
    eta = a1 + inv_a2
    neg_a0 = -a0
    # forward power lists; index k holds base^k with base^0 = 1 always
    pow_eta = [ctx.one()]
    pow_a1 = [ctx.one()]
    pow_neg = [ctx.one()]
    for _ in range(q - 1):
        pow_eta.append(pow_eta[-1] * eta)
        pow_a1.append(pow_a1[-1] * a1)
        pow_neg.append(pow_neg[-1] * neg_a0)
    coeffs = [ctx.zero()] * q
    coeffs[0] = a3 + inv_a2 * (a1 * pow_eta[q - 2] + ctx.one() - pow_a1[q - 1])
    for i in range(1, q - 1):
        bracket = (a1 - ctx.from_int(i) * inv_a2) * pow_eta[q - 2 - i] - pow_a1[q - 1 - i]
        coeffs[i] = inv_a2 * pow_neg[i] * bracket
    return Poly(ctx, tuple(coeffs))


def rank2_piecewise_eval(a1: Fe, a2: Fe, a3: Fe, x: Fe) -> Fe:
    """Three-branch value of the substituted length-2 chain at x.

    This is the independent evaluation oracle for rank2_coeffs: composing
    it with x -> a0 x reproduces the chain's value table.
    """
    if not a2:
        raise BadParam("a2 must be nonzero")
    ctx = a1.ctx
    inv_a2 = inv0(a2)
    if x == -a1:
        return inv_a2 + a3
    if x == -(a1 + inv_a2):
        return a3
    return (x + a1) * inv0(a2 * x + a1 * a2 + ctx.one()) + a3


# ---------------------------------------------------------------------------
# rank-1 weights

def rank1_weight_class(ctx: FieldCtx, a1: Fe, a2: Fe) -> int:
    """Predicted weight of (a0 x + a1)^(q-2) + a2 (independent of a0)."""
    if ctx.p == 2:
        raise EvenCharacteristic("rank-1 weight classes need odd p")
    q, p = ctx.q, ctx.p
    if not a1:
        return 1 if not a2 else 2
    if a2 == -inv0(a1):  # a1^(q-2) is the inverse of a1 here (a1 != 0)
        return q - q // p - 1
    return q - q // p


def rank1_weight(a0: Fe, a1: Fe, a2: Fe) -> tuple[Poly, int]:
    """Expansion of the length-1 chain plus its predicted weight class."""
    if not a0:
        raise BadParam("a0 must be nonzero")
    ctx = a0.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("rank-1 weight classification needs odd p")
    poly = expand_chain(Chain(ctx, (a0, a1, a2)))
    return poly, rank1_weight_class(ctx, a1, a2)


# ---------------------------------------------------------------------------
# rank detection up to 2

def _linear_witness(table: ValueTable) -> Chain | None:
    ctx = table.ctx
    b = table.values[0]  # f(0); enumeration index 0 is the zero element
    one_idx = ctx.index_of(ctx.one())
    a = table.values[one_idx] - b
    if not a:
        return None
    for i in range(ctx.q):
        if table.values[i] != a * ctx.el_at(i) + b:
            return None
    return Chain(ctx, (a, b))


def _mobius_through(ctx: FieldCtx, pts: list[tuple[Fe, Fe]]):
    """All Mobius maps (as 4-tuples, det != 0) through three graph points.

    Solves the homogeneous system y_i (C x_i + D) = A x_i + B.  Returns
    the nullspace solutions (the whole pencil when the system is
    degenerate), so a map through the points is never missed.
    """
    rows = [[x, ctx.one(), -(y * x), -y] for x, y in pts]  # unknowns (A, B, C, D)
    # Gaussian elimination to reduced row echelon form
    ncols = 4
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for rr in range(r, len(rows)):
            if rows[rr][c]:
                piv = rr
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = inv0(rows[r][c])
        rows[r] = [inv * v for v in rows[r]]
        for rr in range(len(rows)):
            if rr != r and rows[rr][c]:
                f = rows[rr][c]
                rows[rr] = [v - f * w for v, w in zip(rows[rr], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    free = [c for c in range(ncols) if c not in pivots]
    zero, one = ctx.zero(), ctx.one()

    def back_substitute(assign):
        sol = [zero] * ncols
        for c, v in zip(free, assign):
            sol[c] = v
        for rr in range(len(pivots) - 1, -1, -1):
            c = pivots[rr]
            acc = zero
            for cc in range(c + 1, ncols):
                acc = acc + rows[rr][cc] * sol[cc]
            sol[c] = -acc
        return tuple(sol)

    sols = []
    if len(free) == 1:
        sols.append(back_substitute([one]))
    elif len(free) == 2:
        # scan the projective pencil of solutions
        sols.append(back_substitute([zero, one]))
        for i in range(ctx.q):
            sols.append(back_substitute([one, ctx.el_at(i)]))
    elif len(free) >= 3:
        return None  # degenerate beyond use; caller falls back
    out = []
    for A, B, C, D in sols:
        if (A or B) and (C or D) and (A * D - B * C):
            out.append((A, B, C, D))
    return out


def _tables_equal(t1: ValueTable, t2: ValueTable) -> bool:
    return t1.values == t2.values


def _try_rank1(ctx, A, B, C, D, table) -> Chain | None:
    if not C:
        return None
    b2 = A * inv0(C)
    lam = B - D * b2
    if not lam:
        return None
    ilam = inv0(lam)
    b0 = C * ilam
    b1 = D * ilam
    if not b0:
        return None
    ch = Chain(ctx, (b0, b1, b2))
    if _tables_equal(eval_table(expand_chain(ch)), table):
        return ch
    return None


def _try_rank2(ctx, A, B, C, D, table) -> Chain | None:
    if not C:
        return None
    x2 = -D * inv0(C)
    a3 = table.values[ctx.index_of(x2)]
    num = C * a3 - A
    if not num:
        return None
    den = C * B - D * A
    if not den:
        return None
    mu = num * inv0(den)
    a0 = -mu * num
    a2 = -C * inv0(num)
    a1 = mu * (B - D * a3)
    if not a0 or not a2:
        return None
    ch = Chain(ctx, (a0, a1, a2, a3))
    if _tables_equal(eval_table(expand_chain(ch)), table):
        return ch
    return None


def _rank_enumerate(f: Poly, table: ValueTable) -> RankReport:
    """Exhaustive chain enumeration (complete by definition of the rank)."""
    ctx = f.ctx
    lin = _linear_witness(table)
    if lin is not None:
        return RankReport(0, lin)
    t = ff.tables(ctx)
    q = ctx.q
    target = [ctx.index_of(v) for v in table.values]
    units = range(1, q)
    for b0_i, b1_i, b2_i in itertools.product(units, range(q), range(q)):
        for x in range(q):
            v = t.add[t.inv0[t.add[t.mul[b0_i, x], b1_i]], b2_i]
            if v != target[x]:
                break
        else:
            return RankReport(1, Chain(ctx, (ctx.el_at(b0_i), ctx.el_at(b1_i), ctx.el_at(b2_i))))
    for a_i in itertools.product(units, range(q), units, range(q)):
        for x in range(q):
            v = t.add[t.mul[a_i[0], x], a_i[1]]
            v = t.add[t.inv0[v], a_i[2]]
            v = t.add[t.inv0[v], a_i[3]]
            if v != target[x]:
                break
        else:
            return RankReport(2, Chain(ctx, tuple(ctx.el_at(i) for i in a_i)))
    return RankReport(MORE_THAN_2)


def rank_upto2(f: Poly, cap: int = RANK_CAP_DEFAULT, method: str = "auto") -> RankReport:
    """Carlitz-rank classification into {0, 1, 2, more-than-2} with witness.

    method="auto" uses the Mobius prefilter: a rank <= 2 permutation
    agrees with its convergent off at most 2 points, so among 7 sample
    points at least 5 lie on that Mobius map and some sampled triple
    recovers it exactly.  Chain parameters are then reconstructed from
    the candidate map and verified against the full value table, which
    keeps the search sound.  method="enumerate" is the brute-force
    reference; "auto" falls back to it if the fit ever degenerates.
    """
    ctx = f.ctx
    if ctx.q > cap:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {cap}")
    table = eval_table(f)
    if len(set(table.values)) != ctx.q:
        raise NotPermutation("rank is defined for permutation polynomials only")
    if method == "enumerate":
        return _rank_enumerate(f, table)

    lin = _linear_witness(table)
    if lin is not None:
        return RankReport(0, lin)

    sample = [ctx.el_at(i) for i in range(min(ctx.q, 7))]
    candidates = []
    seen = set()
    degenerate = False
    for trio in itertools.combinations(sample, 3):
        pts = [(x, table.values[ctx.index_of(x)]) for x in trio]
        sols = _mobius_through(ctx, pts)
        if sols is None:
            degenerate = True
            continue
        for sol in sols:
            key = _normalize_mobius(sol)
            if key not in seen:
                seen.add(key)
                candidates.append(sol)
    best_rank1 = None
    for A, B, C, D in candidates:
        ch = _try_rank1(ctx, A, B, C, D, table)
        if ch is not None:
            best_rank1 = ch
            break
    if best_rank1 is not None:
        return RankReport(1, best_rank1)
    for A, B, C, D in candidates:
        ch = _try_rank2(ctx, A, B, C, D, table)
        if ch is not None:
            return RankReport(2, ch)
    if degenerate:
        return _rank_enumerate(f, table)
    return RankReport(MORE_THAN_2)


def _normalize_mobius(sol):
    A, B, C, D = sol
    for v in sol:
        if v:
            iv = inv0(v)
            return tuple((iv * w).coeffs for w in sol)
    return tuple(w.coeffs for w in sol)


# ---------------------------------------------------------------------------
# bounds

def thm_rank2_bound(ctx: FieldCtx) -> Surd:
    """q - q/p - sqrt(3p/2 - 39/16) + 1/4 as an exact comparison object."""
    if ctx.p == 2:
        raise EvenCharacteristic("the rank-2 weight bound needs odd p")
    q, p = ctx.q, ctx.p
    return Surd(Fraction(q) - Fraction(q, p) + Fraction(1, 4), Fraction(-1),
                Fraction(3 * p, 2) - Fraction(39, 16))


def cor_rank2_bound(ctx: FieldCtx, nu_p: int) -> int:
    """Sharp integer bound q - q/p - 1 - nu_p."""
    if ctx.p == 2:
        raise EvenCharacteristic("the sharp rank-2 bound needs odd p")
    return ctx.q - ctx.q // ctx.p - 1 - nu_p


def got_bounds(wt: int, q: int, rank: int) -> tuple[Fraction, Fraction]:
    """(rank lower bound from a weight, weight lower bound from a rank)."""
    if wt < 1 or rank < 1:
        raise BadRange("weight and rank must be >= 1")
    return (Fraction(q, wt + 2) - 1, Fraction(q, rank + 1) - 2)


def degree_rank_check(f: Poly, rank: int) -> bool:
    """rank >= q - 1 - deg(f); callers exclude rank-0 (linear) maps."""
    d = degree(f)
    if d is None:
        return False
    return rank >= f.ctx.q - 1 - d


# ---------------------------------------------------------------------------
# the q = 11^n family attaining the sharp bound

def example_fn(n: int, cap: int = 2) -> Poly:
    """Sum-form member of the sharp family over F_{11^n}, self-verified
    against its chain form ((2 - x)^(q-2) + 1)^(q-2) - 8."""
    if not 1 <= n <= cap:
        raise BadRange(f"need 1 <= n <= {cap}")
    ctx = make_field(11, n)
    q = ctx.q
    four = ctx.from_int(4)
    six = ctx.from_int(6)
    terms = []
    p4 = four  # 4^1
    p6 = ctx.one()
    for i in range(1, q - 1):
        p4 = p4 * four      # 4^(i+1)
        p6 = p6 * six       # 6^i
        terms.append((i, p4 * ctx.from_int(2 - i) - p6))
    f = reduce_mod_xq_x(ctx, terms)
    chain = Chain(ctx, (ctx.from_int(-1), ctx.from_int(2), ctx.one(), ctx.from_int(-8)))
    if f != expand_chain(chain):
        raise AssertionError("sum form disagrees with the chain form")
    if weight(f) != q - q // 11 - 4:
        raise AssertionError("family weight is off")
    return f


# ---------------------------------------------------------------------------
# sweep drivers

@dataclass
class Rank1Sweep:
    """Exhaustive rank-1 weight sweep over all (a0 != 0, a1, a2)."""

    ctx: FieldCtx
    weights: np.ndarray        # (m,) actual weights via evaluate+interpolate
    predicted: np.ndarray      # (m,) four-way classification
    a0_idx: np.ndarray
    a1_idx: np.ndarray
    a2_idx: np.ndarray

    @property
    def mismatches(self) -> np.ndarray:
        return np.nonzero(self.weights != self.predicted)[0]

    @property
    def min_weight(self) -> int:
        return int(self.weights.min())


def sweep_rank1(ctx: FieldCtx) -> Rank1Sweep:
    if ctx.p == 2:
        raise EvenCharacteristic("rank-1 sweep checks an odd-p theorem")
    q, p = ctx.q, ctx.p
    ff.check_bytes((q - 1) * q * q * q * 4, f"the rank-1 sweep table at q = {q}")
    t = ff.tables(ctx)
    a0, a1, a2 = [g.ravel().astype(np.int32) for g in
                  np.meshgrid(np.arange(1, q), np.arange(q), np.arange(q), indexing="ij")]
    tablesv = ff.chain_value_tables(t, [a0, a1, a2])
    coeffs = t.batch_interp(tablesv)
    weights = ff.weight_rows(coeffs)
    # predicted classes
    pred = np.full(len(a0), q - q // p, dtype=np.int64)
    neg_inv_a1 = t.neg[t.inv0[a1]]
    pred[(a1 != 0) & (a2 == neg_inv_a1)] = q - q // p - 1
    pred[(a1 == 0) & (a2 != 0)] = 2
    pred[(a1 == 0) & (a2 == 0)] = 1
    return Rank1Sweep(ctx, weights, pred, a0, a1, a2)


@dataclass
class Rank2Sweep:
    """Normalized rank-2 sweep: a0 = -1, constant term forced to 0.

    One row per (a1, a2 != 0).  Weights come from the chain value tables
    via interpolation (independent of the closed form); gamma_idx holds
    (a1 + a2^-1)/a1 for case-(c) rows and 0 elsewhere.
    """

    ctx: FieldCtx
    a1_idx: np.ndarray
    a2_idx: np.ndarray
    a3_idx: np.ndarray
    coeff_rows: np.ndarray
    weights: np.ndarray
    degrees: np.ndarray
    case_a: np.ndarray         # a1 == 0
    case_b: np.ndarray         # a1 != 0, a1 + a2^-1 == 0
    gamma_idx: np.ndarray
    exact_rank2: np.ndarray    # rows whose map has Carlitz rank exactly 2

    @property
    def min_weight(self) -> int | None:
        """Minimum weight over exact-rank-2 rows; None when no row qualifies."""
        if not self.exact_rank2.any():
            return None
        return int(self.weights[self.exact_rank2].min())


def sweep_rank2(ctx: FieldCtx, verify_rank_upto: int | None = None) -> Rank2Sweep:
    """Exhaustive sweep of normalized length-2 chains.

    A length-2 chain (a2 != 0) always has rank exactly 2 once q >= 7: the
    chain disagrees with its convergent at both poles, while a rank <= 1
    map would force the convergent to coincide with a Mobius map it can
    disagree with at one point at most.  For q <= 5 (or when
    verify_rank_upto says so) each row is re-checked with rank_upto2.
    """
    if ctx.p == 2:
        raise EvenCharacteristic("rank-2 sweep checks an odd-p theorem")
    q = ctx.q
    ff.check_bytes(q * (q - 1) * q * 4, f"the rank-2 sweep table at q = {q}")
    t = ff.tables(ctx)
    a1, a2 = [g.ravel().astype(np.int32) for g in
              np.meshgrid(np.arange(q), np.arange(1, q), indexing="ij")]
    m = len(a1)
    a0 = np.full(m, t.neg[t.emb[1]], dtype=np.int32)  # a0 = -1
    inv_a2 = t.inv0[a2]
    eta = t.add[a1, inv_a2]
    # a3 making the constant term vanish: a3 = -a2^-1 (a1 eta^(q-2) + 1 - a1^(q-1))
    eta_top = t.pow_scalar_exp(eta, q - 2)
    a1_top = t.pow_scalar_exp(a1, q - 1)
    inner = t.add[t.mul[a1, eta_top],
                  t.add[np.full(m, t.emb[1], np.int32), t.neg[a1_top]]]
    a3 = t.neg[t.mul[inv_a2, inner]]

    tablesv = ff.chain_value_tables(t, [a0, a1, a2, a3])
    coeffs = t.batch_interp(tablesv)
    if (coeffs[:, 0] != 0).any():
        raise AssertionError("normalization failed to zero the constant term")
    weights = ff.weight_rows(coeffs)
    degrees = ff.degree_rows(coeffs)

    case_a = a1 == 0
    case_b = (a1 != 0) & (eta == 0)
    gamma = np.zeros(m, dtype=np.int32)
    case_c = ~case_a & ~case_b
    gamma[case_c] = t.mul[eta[case_c], t.inv0[a1[case_c]]]

    exact = np.ones(m, dtype=bool)
    limit = verify_rank_upto if verify_rank_upto is not None else (5 if q <= 5 else 0)
    if q <= limit:
        for r in range(m):
            poly = Poly(ctx, tuple(ctx.el_at(int(i)) for i in coeffs[r]))
            exact[r] = rank_upto2(poly).rank_class == 2
    return Rank2Sweep(ctx, a1, a2, a3, coeffs, weights, degrees,
                      case_a, case_b, gamma, exact)
