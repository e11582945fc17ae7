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
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import fastfield as ff
from .errors import (BadChain, BadParam, BadRange, EvenCharacteristic,
                     FieldTooLarge, NotPermutation)
from .gf import Fe, FieldCtx, inv0, make_field
from .polyring import Poly, _pow_reduce, degree, reduce_mod_xq_x, weight

__all__ = [
    "Chain", "MobiusMap", "RankReport", "INFINITY", "expand_chain",
    "expand_chain_by_powers", "convergents", "agreement_check", "rank2_coeffs",
    "rank2_piecewise_eval", "rank1_weight", "rank_upto2",
    "rank_enumerate", "thm_rank2_bound", "cor_rank2_bound", "got_bounds",
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
        if self.ctx.q == 2 and len(self.a) > 2:  # x^(q-2) = x^0 is not inversion on F_2
            raise BadChain("over F_2 only length-0 chains a0 x + a1 are defined")
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


@dataclass(frozen=True)
class MobiusMap:
    """(num[0] x + num[1]) / (den[0] x + den[1]) with nonzero determinant."""

    ctx: FieldCtx
    num: tuple[Fe, Fe]
    den: tuple[Fe, Fe]

    def __post_init__(self):  # a zero row makes the determinant zero too
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


def _poly_of_row(ctx: FieldCtx, row) -> Poly:
    return Poly(ctx, tuple(ctx.el_at(int(i)) for i in row))


def expand_chain(ch: Chain) -> Poly:
    """Reduced polynomial of the chain; always a permutation polynomial.

    The one row of fastfield.chain_coeff_rows: the chain's value table on
    index tables, interpolated by the explicit matrix.
    """
    ctx = ch.ctx
    cols = [[ctx.index_of(a)] for a in ch.a]
    return _poly_of_row(ctx, ff.chain_coeff_rows(ff.tables(ctx), cols)[0])


def expand_chain_by_powers(ch: Chain) -> Poly:
    """The test oracle for expand_chain: raises to q-2 repeatedly with
    reduction mod x^q - x, O(q^2 log q)."""
    ctx = ch.ctx
    poly = reduce_mod_xq_x(ctx, [(1, ch.a[0]), (0, ch.a[1])])
    for k in range(2, len(ch.a)):
        poly = _pow_reduce(poly, ctx.q - 2)
        poly = poly + Poly.from_coeffs(ctx, [ch.a[k]])
    return poly


def convergents(ch: Chain) -> tuple[MobiusMap, tuple]:
    """Convergent R_n and pole set O_n from the standard recurrence.

    The poles -beta_i/alpha_i, i = 1..n, are points of P^1(F_q).
    """
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
    return mob, tuple(poles)


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
    under the 0^0 = 1 convention.  This is the one row of
    fastfield.rank2_coeff_rows; expand_chain is its oracle.
    """
    if not a0:
        raise BadParam("a0 must be nonzero")
    if not a2:
        raise BadParam("a2 must be nonzero")
    ctx = a0.ctx
    if ctx.q == 2:
        raise BadParam("the closed form needs q >= 3: over F_2, x^(q-2) = x^0 is not inversion")
    cols = ([ctx.index_of(a)] for a in (a0, a1, a2, a3))
    return _poly_of_row(ctx, ff.rank2_coeff_rows(ff.tables(ctx), *cols)[0])


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

def _rank1_classes(t: ff.FieldTables, a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """Predicted weight of (a0 x + a1)^(q-2) + a2 per row (independent of a0).

    1 for a1 = a2 = 0, 2 for a1 = 0 != a2, q - q/p - 1 for a2 = -a1^-1,
    and q - q/p otherwise; odd p.
    """
    q, p = t.q, t.p
    pred = np.full(len(a1), q - q // p, dtype=np.int64)
    pred[(a1 != 0) & (a2 == t.neg[t.inv0[a1]])] = q - q // p - 1
    pred[(a1 == 0) & (a2 != 0)] = 2
    pred[(a1 == 0) & (a2 == 0)] = 1
    return pred


def rank1_weight(a0: Fe, a1: Fe, a2: Fe) -> tuple[Poly, int]:
    """Expansion of the length-1 chain plus its predicted weight class."""
    if not a0:
        raise BadParam("a0 must be nonzero")
    ctx = a0.ctx
    if ctx.p == 2:
        raise EvenCharacteristic("rank-1 weight classification needs odd p")
    poly = expand_chain(Chain(ctx, (a0, a1, a2)))
    cls = _rank1_classes(ff.tables(ctx), np.array([ctx.index_of(a1)]),
                         np.array([ctx.index_of(a2)]))
    return poly, int(cls[0])


# ---------------------------------------------------------------------------
# rank detection up to 2

def _permutation_table(f: Poly) -> np.ndarray:
    vals = ff.value_table(f)
    if not ff.permutes(vals):
        raise NotPermutation("rank is defined for permutation polynomials only")
    return vals


def _first_match(t: ff.FieldTables, cols, vals: np.ndarray, rank: int) -> RankReport | None:
    """The first chain among the parameter columns cols whose value table
    is vals, as a rank report, or None."""
    hits = np.flatnonzero((ff.chain_value_tables(t, cols) == vals).all(axis=1))
    if not len(hits):
        return None
    return RankReport(rank, Chain(t.ctx, tuple(t.ctx.el_at(int(a[hits[0]])) for a in cols)))


def _linear_witness(t: ff.FieldTables, vals: np.ndarray) -> RankReport | None:
    b = vals[0]  # f(0); enumeration index 0 is the zero element
    a = t.add[vals[t.emb[1]], t.neg[b]]
    return _first_match(t, [[a], [b]], vals, 0) if a else None


def _mobius_through(t: ff.FieldTables, x: np.ndarray, y: np.ndarray):
    """Index columns (A, B, C, D) of the Mobius maps through three points per row.

    x and y are (m, 3) index arrays, distinct within each row.
    S_x = [[x3-x2, -x1(x3-x2)], [x3-x1, -x2(x3-x1)]] sends x1, x2, x3 to
    0, INFINITY, 1; S_y does the same for the y values, so adj(S_y) S_x
    sends each x_i to y_i.
    """
    add, mul, neg = t.add, t.mul, t.neg

    def sub(u, v):
        return add[u, neg[v]]

    def to_0_inf_1(p1, p2, p3):
        u, w = sub(p3, p2), sub(p3, p1)
        return u, neg[mul[p1, u]], w, neg[mul[p2, w]]

    a, b, c, d = to_0_inf_1(*x.T)
    e, f, g, h = to_0_inf_1(*y.T)
    # adj(S_y) = [[h, -f], [-g, e]]
    return (sub(mul[h, a], mul[f, c]), sub(mul[h, b], mul[f, d]),
            sub(mul[e, c], mul[g, a]), sub(mul[e, d], mul[g, b]))


def rank_enumerate(f: Poly) -> RankReport:
    """Exhaustive chain enumeration (complete by definition of the rank).

    The oracle that the tests hold rank_upto2 to: the value tables of
    every chain of length 1, then 2, in lexicographic parameter order;
    the first equal to f's is the witness.  The length-2 tables take
    (q-1)^2 q^3 entries, so small q only (FieldTooLarge from q = 41).
    """
    vals = _permutation_table(f)
    t = ff.tables(f.ctx)
    lin = _linear_witness(t, vals)
    if lin is not None:
        return lin
    q = t.q
    for n in (1, 2):
        ff.check_bytes((q - 1) ** n * q ** 3 * 4, f"the length-{n} chain tables at q = {q}")
        rep = _first_match(t, ff.chain_grid(q, n), vals, n)
        if rep is not None:
            return rep
    return RankReport(MORE_THAN_2)


def rank_upto2(f: Poly) -> RankReport:
    """Carlitz-rank classification into {0, 1, 2, more-than-2} with witness.

    A rank <= 2 permutation agrees with its convergent Mobius map off at
    most 2 points, so among 7 sample points at least 5 lie on that map
    and some sampled triple lies on it.  PGL_2(F_q) acts sharply
    3-transitively on P^1(F_q), so each triple of graph points (distinct
    x, and distinct y because f permutes) fixes exactly one Mobius map.
    The maps of all (at most 35) triples are fitted at once on index
    tables.  Chain parameters are reconstructed from each map; they do not
    change when the map is rescaled.  The value tables of all rank-1
    candidates, then of all rank-2 candidates, are compared with f's at
    every point, and the first match in triple order is the witness.  This
    keeps the search sound; rank_enumerate is the exhaustive oracle.
    """
    ctx = f.ctx
    if ctx.q > RANK_CAP_DEFAULT:
        raise FieldTooLarge(f"q = {ctx.q} exceeds cap {RANK_CAP_DEFAULT}")
    vals = _permutation_table(f)
    t = ff.tables(ctx)
    lin = _linear_witness(t, vals)
    if lin is not None:
        return lin

    x = np.array(list(itertools.combinations(range(min(ctx.q, 7)), 3)),
                 dtype=np.int32).reshape(-1, 3)
    A, B, C, D = _mobius_through(t, x, vals[x])
    add, mul, neg, inv = t.add, t.mul, t.neg, t.inv0
    # rank 1: (A x + B)/(C x + D) = ((C/lam) x + D/lam)^-1 + A/C, lam = B - D A/C
    b2 = mul[A, inv[C]]
    lam = add[B, neg[mul[D, b2]]]
    il = inv[lam]
    rank1 = ([mul[C, il], mul[D, il], b2], (C != 0) & (lam != 0))
    # rank 2: a3 is the value at the convergent's pole -D/C
    a3 = vals[neg[mul[D, inv[C]]]]
    num = add[mul[C, a3], neg[A]]
    den = add[mul[C, B], neg[mul[D, A]]]
    mu = mul[num, inv[den]]
    rank2 = ([neg[mul[mu, num]], mul[mu, add[B, neg[mul[D, a3]]]], neg[mul[C, inv[num]]], a3],
             (C != 0) & (num != 0) & (den != 0))
    for rank, (cols, ok) in ((1, rank1), (2, rank2)):
        rep = _first_match(t, [c[ok] for c in cols], vals, rank)
        if rep is not None:
            return rep
    return RankReport(MORE_THAN_2)


# ---------------------------------------------------------------------------
# bounds

def thm_rank2_bound(ctx: FieldCtx) -> float:
    """q - q/p - sqrt(3p/2 - 39/16) + 1/4 as a float, for display only."""
    if ctx.p == 2:
        raise EvenCharacteristic("the rank-2 weight bound needs odd p")
    q, p = ctx.q, ctx.p
    return (q - q // p + 0.25) - math.sqrt((24 * p - 39) / 16)


def cor_rank2_bound(ctx: FieldCtx, nu_p: int) -> int:
    """Sharp integer bound q - q/p - 1 - nu_p."""
    if ctx.p == 2:
        raise EvenCharacteristic("the sharp rank-2 bound needs odd p")
    return ctx.q - ctx.q // ctx.p - 1 - nu_p


def _weight_floor(q: int, rank: int) -> Fraction:
    """q/(rank + 1) - 2, the weight lower bound at a rank."""
    return Fraction(q, rank + 1) - 2


def _degree_rank_floor(q: int, deg):
    """q - 1 - deg, the rank lower bound at a degree (int or array)."""
    return q - 1 - deg


def got_bounds(wt: int, q: int, rank: int) -> tuple[Fraction, Fraction]:
    """(rank lower bound from a weight, weight lower bound from a rank)."""
    if wt < 1 or rank < 1:
        raise BadRange("weight and rank must be >= 1")
    return (Fraction(q, wt + 2) - 1, _weight_floor(q, rank))


def degree_rank_check(f: Poly, rank: int) -> bool:
    """rank >= q - 1 - deg(f); callers exclude rank-0 (linear) maps."""
    d = degree(f)
    if d is None:
        return False
    return rank >= _degree_rank_floor(f.ctx.q, d)


# ---------------------------------------------------------------------------
# the q = 11^n family attaining the sharp bound

def example_fn(n: int) -> Poly:
    """Sum-form member of the sharp family over F_{11^n}, self-verified
    against its chain form ((2 - x)^(q-2) + 1)^(q-2) - 8."""
    if not 1 <= n <= 2:
        raise BadRange("need 1 <= n <= 2")
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

    @property
    def mismatches(self) -> np.ndarray:
        return np.nonzero(self.weights != self.predicted)[0]

    @property
    def min_weight(self) -> int:
        return int(self.weights.min())


def sweep_rank1(ctx: FieldCtx) -> Rank1Sweep:
    if ctx.p == 2:
        raise EvenCharacteristic("rank-1 sweep checks an odd-p theorem")
    q = ctx.q
    ff.check_bytes((q - 1) * q * q * q * 4, f"the rank-1 sweep table at q = {q}")
    t = ff.tables(ctx)
    grid = ff.chain_grid(q, 1)
    weights = np.empty(len(grid[0]), dtype=np.intp)
    for s, rows in ff.chain_coeff_blocks(t, grid):
        weights[s:s + len(rows)] = ff.weight_rows(rows)
    return Rank1Sweep(ctx, weights, _rank1_classes(t, grid[1], grid[2]))


@dataclass
class Rank2Sweep:
    """Normalized rank-2 sweep: a0 = -1, constant term forced to 0.

    One row per (a1, a2 != 0).  Weights come from the chain value tables
    via interpolation (independent of the closed form), block by block, as
    do the rows coeff_rows[idx] recomputes; gamma_idx holds
    (a1 + a2^-1)/a1 for case-(c) rows and 0 elsewhere.
    """

    ctx: FieldCtx
    a1_idx: np.ndarray
    a2_idx: np.ndarray
    a3_idx: np.ndarray
    coeff_rows: ff.ChainRows
    weights: np.ndarray
    degrees: np.ndarray
    special: np.ndarray        # shape c1 + c2 x^(q-2): no nonzero coefficient in 1..q-3
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


def sweep_rank2(ctx: FieldCtx) -> Rank2Sweep:
    """Exhaustive sweep of normalized length-2 chains.

    A length-2 chain (a2 != 0) always has rank exactly 2 once q >= 7: the
    chain disagrees with its convergent at both poles, while a rank <= 1
    map would force the convergent to coincide with a Mobius map it can
    disagree with at one point at most.  For q <= 5 each row is
    re-checked with rank_upto2.
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
    a3 = t.neg[ff.rank2_shift(t, a1, a2)]  # makes the constant term vanish
    cols = [a0, a1, a2, a3]
    weights = np.empty(m, dtype=np.intp)
    degrees = np.empty(m, dtype=np.intp)
    special = np.empty(m, dtype=bool)
    exact = np.ones(m, dtype=bool)
    for s, rows in ff.chain_coeff_blocks(t, cols):
        if (rows[:, 0] != 0).any():
            raise AssertionError("normalization failed to zero the constant term")
        e = s + len(rows)
        weights[s:e] = ff.weight_rows(rows)
        degrees[s:e] = ff.degree_rows(rows)
        special[s:e] = (rows[:, 1:q - 2] == 0).all(axis=1)
        if q <= 5:
            for r, row in enumerate(rows, s):
                exact[r] = rank_upto2(_poly_of_row(ctx, row)).rank_class == 2

    eta = t.add[a1, t.inv0[a2]]
    case_a = a1 == 0
    case_b = (a1 != 0) & (eta == 0)
    gamma = np.zeros(m, dtype=np.int32)
    case_c = ~case_a & ~case_b
    gamma[case_c] = t.mul[eta[case_c], t.inv0[a1[case_c]]]
    return Rank2Sweep(ctx, a1, a2, a3, ff.ChainRows(t, cols), weights, degrees,
                      special, case_a, case_b, gamma, exact)
