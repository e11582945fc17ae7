"""Exact arithmetic in GF(p^n).

Elements are immutable coefficient vectors over the prime field, reduced
modulo a verified irreducible modulus.  p = 2 is allowed here; operations
that implement odd-characteristic theorems reject it at their own level.

Element enumeration order (used by value tables and by primitive-element
search) is lexicographic on the stored coefficient vector
(c0, c1, ..., c_{n-1}), i.e. index = sum c_k * p^(n-1-k).  For prime
fields this is just 0, 1, ..., p-1.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

from .errors import BadRange, CompositeP, FieldTooLarge, MixedFields, ReducibleModulus, ZeroElement

__all__ = [
    "FieldCtx", "Fe", "make_field", "inv0", "order", "primitive_element",
    "lucas_binom", "is_prime", "parse_field_spec", "format_field_spec",
]

FACTOR_BOUND = 1 << 20  # largest trial divisor of factorize (about 0.12 s)
WORK_CAP = 1 << 25  # work of a modulus or primitive-element search, in units of about
#                     0.12 us; a product in F_(p^n) costs n^2 + 64 (64 for the calls)


def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin, valid far beyond any field used here."""
    if m < 2:
        return False
    for sp in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % sp == 0:
            return m == sp
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def factorize(m: int) -> list[int]:
    """Distinct prime factors of m, ascending, by trial division up to
    FACTOR_BOUND; a cofactor then left over FACTOR_BOUND^2 raises FieldTooLarge."""
    out = []
    d = 2
    while d * d <= m:
        if d > FACTOR_BOUND:
            raise FieldTooLarge(f"trial division to {FACTOR_BOUND} leaves a "
                                f"{m.bit_length()}-bit cofactor unfactored")
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# polynomial helpers over F_p (coefficient lists, low-to-high, no padding)

def _ptrim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmulmod(a, b, mod, p):
    res = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    return _prem([c % p for c in res], mod, p)


def _prem(a, mod, p):
    # mod is monic
    a = list(a)
    dm = len(mod) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * mod[j]) % p
    return _ptrim(a)


def _ppowmod(a, e, mod, p):
    """a^e mod mod, e >= 1: bit_length(e) - 1 squarings, bit_count(e) - 1 products."""
    base = _prem(a, mod, p)
    result = base
    for bit in bin(e)[3:]:
        result = _pmulmod(result, result, mod, p)
        if bit == "1":
            result = _pmulmod(result, base, mod, p)
    return result


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic on the fly
        lead = b[-1]
        if lead != 1:
            inv = pow(lead, p - 2, p)
            b = [(c * inv) % p for c in b]
        a = _prem(a, b, p)
        a, b = b, a
    return a


def _least_factor_degree(coeffs, p) -> int:
    """Ben-Or's test; coeffs: monic f over F_p, low-to-high, degree n >= 1.

    x^(p^i) - x is the product of the monic irreducibles whose degree divides
    i, and a reducible f has a factor of degree <= n/2, so the least i <= n/2
    with gcd(x^(p^i) - x, f) != 1 is the least degree of a factor of f, and 0
    (no such i) means f is irreducible.  Step i is one power by p mod f.
    """
    x = [0, 1]
    xp = x
    for i in range(1, (len(coeffs) - 1) // 2 + 1):
        xp = _ppowmod(xp, p, coeffs, p)
        diff = _ptrim([(a - b) % p for a, b in itertools.zip_longest(xp, x, fillvalue=0)])
        if len(_pgcd(coeffs, diff, p)) > 1:
            return i
    return 0


def _power_work(e: int, n: int) -> int:
    """Work of one power a^e mod a degree-n modulus, in WORK_CAP's units."""
    return (e.bit_length() + e.bit_count() - 2) * (n * n + 64)


def _check_work(work: int, what: str) -> None:
    """Raise FieldTooLarge before work past WORK_CAP."""
    if work > WORK_CAP:
        raise FieldTooLarge(f"{what} needs more than {WORK_CAP} units of work")


def _default_modulus(p: int, n: int) -> tuple[int, ...]:
    """Monic irreducible of degree n minimizing (c_{n-1}, ..., c0) lexicographically:
    candidate k has c_j = digit j of k in base p.  The search stops before a
    candidate whose whole test (n // 2 Ben-Or steps) could take it past WORK_CAP."""
    step = _power_work(p, n)
    work = 0
    for k in itertools.count():
        _check_work(work + n // 2 * step, f"the modulus search for F_({p}^{n})")
        cand = tuple(k // p ** j % p for j in range(n)) + (1,)  # low-to-high
        d = _least_factor_degree(cand, p)
        if not d:
            return cand
        work += d * step


# ---------------------------------------------------------------------------

class FieldCtx:
    """A finite field F_{p^n}; immutable after construction.

    The primitive-element cache is write-once; recomputation is idempotent,
    so sharing a context across threads is safe.
    """

    __slots__ = ("p", "n", "q", "modulus", "_primitive", "_tables")

    def __init__(self, p: int, n: int = 1, modulus=None):
        if n < 1:
            raise BadRange(f"extension degree must be >= 1, got {n}")
        if not is_prime(p):
            raise CompositeP(f"{p} is not prime")
        if modulus is not None:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ReducibleModulus(
                    f"modulus must be monic of degree {n}, got {list(modulus)}")
            _check_work(n // 2 * _power_work(p, n), f"testing a modulus of F_({p}^{n})")
            if _least_factor_degree(modulus, p):
                raise ReducibleModulus(f"modulus {list(modulus)} is reducible over F_{p}")
        if modulus is None or n == 1:  # every monic x - c gives the one F_p
            modulus = _default_modulus(p, n)
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = modulus
        self._primitive = None
        self._tables = None

    # -- identity ----------------------------------------------------------
    def __eq__(self, other):
        return (isinstance(other, FieldCtx)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def __repr__(self):
        if self.n == 1:
            return f"FieldCtx(GF({self.p}))"
        return f"FieldCtx(GF({self.p}^{self.n}), mod={list(self.modulus)})"

    # -- element construction ---------------------------------------------
    def el(self, v) -> "Fe":
        """Build an element from an int (embedded mod p) or coefficient list."""
        if isinstance(v, Fe):
            if v.ctx != self:
                raise MixedFields("element from a different field")
            return v
        if isinstance(v, int):
            return self.from_int(v)
        coeffs = tuple(c % self.p for c in v)
        if len(coeffs) > self.n:
            raise BadRange(f"coefficient vector longer than degree {self.n}")
        coeffs = coeffs + (0,) * (self.n - len(coeffs))
        return Fe(self, coeffs)

    def from_int(self, i: int) -> "Fe":
        """Embed the integer i as (i mod p) * 1.  Every such embedding goes
        through here so integer-in-field expressions stay auditable."""
        return Fe(self, (i % self.p,) + (0,) * (self.n - 1))

    def zero(self) -> "Fe":
        return Fe(self, (0,) * self.n)

    def one(self) -> "Fe":
        return self.from_int(1)

    # -- enumeration -------------------------------------------------------
    def el_at(self, index: int) -> "Fe":
        """Element at the given position of the fixed enumeration."""
        if not 0 <= index < self.q:
            raise BadRange(f"index {index} out of [0, {self.q})")
        coeffs = []
        for k in range(self.n - 1, -1, -1):
            place = self.p ** k
            coeffs.append(index // place)
            index %= place
        return Fe(self, tuple(coeffs))

    def index_of(self, a: "Fe") -> int:
        idx = 0
        for c in a.coeffs:
            idx = idx * self.p + c
        return idx


class Fe:
    """Field element: immutable coefficient vector, value semantics."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other: "Fe"):
        if not isinstance(other, Fe):
            raise TypeError(f"expected Fe, got {type(other).__name__}")
        if other.ctx != self.ctx:
            raise MixedFields("operands from different fields")

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, Fe):
            return NotImplemented
        return self.ctx == other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return Fe(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return Fe(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return Fe(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        ctx = self.ctx
        if ctx.n == 1:
            return Fe(ctx, ((self.coeffs[0] * other.coeffs[0]) % ctx.p,))
        red = _pmulmod(self.coeffs, other.coeffs, ctx.modulus, ctx.p)
        return Fe(ctx, tuple(red) + (0,) * (ctx.n - len(red)))

    def __pow__(self, e: int):
        """Exponentiation with 0**0 = 1; negative e allowed for nonzero base."""
        ctx = self.ctx
        if e == 0:
            return ctx.one()
        if not self:
            if e < 0:
                raise ZeroElement("negative power of zero")
            return ctx.zero()
        if e < 0:
            return inv0(self) ** (-e)
        result = ctx.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def __repr__(self):
        if self.ctx.n == 1:
            return f"Fe({self.coeffs[0]} mod {self.ctx.p})"
        return f"Fe({list(self.coeffs)} in GF({self.ctx.p}^{self.ctx.n}))"


# ---------------------------------------------------------------------------
# operations

def make_field(p: int, n: int = 1, modulus=None) -> FieldCtx:
    """Construct F_{p^n} with a verified (or deterministically chosen) modulus."""
    return FieldCtx(p, n, modulus)


def inv0(a: Fe) -> Fe:
    """a^(q-2): multiplicative inverse for a != 0, and 0 for a = 0."""
    if not a:
        return a.ctx.zero()
    return a ** (a.ctx.q - 2)


def order(a: Fe) -> int:
    """Multiplicative order of a nonzero element."""
    if not a:
        raise ZeroElement("order of zero is undefined")
    l = a.ctx.q - 1
    for f in factorize(l):
        while l % f == 0 and a ** (l // f) == a.ctx.one():
            l //= f
    return l


def primitive_element(ctx: FieldCtx) -> Fe:
    """Least generator of F_q^* in enumeration order (2, 3, ... for prime fields).

    a generates exactly when a^((q-1)/f) != 1 for every prime f | q-1;
    each candidate is charged only the powers it ran, up to its first equal
    to 1; the search stops before one whose whole test could pass WORK_CAP.
    """
    if ctx._primitive is not None:
        return ctx._primitive
    one = ctx.one()
    cofactors = [(ctx.q - 1) // f for f in factorize(ctx.q - 1)]
    test = sum(_power_work(e, ctx.n) for e in cofactors)
    work = 0
    for i in range(2, ctx.q):
        _check_work(work + test, f"the primitive element search in F_({ctx.p}^{ctx.n})")
        a = ctx.el_at(i)
        for e in cofactors:
            work += _power_work(e, ctx.n)
            if a ** e == one:
                break
        else:
            ctx._primitive = a
            return a
    # q = 2: the only unit is 1
    ctx._primitive = one
    return one


@lru_cache(maxsize=None)
def _digit_binom(md: int, kd: int) -> int:
    return math.comb(md, kd)


def lucas_binom(m: int, k: int, p: int) -> int:
    """binomial(m, k) mod p via base-p digit products (Lucas' congruence)."""
    if k < 0 or k > m:
        raise BadRange(f"need 0 <= k <= m, got m={m}, k={k}")
    if not is_prime(p):
        raise CompositeP(f"{p} is not prime")
    out = 1
    while m or k:
        md, kd = m % p, k % p
        if kd > md:
            return 0
        out = out * (_digit_binom(md, kd) % p) % p
        m //= p
        k //= p
    return out


# ---------------------------------------------------------------------------
# field spec strings: p=<int>[,n=<int>][,mod=<c0,c1,...,1>]

def parse_field_spec(spec: str) -> FieldCtx:
    if not isinstance(spec, str):
        raise BadRange(f"field spec {spec!r} is not a string")
    p = None
    n = 1
    mod = None
    tokens = spec.replace(" ", "").split(",")
    i = 0
    try:
        while i < len(tokens):
            tok = tokens[i]
            if tok.startswith("p="):
                p = int(tok[2:])
            elif tok.startswith("n="):
                n = int(tok[2:])
            elif tok.startswith("mod="):
                mod = [int(tok[4:])] + [int(t) for t in tokens[i + 1:]]
                break
            else:
                raise BadRange(f"unrecognized field-spec token {tok!r}")
            i += 1
    except ValueError as exc:
        raise BadRange(f"field spec {spec!r} has a non-integer value") from exc
    if p is None:
        raise BadRange(f"field spec {spec!r} is missing p=")
    if mod is not None and mod[-1] != 1:
        raise ReducibleModulus("field spec modulus must end with leading coefficient 1")
    return make_field(p, n, mod)


def format_field_spec(ctx: FieldCtx) -> str:
    if ctx.n == 1:
        return f"p={ctx.p}"
    return f"p={ctx.p},n={ctx.n},mod=" + ",".join(str(c) for c in ctx.modulus)
