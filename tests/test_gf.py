import itertools
import math
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffperm.errors import (BadRange, CompositeP, ReducibleModulus, ZeroElement)
from ffperm.gf import (Fe, _least_factor_degree, inv0, is_prime, lucas_binom, make_field,
                       order, parse_field_spec, format_field_spec, primitive_element)


def test_prime_field_basics():
    ctx = make_field(7)
    a, b = ctx.from_int(3), ctx.from_int(5)
    assert (a + b).coeffs[0] == 1
    assert (a * b).coeffs[0] == 1
    assert (-a).coeffs[0] == 4
    assert (a - b).coeffs[0] == 5


def test_default_modulus_f9_is_x2_plus_1():
    ctx = make_field(3, 2)
    assert ctx.modulus == (1, 0, 1)
    # frozen default moduli (low to high); they fix every element enumeration
    frozen = {
        (2, 8): (1, 1, 0, 1, 1, 0, 0, 0, 1),
        (2, 12): (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1),
        (3, 5): (1, 2, 0, 0, 0, 1),
        (3, 7): (2, 0, 1, 0, 0, 0, 0, 1),
        (5, 4): (2, 0, 0, 0, 1),
        (7, 3): (2, 0, 0, 1),
        (19, 2): (1, 0, 1),
    }
    for (p, n), modulus in frozen.items():
        assert make_field(p, n).modulus == modulus, (p, n)


def _least_small_factor_degree(f, p):
    """Brute force: the least degree of a monic g with 1 <= deg g <= deg f / 2
    dividing f, or 0 when there is none."""
    n = len(f) - 1
    for d in range(1, n // 2 + 1):
        for low in itertools.product(range(p), repeat=d):
            r = list(f)
            for i in range(n, d - 1, -1):  # long division by x^d + low
                c = r[i]
                if c:
                    r[i] = 0
                    for j, g in enumerate(low):
                        r[i - d + j] = (r[i - d + j] - c * g) % p
            if not any(r):
                return d
    return 0


def test_is_irreducible_matches_factor_search():
    # every monic polynomial of these degrees, reducible ones of every degree included
    fields = ([(2, n) for n in range(1, 9)] + [(3, n) for n in range(2, 6)]
              + [(5, n) for n in range(2, 5)] + [(7, n) for n in range(2, 4)])
    for p, n in fields:
        for low in itertools.product(range(p), repeat=n):
            f = low + (1,)
            assert _least_factor_degree(f, p) == _least_small_factor_degree(f, p), (p, f)


FIELD_BUDGET_S = 10  # wall clock, so a slow modulus search fails instead of hanging


def _over_budget(signum, frame):
    pytest.fail(f"make_field ran past its {FIELD_BUDGET_S} s budget")


def test_make_field_3_100_within_budget():
    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.alarm(FIELD_BUDGET_S)
    try:
        ctx = make_field(3, 100)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert ctx.q == 3 ** 100


def test_f9_primitive_element():
    ctx = make_field(3, 2)
    g = primitive_element(ctx)
    assert ctx.index_of(g) == 4  # 1 + xbar in the fixed enumeration
    assert order(g) == 8


def test_primitive_element_past_the_non_generating_candidates():
    # modulus x^2 + 1: the p - 2 candidates i*xbar (index 2 .. p-1) square
    # into F_p and cannot generate; each is charged only the power that
    # rejects it, so the search reaches the generator at index 4102
    old = signal.signal(signal.SIGALRM, _over_budget)
    signal.alarm(FIELD_BUDGET_S)
    try:
        ctx = make_field(4099, 2)
        g = primitive_element(ctx)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert ctx.modulus == (1, 0, 1)
    assert ctx.index_of(g) == 4102 and order(g) == ctx.q - 1


def test_primitive_element_is_least_of_full_order():
    # every prime power q <= 400, against the definition by order
    for q in range(2, 401):
        p = next(d for d in range(2, q + 1) if q % d == 0)
        n = round(math.log(q, p))
        if p ** n != q:
            continue
        ctx = make_field(p, n)
        least = next((ctx.el_at(i) for i in range(2, q) if order(ctx.el_at(i)) == q - 1),
                     ctx.one())
        assert primitive_element(ctx) == least, q


def test_prime_field_whatever_its_degree_1_modulus():
    # every monic x - c gives the one F_p, so the contexts are equal
    ctx = make_field(5, 1, [3, 1])
    assert ctx == make_field(5) and hash(ctx) == hash(make_field(5))
    assert parse_field_spec("p=5,mod=3,1") == make_field(5)
    assert format_field_spec(ctx) == "p=5"


def test_composite_p_rejected():
    with pytest.raises(CompositeP):
        make_field(6)


def test_reducible_modulus_rejected():
    # x^2 - 1 = (x-1)(x+1) over F_3
    with pytest.raises(ReducibleModulus):
        make_field(3, 2, modulus=(2, 0, 1))


def test_inv0_conventions():
    ctx = make_field(5)
    assert inv0(ctx.from_int(2)) == ctx.from_int(3)
    assert inv0(ctx.zero()) == ctx.zero()


def test_pow_zero_conventions():
    ctx = make_field(5)
    assert ctx.zero() ** 0 == ctx.one()
    assert ctx.from_int(3) ** 0 == ctx.one()
    with pytest.raises(ZeroElement):
        ctx.zero() ** -1


def test_negative_exponent_is_inverse_power():
    ctx = make_field(11)
    a = ctx.from_int(7)
    assert a ** -3 == inv0(a) ** 3


def test_enumeration_roundtrip():
    for p, n in [(5, 1), (3, 2), (2, 3), (5, 2)]:
        ctx = make_field(p, n)
        for i in range(ctx.q):
            assert ctx.index_of(ctx.el_at(i)) == i


def test_field_spec_roundtrip():
    for spec in ["p=7", "p=3,n=2", "p=3,n=2,mod=1,0,1"]:
        ctx = parse_field_spec(spec)
        assert parse_field_spec(format_field_spec(ctx)) == ctx


def test_lucas_binom_oracle_values():
    # 35 mod 3 = 2, 35 mod 5 = 0
    assert lucas_binom(7, 3, 3) == 2
    assert lucas_binom(7, 3, 5) == 0
    # binom(q-2, i) = (i+1)(-1)^i mod p
    for p in [3, 5, 7]:
        q = p
        for i in range(q - 1):
            expect = (i + 1) * (-1) ** i % p
            assert lucas_binom(q - 2, i, p) == expect


def test_lucas_binom_extension_identity():
    for p, n in [(3, 2), (5, 2)]:
        q = p ** n
        import math
        for i in range(q - 1):
            assert lucas_binom(q - 2, i, p) == math.comb(q - 2, i) % p


def test_lucas_binom_errors():
    with pytest.raises(BadRange):
        lucas_binom(3, -1, 5)
    with pytest.raises(CompositeP):
        lucas_binom(3, 1, 4)


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 97, 7919}
    for m in range(2, 100):
        assert is_prime(m) == (m in primes or all(m % d for d in range(2, m)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 24), st.integers(0, 24), st.integers(0, 24))
def test_field_axioms_f25(i, j, k):
    ctx = make_field(5, 2)
    a, b, c = ctx.el_at(i), ctx.el_at(j), ctx.el_at(k)
    assert a * (b + c) == a * b + a * c
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    if a:
        assert a * inv0(a) == ctx.one()


def test_order_divides_group_order():
    ctx = make_field(3, 3)
    for i in range(1, ctx.q):
        assert (ctx.q - 1) % order(ctx.el_at(i)) == 0
