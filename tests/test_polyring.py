import random
import re

import pytest

from ffperm.errors import BadRange, MixedFields
from ffperm.gf import make_field
from ffperm.polyring import (Poly, ValueTable, degree, eval_table, evaluate,
                             interpolate, is_permutation, poly_from_json,
                             poly_to_json, reduce_mod_xq_x, weight)


def test_eval_table_frozen_example():
    """x + x^2 + 2x^3 over F_5 maps (0,1,2,3,4) to (0,4,2,1,3)."""
    ctx = make_field(5)
    f = Poly.from_coeffs(ctx, [0, 1, 1, 2])
    values = [v.coeffs[0] for v in eval_table(f).values]
    assert values == [0, 4, 2, 1, 3]
    assert is_permutation(f)


def test_weight_and_degree():
    ctx = make_field(5)
    f = Poly.from_coeffs(ctx, [0, 1, 1, 2])
    assert weight(f) == 3
    assert degree(f) == 3
    assert degree(Poly.zero(ctx)) is None
    assert weight(Poly.zero(ctx)) == 0


def test_reduce_folds_high_exponents():
    ctx = make_field(5)
    # x^13 folds to x^((13-1) mod 4 + 1) = x
    f = reduce_mod_xq_x(ctx, [(13, 2)])
    assert f == Poly.from_coeffs(ctx, [0, 2])
    # exponent q-1 stays distinct from 0
    g = reduce_mod_xq_x(ctx, [(4, 1), (8, 1)])
    assert g.coeffs[4] == ctx.from_int(2)
    assert g.coeffs[0] == ctx.zero()


def test_interpolate_inverts_eval_table():
    random.seed(5)
    for p, n in [(5, 1), (3, 2), (7, 1), (2, 3)]:
        ctx = make_field(p, n)
        for _ in range(10):
            f = Poly(ctx, tuple(ctx.el_at(random.randrange(ctx.q))
                                for _ in range(ctx.q)))
            assert interpolate(eval_table(f)) == f


def test_interpolate_arbitrary_table():
    ctx = make_field(7)
    vals = tuple(ctx.from_int(v) for v in [3, 1, 4, 1, 5, 2, 6])
    f = interpolate(ValueTable(ctx, vals))
    assert eval_table(f).values == vals


def test_mixed_fields_rejected():
    f5 = Poly.from_coeffs(make_field(5), [1])
    f7 = Poly.from_coeffs(make_field(7), [1])
    with pytest.raises(MixedFields):
        f5 + f7
    with pytest.raises(MixedFields):
        evaluate(f5, make_field(7).one())


def test_json_roundtrip_prime_and_extension():
    for p, n in [(5, 1), (3, 2)]:
        ctx = make_field(p, n)
        f = Poly(ctx, tuple(ctx.el_at(i % ctx.q) for i in range(ctx.q)))
        assert poly_from_json(poly_to_json(f)) == f


def test_json_trims_trailing_zeros():
    ctx = make_field(5)
    f = Poly.from_coeffs(ctx, [0, 1])
    text = poly_to_json(f)
    assert '"coeffs": [0, 1]' in text


@pytest.mark.parametrize("coeffs,named", [
    ('[true]', "coeffs[0] = true"), ('[1, 1.5]', "coeffs[1] = 1.5"), ('"x"', '"x"'),
    ('[[0, false]]', "coeffs[0] = [0, false]"), ('[null]', "coeffs[0] = null"),
])
def test_json_rejects_non_integer_coefficients(coeffs, named):
    with pytest.raises(BadRange, match=re.escape(named)):
        poly_from_json(f'{{"field": "p=3,n=2", "coeffs": {coeffs}}}')


def test_evaluate_horner_matches_naive():
    ctx = make_field(3, 2)
    random.seed(2)
    f = Poly(ctx, tuple(ctx.el_at(random.randrange(9)) for _ in range(9)))
    for i in range(9):
        x = ctx.el_at(i)
        naive = ctx.zero()
        for k, c in enumerate(f.coeffs):
            naive = naive + c * x ** k
        assert evaluate(f, x) == naive
