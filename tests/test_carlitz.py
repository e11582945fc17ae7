import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import ffperm.fastfield as ff
from ffperm import carlitz as cz
from ffperm.errors import (BadChain, BadParam, BadRange, EvenCharacteristic,
                           FieldTooLarge, NotPermutation)
from ffperm.gf import inv0, make_field
from ffperm.polyring import (Poly, eval_table, is_permutation,
                             reduce_mod_xq_x, weight)


def chain_of(ctx, *vals):
    return cz.Chain(ctx, tuple(ctx.from_int(v) for v in vals))


def test_expand_frozen_examples():
    ctx = make_field(5)
    f = cz.expand_chain(chain_of(ctx, -1, 1, 4, 0))
    assert f == Poly.from_coeffs(ctx, [0, 1, 1, 2])
    g = cz.expand_chain(chain_of(ctx, -1, 0, 1, -1))
    assert g == Poly.from_coeffs(ctx, [0, 4, 3, 2])
    assert weight(g) == 3


def test_expand_routes_agree():
    random.seed(9)
    for p, n in [(5, 1), (7, 1), (3, 2), (2, 3)]:
        ctx = make_field(p, n)
        for _ in range(8):
            L = random.choice([1, 2, 3])
            a = [random.randrange(1, ctx.q), random.randrange(ctx.q)]
            a += [random.randrange(1, ctx.q) for _ in range(L - 1)]
            a.append(random.randrange(ctx.q))
            ch = cz.Chain(ctx, tuple(ctx.el_at(v) for v in a))
            assert cz.expand_chain(ch) == cz.expand_chain_by_powers(ch)


def test_chain_invariants_enforced():
    ctx = make_field(5)
    with pytest.raises(BadChain):
        chain_of(ctx, 0, 1)          # a0 = 0
    with pytest.raises(BadChain):
        chain_of(ctx, 1, 1, 0, 2)    # a2 = 0
    # a_{n+1} = 0 is allowed
    chain_of(ctx, 1, 1, 2, 0)
    # over F_2, x^(q-2) = x^0 is not inversion: only a0 x + a1 is a chain
    f2 = make_field(2)
    assert cz.expand_chain(chain_of(f2, 1, 1)) == Poly.from_coeffs(f2, [1, 1])
    with pytest.raises(BadChain):
        chain_of(f2, 1, 0, 0)
    with pytest.raises(BadChain):
        chain_of(f2, 1, 0, 1, 0)
    with pytest.raises(BadParam):
        cz.rank2_coeffs(f2.one(), f2.zero(), f2.one(), f2.zero())


def test_convergents_and_poles():
    ctx = make_field(5)
    ch = chain_of(ctx, -1, 1, 4, 0)
    mob, poles = cz.convergents(ch)
    assert set(poles) == {ctx.from_int(1), ctx.from_int(0)}
    assert cz.agreement_check(ch)


def test_agreement_holds_on_random_chains():
    random.seed(4)
    for p, n in [(7, 1), (3, 2), (11, 1)]:
        ctx = make_field(p, n)
        for _ in range(15):
            L = random.choice([1, 2, 3, 4])
            a = [random.randrange(1, ctx.q), random.randrange(ctx.q)]
            a += [random.randrange(1, ctx.q) for _ in range(L - 1)]
            a.append(random.randrange(ctx.q))
            ch = cz.Chain(ctx, tuple(ctx.el_at(v) for v in a))
            assert cz.agreement_check(ch)


def test_chain_is_always_permutation():
    random.seed(13)
    for p, n in [(5, 1), (3, 2), (7, 1)]:
        ctx = make_field(p, n)
        for _ in range(10):
            L = random.choice([1, 2, 3])
            a = [random.randrange(1, ctx.q), random.randrange(ctx.q)]
            a += [random.randrange(1, ctx.q) for _ in range(L - 1)]
            a.append(random.randrange(ctx.q))
            ch = cz.Chain(ctx, tuple(ctx.el_at(v) for v in a))
            assert is_permutation(cz.expand_chain(ch))


def test_rank2_closed_form_exhaustive_f7():
    ctx = make_field(7)
    for a0, a1, a2, a3 in itertools.product(range(1, 7), range(7),
                                            range(1, 7), range(7)):
        ch = chain_of(ctx, a0, a1, a2, a3)
        assert cz.rank2_coeffs(*ch.a) == cz.expand_chain(ch)


def test_expand_builds_no_interp_matrix():
    ctx = make_field(7, 2)
    cz.expand_chain(chain_of(ctx, 3, 1, 2, 5))
    assert ff.tables(ctx)._interp_matrix is None


@pytest.mark.parametrize("p,n", [(2, 10), (3, 7)])
def test_expand_where_the_matrix_is_refused(p, n):
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    with pytest.raises(FieldTooLarge):
        t.interp_matrix()
    rng = np.random.default_rng(ctx.q)
    a = rng.integers([1, 0, 1, 0], ctx.q).tolist()  # a0, a2 nonzero
    f = cz.expand_chain(cz.Chain(ctx, tuple(ctx.el_at(v) for v in a)))
    assert f == cz.rank2_coeffs(*(ctx.el_at(v) for v in a))
    assert (t.batch_eval(ff.coeff_row(f)) == ff.chain_value_tables(t, [[v] for v in a])).all()


def test_rank2_piecewise_eval_matches_chain():
    for p, n in [(5, 1), (3, 2), (11, 1)]:
        ctx = make_field(p, n)
        random.seed(ctx.q)
        for _ in range(10):
            a0 = ctx.el_at(random.randrange(1, ctx.q))
            a1 = ctx.el_at(random.randrange(ctx.q))
            a2 = ctx.el_at(random.randrange(1, ctx.q))
            a3 = ctx.el_at(random.randrange(ctx.q))
            f = cz.expand_chain(cz.Chain(ctx, (a0, a1, a2, a3)))
            for i in range(ctx.q):
                x = ctx.el_at(i)
                v = cz.rank2_piecewise_eval(a1, a2, a3, a0 * x)
                assert v == eval_table(f).values[i]


def test_rank1_weight_classes_exhaustive_f9():
    ctx = make_field(3, 2)
    for a0 in range(1, 9):
        for a1 in range(9):
            for a2 in range(9):
                poly, predicted = cz.rank1_weight(
                    ctx.el_at(a0), ctx.el_at(a1), ctx.el_at(a2))
                assert weight(poly) == predicted


def test_rank1_weight_even_char_rejected():
    ctx = make_field(2, 3)
    with pytest.raises(EvenCharacteristic):
        cz.rank1_weight(ctx.one(), ctx.zero(), ctx.zero())


def test_rank_detection_agrees_with_enumeration():
    random.seed(21)
    for p, n in [(5, 1), (7, 1), (3, 2)]:
        ctx = make_field(p, n)
        for _ in range(40):
            L = random.choice([1, 2, 3])
            a = [random.randrange(1, ctx.q), random.randrange(ctx.q)]
            a += [random.randrange(1, ctx.q) for _ in range(L - 1)]
            a.append(random.randrange(ctx.q))
            f = cz.expand_chain(cz.Chain(ctx, tuple(ctx.el_at(v) for v in a)))
            fast = cz.rank_upto2(f)
            slow = cz.rank_enumerate(f)
            assert fast.rank_class == slow.rank_class
            if fast.witness is not None:
                assert eval_table(cz.expand_chain(fast.witness)).values \
                    == eval_table(f).values


def test_rank_of_linear_and_inverse_maps():
    ctx = make_field(7)
    assert cz.rank_upto2(Poly.from_coeffs(ctx, [2, 3])).rank_class == 0
    inv_map = reduce_mod_xq_x(ctx, [(5, 1)])  # x^(q-2)
    assert cz.rank_upto2(inv_map).rank_class == 1


def test_mobius_through_fits_three_points():
    random.seed(3)
    for p, n in [(7, 1), (3, 2), (5, 2)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        x = np.array([random.sample(range(ctx.q), 3) for _ in range(30)], dtype=np.int32)
        y = np.array([random.sample(range(ctx.q), 3) for _ in range(30)], dtype=np.int32)
        cols = cz._mobius_through(t, x, y)
        for r in range(30):
            A, B, C, D = (ctx.el_at(int(c[r])) for c in cols)
            mob = cz.MobiusMap(ctx, (A, B), (C, D))
            assert [mob(ctx.el_at(int(i))) for i in x[r]] == [ctx.el_at(int(i)) for i in y[r]]


@pytest.mark.parametrize("p,n", [(7, 2), (53, 1), (73, 1)])
def test_rank_witnesses_above_the_enumeration_cap(p, n):
    """q = 49, 53, 73: rank_enumerate refuses these, so each witness is
    checked against f by scalar evaluation instead."""
    rng = random.Random(p)
    ctx = make_field(p, n)
    q = ctx.q
    for L in (0, 1, 2, 3):
        for _ in range(3):
            a = [rng.randrange(1, q), rng.randrange(q)]
            if L:
                a += [rng.randrange(1, q) for _ in range(L - 1)] + [rng.randrange(q)]
            f = cz.expand_chain(cz.Chain(ctx, tuple(ctx.el_at(v) for v in a)))
            rep = cz.rank_upto2(f)
            assert rep.rank_class <= L
            if rep.witness is None:  # length 3, more than 2
                assert rep.rank_class == cz.MORE_THAN_2
                continue
            values = tuple(cz._chain_value(rep.witness, ctx.el_at(i)) for i in range(q))
            assert values == eval_table(f).values


def test_every_f5_permutation_has_rank_at_most_one():
    """All 120 permutations of F_5 are Mobius maps off at most one point;
    on F_4 and F_5 the Mobius fit agrees with exhaustive enumeration."""
    from ffperm.polyring import ValueTable, interpolate
    for p, n in [(2, 2), (5, 1)]:
        ctx = make_field(p, n)
        els = [ctx.el_at(i) for i in range(ctx.q)]
        seen = set()
        for perm in itertools.permutations(range(ctx.q)):
            f = interpolate(ValueTable(ctx, tuple(els[v] for v in perm)))
            rank = cz.rank_upto2(f).rank_class
            assert rank == cz.rank_enumerate(f).rank_class
            seen.add(rank)
        if p == 5:
            assert seen == {0, 1}


def test_rank_requires_permutation():
    ctx = make_field(5)
    with pytest.raises(NotPermutation):
        cz.rank_upto2(Poly.from_coeffs(ctx, [0, 0, 1]))  # x^2
    with pytest.raises(NotPermutation):
        cz.rank_enumerate(Poly.from_coeffs(ctx, [0, 0, 1]))


def test_rank_cap():
    ctx = make_field(347)
    f = Poly.from_coeffs(ctx, [0, 1])
    with pytest.raises(FieldTooLarge):
        cz.rank_upto2(f)
    # the length-2 tables of the exhaustive oracle would take about 1 GiB
    g = cz.expand_chain(chain_of(make_field(7, 2), -1, 2, 1, 3))
    with pytest.raises(FieldTooLarge):
        cz.rank_enumerate(g)


def test_thm_and_cor_bounds():
    ctx11 = make_field(11)
    # 41/4 - sqrt(225/16) = 13/2, exact in floating point
    assert cz.thm_rank2_bound(ctx11) == 6.5
    assert cz.cor_rank2_bound(ctx11, 3) == 6
    ctx121 = make_field(11, 2)
    assert cz.cor_rank2_bound(ctx121, 3) == 121 - 11 - 1 - 3


def test_got_bounds():
    lo_rank, lo_weight = cz.got_bounds(6, 11, 2)
    assert lo_rank == Fraction(11, 8) - 1
    assert lo_weight == Fraction(11, 3) - 2
    with pytest.raises(BadRange):
        cz.got_bounds(0, 11, 2)
    # criterion 11's strict form: an integer weight is above q/3 - 2
    # exactly when it is above the floor of that bound
    for q in range(3, 200):
        floor = math.floor(cz._weight_floor(q, 2))
        for w in range(1, q):
            assert (w > floor) == (w > cz.got_bounds(w, q, 2)[1]) == (3 * w > q - 6)


def test_degree_rank_check_on_chains():
    ctx = make_field(11)
    f = cz.expand_chain(chain_of(ctx, -1, 2, 1, -8))
    assert cz.degree_rank_check(f, 2)
    # criterion 11 takes the same floor over an array of degrees
    assert cz._degree_rank_floor(11, np.array([9, 8, -1])).tolist() == [1, 2, 11]


def test_example_family():
    f1 = cz.example_fn(1)
    assert weight(f1) == 6
    assert is_permutation(f1)
    assert cz.rank_upto2(f1).rank_class == 2
    with pytest.raises(BadRange):
        cz.example_fn(0)
    with pytest.raises(BadRange):
        cz.example_fn(3)


def test_example_f1_coefficients():
    """Coefficients are 4^(i+1) (2 - i) - 6^i for i = 1..q-2, constant 0."""
    f1 = cz.example_fn(1)
    ctx = f1.ctx
    assert f1.coeffs[0] == ctx.zero()
    for i in range(1, 10):
        expect = ctx.from_int(pow(4, i + 1, 11) * (2 - i) - pow(6, i, 11))
        assert f1.coeffs[i] == expect


def test_sweep_rank1_f5():
    sw = cz.sweep_rank1(make_field(5))
    assert len(sw.mismatches) == 0
    assert sorted(set(sw.weights.tolist())) == [1, 2, 3, 4]


def test_sweep_rank2_f11_sharpness():
    sw = cz.sweep_rank2(make_field(11))
    assert bool(sw.exact_rank2.all())
    assert sw.min_weight == 6
    assert (sw.weights[sw.case_a] == 9).all()
    assert (sw.weights[sw.case_b] == 9).all()


def test_sweep_rank2_f5_has_no_exact_rank2():
    sw = cz.sweep_rank2(make_field(5))
    assert not sw.exact_rank2.any()
    assert sw.min_weight is None


RANK2_FIELDS = ["a1_idx", "a2_idx", "a3_idx", "weights", "degrees", "special",
                "case_a", "case_b", "gamma_idx", "exact_rank2"]


@pytest.mark.parametrize("p,n,rows_per_block", [(5, 1, 7), (11, 1, 7), (5, 2, 97)])
def test_sweep_rank2_streams_in_blocks(p, n, rows_per_block, monkeypatch):
    # several blocks, the last one short (q = 5 re-checks each rank), against one block
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = ctx.q
    whole = cz.sweep_rank2(ctx)
    m = len(whole.weights)
    assert m > rows_per_block and m % rows_per_block
    monkeypatch.setattr(ff, "ROW_BLOCK", rows_per_block * q * n)
    sw = cz.sweep_rank2(ctx)
    for name in RANK2_FIELDS:
        a, b = getattr(sw, name), getattr(whole, name)
        assert a.dtype == b.dtype and (a == b).all(), name
    cols = [np.full(m, t.neg[t.emb[1]], dtype=np.int32), sw.a1_idx, sw.a2_idx, sw.a3_idx]
    coeffs = t.batch_interp(ff.chain_value_tables(t, cols))
    assert (sw.special == (coeffs[:, 1:q - 2] == 0).all(axis=1)).all()
    assert (sw.weights == ff.weight_rows(coeffs)).all()
    assert (sw.degrees == ff.degree_rows(coeffs)).all()
    rows = np.random.default_rng(q).choice(m, size=min(m, 40), replace=False)
    picked = sw.coeff_rows[rows]
    assert (picked == coeffs[rows]).all()
    assert (picked == ff.rank2_coeff_rows(t, *(c[rows] for c in cols))).all()


@pytest.mark.parametrize("p,n,rows_per_block", [(3, 2, 7), (5, 2, 97)])
def test_sweep_rank1_streams_in_blocks(p, n, rows_per_block, monkeypatch):
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    whole = cz.sweep_rank1(ctx)
    assert len(whole.weights) % rows_per_block
    monkeypatch.setattr(ff, "ROW_BLOCK", rows_per_block * ctx.q * n)
    sw = cz.sweep_rank1(ctx)
    for name in ("weights", "predicted"):
        a, b = getattr(sw, name), getattr(whole, name)
        assert a.dtype == b.dtype and (a == b).all(), name
    tabs = ff.chain_value_tables(t, ff.chain_grid(ctx.q, 1))
    assert (sw.weights == ff.weight_rows(t.batch_interp(tabs))).all()


def test_sweep_rank2_holds_no_coefficient_table(monkeypatch):
    monkeypatch.setattr(ff, "ROW_BLOCK", 1 << 16)
    ctx = make_field(11, 2)
    q = ctx.q
    tracemalloc.start()
    try:
        sw = cz.sweep_rank2(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sw.weights) == q * (q - 1)
    assert peak < q * (q - 1) * q * 4 / 2


def test_sweep_rank2_peak_at_default_block():
    # the block workspace and one block's value-table temporaries set the peak,
    # about 15.1 MiB at ROW_BLOCK = 2^19; the bound is about 1.5x that
    ctx = make_field(251)
    tracemalloc.start()
    try:
        sw = cz.sweep_rank2(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(sw.weights) == 251 * 250
    assert peak < 23 * 2 ** 20


def test_mobius_map_basics():
    ctx = make_field(5)
    m = cz.MobiusMap(ctx, (ctx.from_int(1), ctx.from_int(1)),
                     (ctx.from_int(1), ctx.from_int(3)))
    assert m(ctx.from_int(1)) == ctx.from_int(2) * inv0(ctx.from_int(4))
    assert m(ctx.from_int(-3)) is cz.INFINITY
    assert m.at_infinity() == ctx.one()
    with pytest.raises(BadParam):
        cz.MobiusMap(ctx, (ctx.one(), ctx.one()), (ctx.one(), ctx.one()))
