import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ffperm.fastfield as ff
from ffperm import carlitz as cz
from ffperm import lincomp as lc
from ffperm.errors import EmptySequence, FieldTooLarge
from ffperm.gf import make_field
from ffperm.polyring import Poly, reduce_mod_xq_x, weight
from test_fastfield import FIELDS


def fes(ctx, values):
    return [ctx.from_int(v) for v in values]


def test_bm_trivial_sequences():
    ctx = make_field(5)
    assert lc.berlekamp_massey(fes(ctx, [0] * 8)) == 0
    assert lc.berlekamp_massey(fes(ctx, [2] * 8)) == 1


def test_bm_geometric_sequence():
    ctx = make_field(5)
    s = fes(ctx, [pow(2, n, 5) for n in range(8)])
    assert lc.berlekamp_massey(s) == 1


def test_bm_fibonacci_mod5():
    ctx = make_field(5)
    fib = [1, 1]
    for _ in range(18):
        fib.append((fib[-1] + fib[-2]) % 5)
    assert lc.berlekamp_massey(fes(ctx, fib)) == 2


def test_bm_empty_rejected():
    with pytest.raises(EmptySequence):
        lc.berlekamp_massey([])


def test_bm_scaling_invariance():
    ctx = make_field(7)
    random.seed(1)
    s = fes(ctx, [random.randrange(7) for _ in range(12)])
    base = lc.berlekamp_massey(s)
    for scale in range(1, 7):
        scaled = [ctx.from_int(scale) * v for v in s]
        assert lc.berlekamp_massey(scaled) == base


def _bm_rows_cases(t, rng):
    """Rows of one length: random rows, and rows whose discrepancy stays
    zero for long runs (all-zero prefixes, constant rows, geometric rows)."""
    q = t.q
    N = 2 * (q - 1) + 3
    rows = [[rng.randrange(q) for _ in range(N)] for _ in range(40)]
    for z in (N, N - 1, N // 2, 1):
        rows.append([0] * z + [rng.randrange(q) for _ in range(N - z)])
    rows += [[c] * N for c in range(q)]
    for a in range(1, q):
        c = rng.randrange(1, q)
        geo = []
        for _ in range(N):
            geo.append(c)
            c = int(t.mul[c, a])
        rows.append(geo)
    return rows


def _lfsr_row(t, rng, N):
    """N terms of a random recurrence of order <= 6: long, but cheap for the scalar oracle."""
    taps = [rng.randrange(t.q) for _ in range(rng.randrange(1, 7))]
    row = [rng.randrange(t.q) for _ in taps]
    while len(row) < N:
        acc = 0
        for c, v in zip(taps, reversed(row[-len(taps):])):
            acc = int(t.add[acc, t.mul[c, v]])
        row.append(acc)
    return row[:N]


BM_PATHS = [lc.berlekamp_massey_rows, lc._bm_rows_walk, lc._bm_rows_lockstep]


@pytest.mark.parametrize("p,n", FIELDS)
def test_bm_rows_against_scalar(p, n):
    """Both paths and their selector, at R * N on both sides of BM_WALK_MAX."""
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    rng = random.Random(p * 100 + n)
    rows = np.array(_bm_rows_cases(t, rng), dtype=np.int32)
    K = lc.BM_WALK_MAX
    at = np.array([_lfsr_row(t, rng, K)], dtype=np.int32)
    above = np.array([_lfsr_row(t, rng, K + 1)], dtype=np.int32)
    for S in (rows, rows[:, :1], at, above):
        want = [lc.berlekamp_massey([ctx.el_at(int(i)) for i in row]) for row in S]
        for bm in BM_PATHS:
            got = bm(t, S)
            assert got.dtype == np.int64 and got.tolist() == want
    for bm in BM_PATHS:
        got = bm(t, np.zeros((0, 5), dtype=np.int32))
        assert got.dtype == np.int64 and got.shape == (0,)
    with pytest.raises(EmptySequence):
        lc.berlekamp_massey_rows(t, np.zeros((3, 0), dtype=np.int32))


def test_bm_rows_path_choice(monkeypatch):
    """R * N <= BM_WALK_MAX walks the rows; anything larger steps in lockstep."""
    t = ff.tables(make_field(5))
    chosen = []
    for name in ("_bm_rows_walk", "_bm_rows_lockstep"):
        monkeypatch.setattr(lc, name, lambda t, S, name=name: chosen.append((name, S.shape)))
    K = lc.BM_WALK_MAX
    for shape in [(1, K), (1, K + 1), (K, 1), (K + 1, 1), (0, 3)]:
        lc.berlekamp_massey_rows(t, np.ones(shape, dtype=np.int32))
    assert chosen == [("_bm_rows_walk", (1, K)), ("_bm_rows_lockstep", (1, K + 1)),
                      ("_bm_rows_walk", (K, 1)), ("_bm_rows_lockstep", (K + 1, 1)),
                      ("_bm_rows_walk", (0, 3))]


def test_blahut_frozen_examples():
    ctx = make_field(5)
    assert lc.blahut_check(Poly.from_coeffs(ctx, [0, 1])) == (1, 1, True)
    assert lc.blahut_check(Poly.from_coeffs(ctx, [0, 1, 1, 2])) == (3, 3, True)
    assert lc.blahut_check(cz.example_fn(1)) == (6, 6, True)


def test_fold_reconciles_top_coefficient():
    """1 + 4x^4 vanishes on F_5*; only the folded weight sees that."""
    ctx = make_field(5)
    g = Poly.from_coeffs(ctx, [1, 0, 0, 0, 4])
    assert lc.blahut_check(g) == (0, 0, True)
    assert weight(g) == 2  # the raw weight differs from the linear complexity


def test_folded_weight_values():
    ctx = make_field(5)
    assert lc.folded_weight(reduce_mod_xq_x(ctx, [(4, 1)])) == 1
    assert lc.folded_weight(Poly.from_coeffs(ctx, [1, 0, 0, 0, 4])) == 0
    assert lc.folded_weight(Poly.from_coeffs(ctx, [0, 1, 1, 2])) == 3


def test_blahut_random_polynomials():
    # one blahut row of 7^2 is walked, one of 331 steps in lockstep
    assert 2 * (49 - 1) <= lc.BM_WALK_MAX < 2 * (331 - 1)
    random.seed(6)
    for p, n, count in [(5, 1, 40), (3, 2, 40), (11, 1, 40), (7, 2, 40), (331, 1, 3)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        fs = [Poly(ctx, tuple(ctx.el_at(random.randrange(ctx.q)) for _ in range(ctx.q)))
              for _ in range(count)]
        rows = np.vstack([ff.coeff_row(f) for f in fs])
        tabs = t.batch_eval(rows)
        lcs, folded = lc.blahut_rows(t, rows, tabs)
        raw = ff.weight_rows(rows)
        for f, lcv, fw, w in zip(fs, lcs, folded, raw):
            assert lcv == lc.berlekamp_massey(lc.sequence_from_poly(f) * 2)
            assert fw == lc.folded_weight(f) == lcv
            assert w == weight(f)
            assert lc.blahut_check(f) == (lcv, fw, True)


def test_blahut_cap():
    ok = Poly.from_coeffs(make_field(2, 9), [0, 1])
    assert lc.blahut_check(ok) == (1, 1, True)
    ctx = make_field(521)
    f = Poly.from_coeffs(ctx, [0, 1])
    with pytest.raises(FieldTooLarge):
        lc.blahut_check(f)
    assert ctx._tables is None  # refused before any O(q^2) work


def test_lc_at_most_period():
    random.seed(8)
    ctx = make_field(7)
    for _ in range(20):
        period = random.randrange(1, 9)
        s = fes(ctx, [random.randrange(7) for _ in range(period)])
        assert lc.berlekamp_massey(s * 2) <= period


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 4), min_size=1, max_size=10))
def test_bm_recurrence_is_valid(vals):
    """The reported length L admits a recurrence reproducing the tail."""
    ctx = make_field(5)
    s = fes(ctx, vals)
    L = lc.berlekamp_massey(s)
    assert 0 <= L <= len(s)
