"""Index-table arithmetic must agree with the scalar implementation."""

import gc
import itertools
import weakref

import numpy as np
import pytest

import ffperm.fastfield as ff
from ffperm.errors import FieldTooLarge
from ffperm.gf import inv0, make_field
from ffperm.polyring import Poly, eval_table, interpolate, is_permutation, ValueTable

FIELDS = [(2, 1), (5, 1), (3, 2), (5, 2), (11, 1), (2, 3)]


@pytest.mark.parametrize("p,n", FIELDS)
def test_tables_match_scalar_ops(p, n):
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = ctx.q
    for i in range(q):
        a = ctx.el_at(i)
        assert int(t.neg[i]) == ctx.index_of(-a)
        assert int(t.inv0[i]) == ctx.index_of(inv0(a))
        for j in range(q):
            b = ctx.el_at(j)
            assert int(t.add[i, j]) == ctx.index_of(a + b)
            assert int(t.mul[i, j]) == ctx.index_of(a * b)


def test_pow_conventions():
    t = ff.tables(make_field(5))
    base = np.array([0, 2, 3], dtype=np.int32)
    outer = t.pow_outer(base, np.array([0, 1, 3, 4]))
    assert (outer[:, 0] == t.emb[1]).all()  # 0^0 = 1 too
    assert outer[:, 2].tolist() == [0, 3, 2]  # 2^3=8=3, 3^3=27=2
    assert outer[0].tolist() == [t.emb[1], 0, 0, 0]
    # more rows than elements: the same powers, by row gather
    many = np.tile(base, 3)
    assert (t.pow_outer(many, np.array([0, 1, 3, 4])) == np.tile(outer, (3, 1))).all()


@pytest.mark.parametrize("p,n", FIELDS)
def test_batch_eval_matches_scalar(p, n):
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = ctx.q
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, size=(8, q)).astype(np.int32)
    tabs = t.batch_eval(rows)
    for r in range(len(rows)):
        f = Poly(ctx, tuple(ctx.el_at(int(i)) for i in rows[r]))
        expect = [ctx.index_of(v) for v in eval_table(f).values]
        assert tabs[r].tolist() == expect
    # interpolation and evaluation invert each other
    assert (t.batch_interp(tabs) == rows).all()
    vals = rng.integers(0, q, size=(8, q)).astype(np.int32)
    coeffs = t.batch_interp(vals)
    assert (t.batch_eval(coeffs) == vals).all()
    # and interpolation agrees with scalar Lagrange interpolation on arbitrary tables
    for r in range(len(vals)):
        f = interpolate(ValueTable(ctx, tuple(ctx.el_at(int(i)) for i in vals[r])))
        assert coeffs[r].tolist() == [ctx.index_of(c) for c in f.coeffs]


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2)])
def test_interp_matrix_layout(p, n):
    # entry [x*n + k, k'*q + i] is component k' of W[x, i] * e_k, where
    # c_i = sum_x W[x, i] f(x): W[x, 0] = [x = 0], W[x, i] = -x^(-i) (0 at x = 0), W[x, q-1] = -1
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q, zero, one = ctx.q, ctx.zero(), ctx.one()
    T = t.interp_matrix()
    assert T.shape == (q * n, q * n)
    for x in range(q):
        xe = ctx.el_at(x)
        for i in range(q):
            if i == 0:
                w = one if x == 0 else zero
            elif i == q - 1:
                w = -one
            else:
                w = zero if x == 0 else -(inv0(xe) ** i)
            for k in range(n):
                e_k = ctx.el_at(p ** (n - 1 - k))
                assert e_k.coeffs[k] == 1
                comps = (w * e_k).coeffs
                for k2 in range(n):
                    assert T[x * n + k, k2 * q + i] == comps[k2]


@pytest.mark.parametrize("p,n,dtype", [(251, 1, np.float32), (257, 1, np.float64),
                                       (3, 5, np.float32)])
def test_batch_interp_exact_at_float32_edge(p, n, dtype, monkeypatch):
    # q*n*(p-1)^2: 15,687,500 < 2^24 at p = 251, 16,842,752 >= 2^24 at p = 257
    from ffperm.carlitz import Chain, expand_chain_by_powers
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = t.q
    assert t.interp_matrix().dtype == dtype
    rng = np.random.default_rng(q)
    rows = rng.integers(0, q, size=(7, q)).astype(np.int32)
    rows[0] = q - 1  # every component p-1: the largest products
    rows[1, ::2] = q - 1
    assert (t.batch_eval(t.batch_interp(rows)) == rows).all()
    assert (t.batch_interp(t.batch_eval(rows)) == rows).all()
    # chain_coeff_rows in blocks of 3 rows, the last one short, against one block
    cols = [rng.integers(1, q, 7), rng.integers(0, q, 7), rng.integers(0, q, 7)]
    whole = ff.chain_coeff_rows(t, cols)
    monkeypatch.setattr(ff, "ROW_BLOCK", 3 * q * n)
    assert (ff.chain_coeff_rows(t, cols) == whole).all()
    # each block is a view of one workspace, overwritten by the next: copied out, they agree
    blocks = [(s, rows.copy()) for s, rows in ff.chain_coeff_blocks(t, cols)]
    assert [s for s, _ in blocks] == [0, 3, 6]
    assert (np.vstack([rows for _, rows in blocks]) == whole).all()
    for r in (0, 6):  # the first block and the short one, against the scalar oracle
        ch = Chain(ctx, tuple(ctx.el_at(int(a[r])) for a in cols))
        assert whole[r].tolist() == [ctx.index_of(c) for c in expand_chain_by_powers(ch).coeffs]


def test_default_block_shares_prefixes_on_every_sweep_field():
    # pins ROW_BLOCK: every odd field the rank-2 sweep admits gets blocks of more
    # than q rows, each holding a whole run of chain_grid's innermost prefix
    primes = [p for p in range(3, 410, 2) if all(p % d for d in range(3, int(p ** 0.5) + 1, 2))]
    for p in primes:
        q, n = p, 1
        while q * (q - 1) * q * 4 <= ff.BYTES_CAP:
            assert ff.ROW_BLOCK // (q * n) > q, (p, n)
            q, n = q * p, n + 1


@pytest.mark.parametrize("p,n", [(7, 1), (3, 2), (257, 1)])
def test_batch_interp_checks_value_indices(p, n):
    t = ff.tables(make_field(p, n))
    q = t.q
    rows = np.random.default_rng(q).integers(0, q, size=(3, q)).astype(np.int32)
    for bad in (q, -1):
        wrong = rows.copy()
        wrong[2, q // 2] = bad
        with pytest.raises(IndexError):
            t.batch_interp(wrong)
    assert t.batch_interp(rows[:0]).shape == (0, q)


def test_batch_interp_returns_fresh_arrays():
    t = ff.tables(make_field(5, 2))
    rows = np.random.default_rng(1).integers(0, t.q, size=(4, t.q)).astype(np.int32)
    a, b = t.batch_interp(rows), t.batch_interp(rows[::-1].copy())
    assert not np.shares_memory(a, b)
    assert (a == b[::-1]).all() and (t.batch_eval(a) == rows).all()


@pytest.mark.parametrize("p,n", FIELDS)
def test_permutation_test_matches_scalar(p, n):
    ctx = make_field(p, n)
    q = ctx.q
    rng = np.random.default_rng(q + 1)
    rows = [rng.permutation(q) for _ in range(4)] + [rng.integers(0, q, q) for _ in range(4)]
    for row in rows:
        f = interpolate(ValueTable(ctx, tuple(ctx.el_at(int(i)) for i in row)))
        vals = ff.value_table(f)
        assert vals.tolist() == [ctx.index_of(v) for v in eval_table(f).values]
        assert ff.permutes(vals) == is_permutation(f)


def test_chain_value_tables_match_scalar():
    from ffperm.carlitz import Chain, expand_chain_by_powers
    ctx = make_field(7)
    t = ff.tables(ctx)
    q = ctx.q
    a = [np.array([3], np.int32), np.array([1], np.int32),
         np.array([4], np.int32), np.array([2], np.int32)]
    tabs = ff.chain_value_tables(t, a)
    ch = Chain(ctx, tuple(ctx.el_at(int(v[0])) for v in a))
    expect = [ctx.index_of(v) for v in eval_table(expand_chain_by_powers(ch)).values]
    assert tabs[0].tolist() == expect
    # the grid of every length-n chain, in itertools.product order
    units, full = range(1, q), range(q)
    for n in (1, 2, 3):
        grid = list(zip(*(col.tolist() for col in ff.chain_grid(q, n))))
        assert len(grid) == (q - 1) ** n * q ** 2
        assert grid == list(itertools.product(units, full, *[units] * (n - 1), full))


@pytest.mark.parametrize("p,n", [(3, 2), (5, 2)])
def test_chain_value_tables_on_many_rows(p, n, monkeypatch):
    from ffperm.carlitz import Chain, _chain_value
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = ctx.q
    monkeypatch.setattr(ff, "ROW_BLOCK", 7 * q)  # blocks of 7 rows, the last one short
    rng = np.random.default_rng(q)
    for length in (0, 1, 2, 3):  # length 0: (a0, a1) alone, stage 1 is the last
        for m in (1, q - 1, 40):  # one row, fewer rows than q, more
            units = [rng.integers(1, q, m) for _ in range(max(length, 1))]  # a0, a2, ..., a_n
            cols = units[:1] + [rng.integers(0, q, m)] + units[1:]
            cols += [rng.integers(0, q, m)] if length else []
            tabs = ff.chain_value_tables(t, cols)
            assert tabs.shape == (m, q)
            for r in range(m):
                ch = Chain(ctx, tuple(ctx.el_at(int(a[r])) for a in cols))
                # every chain of length >= 1 has a pole: a0 x + a1 vanishes at x = -a1/a0
                assert tabs[r].tolist() == [ctx.index_of(_chain_value(ch, ctx.el_at(x)))
                                            for x in range(q)]


@pytest.mark.parametrize("p,n", [(5, 1), (2, 2), (3, 2), (7, 1), (2, 3)])
def test_chain_value_tables_share_prefixes(p, n, monkeypatch):
    """Prefix runs cut by block edges, in grid order and shuffled, against the scalar chain."""
    from ffperm.carlitz import Chain, _chain_value
    ctx = make_field(p, n)
    t = ff.tables(ctx)
    q = ctx.q
    rng = np.random.default_rng(q)
    for length in (0, 1, 2, 3):
        # length 0: the (a0, a1) columns of the length-1 grid, each pair repeated q times
        grid = ff.chain_grid(q, max(length, 1))[:length + 2]
        if length == 3 and q > 5:
            keep = np.sort(rng.choice(len(grid[0]), 3000, replace=False))
            grid = [g[keep] for g in grid]  # still lexicographic, with runs of every length
        perm = rng.permutation(len(grid[0]))
        monkeypatch.setattr(ff, "ROW_BLOCK", 13 * q)  # 13 rows a block: runs cut at edges
        lex = ff.chain_value_tables(t, grid)
        shuffled = ff.chain_value_tables(t, [g[perm] for g in grid])
        few = ff.chain_value_tables(t, [g[perm[:q]] for g in grid])  # q rows, mostly unshared
        monkeypatch.setattr(ff, "ROW_BLOCK", q)  # one row a block: every row its own head
        assert (ff.chain_value_tables(t, grid) == lex).all()
        assert (shuffled == lex[perm]).all()
        assert (few == lex[perm[:q]]).all()
        for r in rng.choice(len(grid[0]), 40, replace=False):
            assert (ff.chain_value_tables(t, [g[r:r + 1] for g in grid]) == lex[r]).all()
            ch = Chain(ctx, tuple(ctx.el_at(int(a[r])) for a in grid))
            assert lex[r].tolist() == [ctx.index_of(_chain_value(ch, ctx.el_at(x)))
                                       for x in range(q)]


def test_rank2_coeff_rows_match_scalar():
    from ffperm.carlitz import Chain, expand_chain_by_powers
    for p, n in [(5, 1), (3, 2), (7, 1), (2, 3)]:
        ctx = make_field(p, n)
        t = ff.tables(ctx)
        q = ctx.q
        rng = np.random.default_rng(q)

        def units(m):
            return rng.integers(1, q, m).astype(np.int32)

        def full(m):
            return rng.integers(0, q, m).astype(np.int32)

        a2 = units(3)
        cols = [np.concatenate(c) for c in zip(
            (units(20), full(20), units(20), full(20)),            # random tuples
            (units(12), np.full(12, full(1)[0], np.int32),         # one (a1, a2), many a0, a3
             np.full(12, units(1)[0], np.int32), full(12)),
            (units(6), np.zeros(6, np.int32), units(6), full(6)),  # case (a): a1 = 0
            (units(3), t.neg[t.inv0[a2]], a2, full(3)),            # case (b): a1 + a2^-1 = 0
        )]
        rows = ff.rank2_coeff_rows(t, *cols)
        assert len(rows) > q
        few = ff.rank2_coeff_rows(t, *(c[-4:] for c in cols))  # fewer rows than q
        assert (few == rows[-4:]).all()
        for r in range(len(rows)):
            ch = Chain(ctx, tuple(ctx.el_at(int(a[r])) for a in cols))
            expect = expand_chain_by_powers(ch).coeffs
            assert rows[r].tolist() == [ctx.index_of(c) for c in expect]


def test_weight_and_degree_rows():
    rows = np.array([[0, 0, 0], [1, 0, 0], [0, 2, 3]], dtype=np.int32)
    assert ff.weight_rows(rows).tolist() == [0, 1, 2]
    assert ff.degree_rows(rows).tolist() == [-1, 0, 2]


def test_table_cap_enforced():
    with pytest.raises(FieldTooLarge):
        ff.FieldTables(make_field(4099))


def test_tables_freed_with_their_context():
    """No reference cycle: dropping a context frees its tables without the cyclic GC."""
    ctx = make_field(7, 2)
    t = ff.tables(ctx)
    t.interp_matrix(), t.add_inv
    assert t.ctx is ctx and ff.tables(ctx) is t
    gone = weakref.ref(t)
    gc.disable()
    try:
        del ctx, t
        assert gone() is None
    finally:
        gc.enable()
    # tables kept past their context answer with an equal context that shares them
    t = ff.tables(make_field(3, 2))
    assert t.ctx == make_field(3, 2) and ff.tables(t.ctx) is t


def test_table_byte_cap_enforced(monkeypatch):
    ctx = make_field(11)
    t = ff.FieldTables(ctx)
    monkeypatch.setattr(ff, "BYTES_CAP", 4 * 11 ** 2 - 1)  # one int32 q x q table is over
    with pytest.raises(FieldTooLarge):
        ff.FieldTables(ctx)  # the add and mul tables
    with pytest.raises(FieldTooLarge):
        t.add_inv  # the composed add/inv0 table, built on first use
    monkeypatch.setattr(ff, "BYTES_CAP", 4 * 11 ** 2)
    assert (t.add_inv.reshape(11, 11) == t.add[:, t.inv0]).all()


def test_matrix_byte_cap_enforced():
    with pytest.raises(FieldTooLarge):
        ff.tables(make_field(2, 10)).interp_matrix()  # 10240^2 float32: 400 MiB


def test_sweep_byte_cap_enforced():
    from ffperm.carlitz import sweep_rank1
    with pytest.raises(FieldTooLarge):
        sweep_rank1(make_field(17, 2))  # 288 * 289^2 rows of 289 int32: 26 GiB
    with pytest.raises(FieldTooLarge):
        ff.chain_grid(121, 2)  # 4 int32 columns of 120^2 * 121^2 rows: 3.1 GiB
