"""Vectorized field arithmetic on element indices, for sweeps and single queries.

Elements of F_q are identified with their position in the fixed
enumeration (see gf); index 0 is the zero element.  Every table is one
whole-array formula over one log/exp pair: exp holds the powers of g, in
blocks doubled by the n x n matrix of multiplication by g over F_p, lg is
their log with 2(q-1) at 0 and exp4 is exp twice, then zeros, so the q x q
multiplication table is exp4[lg[a] + lg[b]]; the q x q addition table is
built digit by digit from the p x p table of sums mod p.  Every power x^i
comes from one cached power table, i lg[x] mod (q-1) with sentinels for
zero: pow_outer gathers from it, and batch_eval sums every term c_i x^i
at once as prime-field components packed into int32 or int64 words.
batch_interp builds no matrix: by Blahut's theorem the coefficients are
the DFT of the sequence f(g^j), which batch_eval computes.
Chain value tables are built one block of rows at a time by one stage
loop of 2-D table gathers: each stage but the last is computed once per
run of equal parameter prefixes, each stage after the first by one gather
from the composed table add[a, inv0[v]].  chain_coeff_blocks, the sweeps'
block loop, interpolates them by one float GEMM with the explicit
(q*n)^2 matrix over F_p, exact because every partial sum is an integer
the float type holds (float32 when q*n*(p-1)^2 < 2^24, else float64),
into one workspace per call, so a sweep holds no (rows x q) table.
ROW_BLOCK bounds the entries of every block; CHANGES.md records how its
value was chosen.  The rank-2 closed form computes its (a1, a2) factor
once per distinct pair.  All batch routines here are cross-checked against
the scalar gf/polyring/lincomp implementations in the test suite; they are
accelerators, not a second source of truth.
"""

from __future__ import annotations

import functools
import weakref

import numpy as np

from .errors import FieldTooLarge
from .gf import FieldCtx, _pmulmod, primitive_element

TABLE_CAP = 4096  # largest q for which index tables are built
BYTES_CAP = 1 << 28  # largest (q*n)^2 matrix, q x q table or (streamed) sweep table, in bytes
ROW_BLOCK = 1 << 19  # entries (values or prime-field components) per block of rows


def check_bytes(nbytes: int, what: str) -> None:
    """Raise FieldTooLarge before an allocation of more than BYTES_CAP."""
    if nbytes > BYTES_CAP:
        raise FieldTooLarge(f"{what} needs {nbytes / 2**20:.0f} MiB, "
                            f"over the {BYTES_CAP >> 20} MiB cap")


class FieldTables:
    """Index-based operation tables for one field context."""

    def __init__(self, ctx: FieldCtx):
        if ctx.q > TABLE_CAP:
            raise FieldTooLarge(f"q = {ctx.q} exceeds table cap {TABLE_CAP}")
        self._ctx, self._modulus = weakref.ref(ctx), ctx.modulus
        q, p, n = ctx.q, ctx.p, ctx.n
        self.q, self.p, self.n = q, p, n
        self.place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)

        # coefficient vectors by index
        elems = np.empty((q, n), dtype=np.int64)
        rem = np.arange(q, dtype=np.int64)
        for k in range(n):
            elems[:, k], rem = np.divmod(rem, self.place[k])
        self.elems = elems

        # powers of the primitive element g by doubling, without Fe products: times g
        # is v -> v @ M on coefficient vectors, M[j] = x^j g ([g] itself when n = 1)
        g = list(primitive_element(ctx).coeffs)
        M = np.zeros((n, n), dtype=np.int64)
        for j in range(n):
            red = _pmulmod([0] * j + [1], g, ctx.modulus, p)
            M[j, :len(red)] = red
        vecs = np.zeros((q - 1, n), dtype=np.int64)
        vecs[0, 0] = 1
        m = 1
        while m < q - 1:  # block [m, 2m) is block [0, m) times g^m; M is now M_g^m
            k = min(m, q - 1 - m)
            vecs[m:m + k] = vecs[:k] @ M % p
            M = M @ M % p
            m += k
        self.exp = (vecs @ self.place).astype(np.int32)
        # the one log: lg[exp[i]] = i, 2(q-1) at 0; exp4 is exp twice, then zeros up
        # to index 4(q-1), so exp4[lg[a] + lg[b]] is a*b with no mask or mod
        zero = 2 * (q - 1)
        self.lg = np.full(q, zero, dtype=np.int32)
        self.lg[self.exp] = np.arange(q - 1)
        self.exp4 = np.concatenate((self.exp, self.exp, np.zeros(zero + 1, dtype=np.int32)))

        # operation tables, one q x q int32 temporary at a time
        check_bytes(4 * q * q, f"a q x q table at q = {q}")
        # a1[i, j] = (i + j) mod p, row i the window [i, i + p) of 0..p-1, 0..p-2; then
        # one leading digit at a time: with m = len(add), the sum of the elements
        # first * m + lower and first' * m + lower' is a1[first, first'] * m + add[lower, lower']
        a1 = np.lib.stride_tricks.sliding_window_view(np.arange(2 * p - 1, dtype=np.int32) % p,
                                                      p).copy()
        add = a1
        for _ in range(n - 1):
            m = len(add)
            add = (a1[:, None, :, None] * m + add[None, :, None, :]).reshape(m * p, m * p)
        self.add = add
        self.mul = self.exp4[self.lg[:, None] + self.lg[None, :]]
        self.neg = (((p - elems) % p) @ self.place).astype(np.int32)
        self.inv0 = np.zeros(q, dtype=np.int32)
        self.inv0[1:] = self.exp4[q - 1 - self.lg[1:]]
        # embedded integers: index of the coefficient vector (i, 0, ..., 0)
        self.emb = (np.arange(p, dtype=np.int64) * self.place[0]).astype(np.int32)

        self._interp_matrix = None

    @property
    def ctx(self) -> FieldCtx:
        """The context the tables were built for, or an equal one sharing them once
        it is gone; held weakly, since a context holds its tables and the cycle would
        keep both alive until the cyclic garbage collector ran."""
        ctx = self._ctx()
        if ctx is None:
            ctx = FieldCtx(self.p, self.n, self._modulus)
            ctx._tables, self._ctx = self, weakref.ref(ctx)
        return ctx

    @functools.cached_property
    def add_inv(self) -> np.ndarray:
        """The flat q*q table add[a, inv0[v]] at a*q + v: one chain stage per gather,
        built on the first chain_value_tables call with a stage after (a0, a1)."""
        check_bytes(4 * self.q ** 2, f"the composed add/inv0 table at q = {self.q}")
        return np.take(self.add, self.inv0, axis=1).ravel()

    # -- powers with the 0**0 = 1 convention -------------------------------
    @functools.cached_property
    def _powers(self):
        """The one power table, built on first use: (pow_log, words, b, per).

        x^i is exp4[pow_log[x, i]] and c x^i is exp4[lg[c] + pow_log[x, i]], with
        no mask or mod: pow_log[x, i] is i lg[x] mod (q-1) with 0 at (0, 0)
        (0^0 = 1) and 2(q-1) elsewhere on row 0, int16 as 2(q-1) < 2^15 under
        TABLE_CAP.  words packs the components of exp4 for batch_eval: component
        k in word k // per at bit b (k % per), b bits each to hold a sum of q of
        them, per = 31 // b in int32 words when all n fit in 31 bits, else 63 // b
        in int64 words.
        """
        q, p, n = self.q, self.p, self.n
        check_bytes(4 * q * q, f"the q x q power table at q = {q}")
        pow_log = np.arange(q, dtype=np.int32) * self.lg[:, None]
        pow_log %= q - 1
        pow_log[0, 1:] = 2 * (q - 1)
        b = (q * (p - 1)).bit_length()
        dtype, per = (np.int32, 31 // b) if n * b <= 31 else (np.int64, 63 // b)
        packed = self.elems[self.exp4] << b * (np.arange(n) % per)
        words = [packed[:, k:k + per].sum(axis=1).astype(dtype) for k in range(0, n, per)]
        return pow_log.astype(np.int16), words, b, per

    def pow_outer(self, base: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """(len(base), len(exps)) array of base[r]^exps[c], 0 <= exps < q: one
        gather from the power table, of whole rows when there are more bases
        than field elements and of the (base, exponent) entries otherwise."""
        pow_log, exp4 = self._powers[0], self.exp4
        base = np.asarray(base)
        exps = np.asarray(exps)
        if exps.size and (exps.min() < 0 or exps.max() >= self.q):
            raise ValueError(f"exponent outside [0, {self.q})")
        if len(base) > self.q:
            return np.take(exp4[pow_log[:, exps]], base, axis=0)
        return exp4[pow_log[base[:, None], exps]]

    # -- evaluation and interpolation -------------------------------------
    def interp_matrix(self) -> np.ndarray:
        """Interpolation as an F_p-linear map for chain_coeff_blocks: a
        (q*n, q*n) matrix T with coefficient components = value components @ T.

        Values are flattened point-major and coefficients component-major:
        component k of the value at the x-th enumerated point sits at row
        x*n + k (so a (q, n) component table, gathered by value index,
        feeds it as it is), and component k' of the coefficient of x^i at
        column k'*q + i.
        For reduced f = sum_i c_i x^i the coefficients are
            c_0 = f(0),
            c_k = -sum_{x != 0} f(x) x^(-k)    (1 <= k <= q-2),
            c_{q-1} = -sum_x f(x),
        from the power sums sum_{x in F_q^*} x^m = -[(q-1) | m]: for
        1 <= k <= q-2 only i = k has (q-1) | (i - k), and
        sum_x f(x) = c_0 - c_0 - c_{q-1} since i = 0 and i = q-1 qualify.

        Entries and value components are integers in [0, p-1], so every
        partial sum of a product is an integer below q*n*(p-1)^2.  Under
        2^24 the matrix is float32, which holds all such integers and so
        is exact in any summation order (FMA included); otherwise float64.
        """
        if self._interp_matrix is None:
            q, n, p = self.q, self.n, self.p
            dtype = np.float32 if q * n * (p - 1) ** 2 < 1 << 24 else np.float64
            check_bytes((q * n) ** 2 * np.dtype(dtype).itemsize,
                        f"a (q*n)^2 matrix at q = {q}")
            WT = np.zeros((q, q), dtype=np.int32)  # c_i = sum_x WT[x, i] f(x)
            WT[0, 0] = self.emb[1]
            # column k: -x^(q-1-k) = -x^(-k) for x != 0, and 0 at x = 0
            WT[:, 1:q - 1] = self.neg[self.pow_outer(np.arange(q), np.arange(q - 2, 0, -1))]
            WT[:, q - 1] = self.neg[self.emb[1]]
            ef = self.elems.T.astype(dtype)  # ef[k] = component k of every element
            # component k' of W[x, i] * e_k sits at row x*n + k, column k'*q + i
            T = np.empty((q, n, n, q), dtype=dtype)
            for k in range(n):
                times_ek = self.mul[:, int(self.place[k])]
                for k2 in range(n):
                    T[:, k, k2] = ef[k2][times_ek][WT]
            self._interp_matrix = T.reshape(q * n, q * n)
        return self._interp_matrix

    def batch_eval(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Value tables of reduced coefficient rows (indices in, indices out).

        Every point against every exponent in whole-array passes of at most
        ROW_BLOCK terms: term (x, i) of sum_i c_i x^i is looked up in each
        packed word of the power table at lg[c_i] + pow_log[x, i], one gather
        and one sum per word, and each summed component is reduced mod p.
        """
        coeff_rows = np.asarray(coeff_rows, dtype=np.int32)
        q, p, n = self.q, self.p, self.n
        lg, (pow_log, words, b, per) = self.lg, self._powers
        out = np.empty(coeff_rows.shape, dtype=np.int32)
        pts = min(q, max(1, ROW_BLOCK // q))  # points per pass
        step = max(1, ROW_BLOCK // (pts * q))  # rows per pass
        mask = (1 << b) - 1
        for r in range(0, len(out), step):
            lc = lg[coeff_rows[r:r + step, None, :]]
            for s in range(0, q, pts):
                terms = lc + pow_log[s:s + pts]
                v = np.zeros(terms.shape[:-1], dtype=np.int32)
                for k in range(n):  # index = sum_k component_k p^(n-1-k), by Horner
                    if k % per == 0:
                        word = words[k // per]
                        sums = word[terms].sum(axis=-1, dtype=word.dtype)
                    v *= p
                    v += (sums >> b * (k % per) & mask) % p
                out[r:r + step, s:s + pts] = v
        return out

    def batch_interp(self, table_rows: np.ndarray) -> np.ndarray:
        """Reduced coefficients of value-table rows (indices in, indices out).

        Blahut's theorem: with S(y) = sum_{j < q-1} f(g^j) y^j,
        S(g^-k) = sum_{x != 0} f(x) x^-k, so interp_matrix's formula reads
            c_0 = f(0),  c_k = -S(g^-k) (1 <= k <= q-2),  c_{q-1} = -(f(0) + S(1)),
        and one batch_eval of the sequences, padded with a zero coefficient,
        gives every S(g^-k), with no matrix.
        """
        q = self.q
        if table_rows.size and (table_rows.min() < 0 or table_rows.max() >= q):
            raise IndexError(f"value index outside [0, {q})")
        seq = np.zeros(table_rows.shape, dtype=np.int32)
        seq[:, :q - 1] = table_rows[:, self.exp]
        S = self.batch_eval(seq)[:, self.exp[-np.arange(1, q) % (q - 1)]]  # S(g^-k), k = 1..q-1
        S[:, -1] = self.add[table_rows[:, 0], S[:, -1]]
        seq[:, 0], seq[:, 1:] = table_rows[:, 0], self.neg[S]  # seq now holds the coefficients
        return seq


def tables(ctx: FieldCtx) -> FieldTables:
    """Cached FieldTables for a context."""
    if ctx._tables is None:
        ctx._tables = FieldTables(ctx)
    return ctx._tables


def coeff_row(f) -> np.ndarray:
    """The coefficients of a reduced polynomial f (a polyring.Poly) as one
    (1, q) row of element indices."""
    ctx = f.ctx
    return np.array([[ctx.index_of(c) for c in f.coeffs]], dtype=np.int32)


def value_table(f) -> np.ndarray:
    """Values of a reduced polynomial f at the enumerated points, as
    element indices."""
    return tables(f.ctx).batch_eval(coeff_row(f))[0]


def permutes(values: np.ndarray) -> bool:
    """Whether an index value table takes every value once; with value_table
    this is the permutation test, and polyring.is_permutation its oracle."""
    return len(np.unique(values)) == len(values)


def chain_value_tables(t: FieldTables, a_list: list[np.ndarray]) -> np.ndarray:
    """Value tables of the chains with parameter columns a_list.

    a_list holds n+2 index arrays of common length m (a0, a1, ..., a_{n+1});
    the result is (m, q) with row r the table of chain r, built one block
    of rows at a time by one stage loop.  Stage 1 is row a0 of the mul
    table (a0*x at every x) plus a1, one gather from the flat add table at
    a*q + v (add[a, v], which equals add[v, a]); each later stage is one
    gather from FieldTables.add_inv.

    Stage k (the table after a_k is added) depends only on the prefix
    (a0, ..., a_k), so every stage but the last is computed on the first
    row of each run of equal neighbouring prefixes and expanded to the
    next stage's runs; the last stage, and every stage once all prefixes
    differ, takes every row as a head.  In chain_grid's lexicographic order
    each earlier stage shrinks at least q-1-fold; in any other order (the
    rank search's candidates) they mostly differ from stage 1 on.
    """
    a_list = [np.asarray(a, dtype=np.int32) for a in a_list]
    m, q = len(a_list[0]), t.q
    out = np.empty((m, q), dtype=np.int32)
    block = max(1, ROW_BLOCK // q)
    for s in range(0, m, block):
        a0, *rest = [a[s:s + block] for a in a_list]
        new = np.ones(len(a0), dtype=bool)  # row starts a run of equal prefixes
        new[1:] = a0[1:] != a0[:-1]
        v, run = t.mul, None
        for k, ak in enumerate(rest, 1):
            if k < len(rest) and (k == 1 or run is not None):
                new[1:] |= ak[1:] != ak[:-1]
                heads = np.flatnonzero(new)
            else:  # the last stage, or all earlier prefixes distinct: every row is a head
                heads = slice(None)
            if k == 1:
                v = v[a0[heads]]
            elif run is not None:
                v = np.take(v, run[heads], axis=0)
            v += ak[heads, None] * q
            v = (t.add.ravel() if k == 1 else t.add_inv)[v]
            # this stage's run per row, when some rows share it
            run = np.cumsum(new) - 1 if len(v) < len(new) else None
        out[s:s + block] = v
    return out


def chain_grid(q: int, n: int) -> list[np.ndarray]:
    """Parameter columns (a0, ..., a_{n+1}) of every length-n chain, n >= 1.

    a0 and a2..a_n run over the nonzero indices, a1 and a_{n+1} over all
    q; the (q-1)^n q^2 rows are in lexicographic order of the tuple.
    """
    units, full = np.arange(1, q, dtype=np.int32), np.arange(q, dtype=np.int32)
    ranges = [units, full] + [units] * (n - 1) + [full]
    check_bytes((n + 2) * (q - 1) ** n * q * q * 4, f"the length-{n} chain grid at q = {q}")
    return [g.ravel() for g in np.meshgrid(*ranges, indexing="ij")]


def chain_coeff_blocks(t: FieldTables, a_list: list[np.ndarray]):
    """Yield (start, rows): the reduced coefficients of the chains with parameter
    columns a_list, one block of ROW_BLOCK // (q*n) rows at a time, each by one
    GEMM with interp_matrix, whose build the sweeps' many rows pay for.

    Every step writes into one workspace allocated per call, so rows is a
    view that the next block overwrites: reduce or copy it first.  The exact
    integer products (int64 beside a float64 matrix, as they can pass 2^31)
    reuse the gathered buffer and their quotients by p the GEMM's, each dead
    by then; r - (r // p) * p is several times faster than r % p.
    """
    T = t.interp_matrix()
    q, n, p, m = t.q, t.n, t.p, len(a_list[0])
    block = max(1, ROW_BLOCK // (q * n))
    work = [np.empty((min(block, m), q * n), T.dtype) for _ in range(2)]
    work.append(np.empty((min(block, m), q), np.int32))
    comp = t.elems.astype(T.dtype)  # comp[a] = the n components of element a, as one item
    comp = comp.view(np.dtype((np.void, comp.itemsize * n))).ravel()
    acc = np.int32 if T.dtype == np.float32 else np.int64
    for s in range(0, m, block):
        flat, prod, rows = (w[:m - s] for w in work)
        # the value table goes straight into the gather, so it is freed before the next
        np.take(comp, chain_value_tables(t, [a[s:s + block] for a in a_list]),
                out=flat.view(comp.dtype), mode="clip")
        np.matmul(flat, T, out=prod)  # point-major in, component-major out
        res, quot = flat.view(acc), prod.view(acc)
        np.copyto(res, prod, casting="unsafe")
        np.floor_divide(res, p, out=quot)
        quot *= p
        res -= quot
        res = res.reshape(len(rows), n, q)
        np.copyto(rows, res[:, 0], casting="unsafe")
        for k in range(1, n):  # index = sum_k component_k p^(n-1-k), by Horner
            rows *= p
            rows += res[:, k]
        yield s, rows


class ChainRows:
    """Coefficient rows of fixed chain parameter columns, holding the columns
    only: rows[idx] recomputes those rows from their value tables by
    batch_interp, never by the closed form."""

    def __init__(self, t: FieldTables, a_list: list[np.ndarray]):
        self.t, self.a_list = t, a_list

    def __getitem__(self, idx) -> np.ndarray:
        return self.t.batch_interp(chain_value_tables(self.t, [a[idx] for a in self.a_list]))


def rank2_shift(t: FieldTables, a1, a2) -> np.ndarray:
    """a2^-1 (a1 eta^(q-2) + 1 - a1^(q-1)), eta = a1 + a2^-1, per row, q >= 3.

    The constant coefficient of ((a0 x + a1)^(q-2) + a2)^(q-2) + a3 is
    a3 plus this shift, whatever a0.  As eta^(q-2) = inv0[eta] and
    1 - a1^(q-1) = [a1 == 0], it is a2^-1 (a1 inv0[eta] + [a1 == 0]).
    """
    a1 = np.asarray(a1, dtype=np.int32)
    inv_a2 = t.inv0[np.asarray(a2, dtype=np.int32)]
    inner = t.add[t.mul[a1, t.inv0[t.add[a1, inv_a2]]], t.emb[1] * (a1 == 0)]
    return t.mul[inv_a2, inner]


def rank2_coeff_rows(t: FieldTables, a0, a1, a2, a3) -> np.ndarray:
    """Reduced coefficients of the rank-2 closed form, one row per tuple.

    Column i is the coefficient of x^i; column q-1 is always zero and the
    constant lands in column 0.  Zero-base powers follow 0**0 = 1.
    For 1 <= i <= q-2 the coefficient factors as (-a0)^i * B_i(a1, a2), with
        B_i = a2^-1 ((a1 - i a2^-1) eta^(q-2-i) - a1^(q-1-i)),  eta = a1 + a2^-1,
    so B is built once per distinct (a1, a2) and each row is one gather
    from the flat mul table at (-a0)^i * q + B_i.  Only column 0 depends
    on a3.  Independent of the chain expansion it is checked against.
    """
    a0 = np.asarray(a0, dtype=np.int32)
    a3 = np.asarray(a3, dtype=np.int32)
    q, p = t.q, t.p
    pairs, at = np.unique(np.asarray(a1, dtype=np.int64) * q + np.asarray(a2),
                          return_inverse=True)
    a1 = (pairs // q).astype(np.int32)  # one entry per distinct (a1, a2)
    a2 = (pairs % q).astype(np.int32)
    inv_a2 = t.inv0[a2]
    eta = t.add[a1, inv_a2]

    i = np.arange(1, q - 1, dtype=np.int64)
    emb_i = t.emb[i % p]                                          # (q-2,)
    pow_eta = t.pow_outer(eta, q - 2 - i)                         # eta^(q-2-i)
    pow_a1 = t.pow_outer(a1, q - 1 - i)                           # a1^(q-1-i)
    lin = t.add[a1[:, None], t.neg[t.mul[emb_i[None, :], inv_a2[:, None]]]]
    bracket = t.add[t.mul[lin, pow_eta], t.neg[pow_a1]]
    B = t.mul[inv_a2[:, None], bracket]

    out = np.zeros((len(a0), q), dtype=np.int32)
    out[:, 0] = t.add[a3, rank2_shift(t, a1, a2)[at]]
    P = t.pow_outer(t.neg[a0], i)                                 # (-a0)^i
    P *= q
    P += B[at]
    out[:, 1:q - 1] = t.mul.ravel()[P]
    return out


def weight_rows(coeff_rows: np.ndarray) -> np.ndarray:
    """Weight (nonzero-coefficient count) per row of index coefficients."""
    return np.count_nonzero(coeff_rows, axis=1)


def degree_rows(coeff_rows: np.ndarray) -> np.ndarray:
    """Degree per row; -1 for a zero row."""
    m, q = coeff_rows.shape
    nz = coeff_rows != 0
    rev = nz[:, ::-1]
    first = np.argmax(rev, axis=1)
    deg = q - 1 - first
    deg[~nz.any(axis=1)] = -1
    return deg
