"""Vectorized field arithmetic on element indices, for sweeps and single queries.

Elements of F_q are identified with their position in the fixed
enumeration (see gf); index 0 is the zero element.  Addition and
multiplication are q x q tables, the multiplication table built from
discrete logs.  Evaluation is Horner over every point at once;
interpolation is one explicit (q*n)^2 matrix over F_p.  All batch
routines here are cross-checked against the scalar gf/polyring/lincomp
implementations in the test suite; they are accelerators, not a second
source of truth.
"""

from __future__ import annotations

import numpy as np

from .errors import FieldTooLarge
from .gf import FieldCtx, primitive_element

TABLE_CAP = 4096  # largest q for which index tables are built
BYTES_CAP = 1 << 28  # largest (q*n)^2 matrix or sweep value table, in bytes
ROW_BLOCK = 1 << 22  # prime-field components per block of rows in batch work


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
        self.ctx = ctx
        q, p, n = ctx.q, ctx.p, ctx.n
        self.q, self.p, self.n = q, p, n
        self.place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)

        # coefficient vectors by index
        idx = np.arange(q, dtype=np.int64)
        elems = np.empty((q, n), dtype=np.int64)
        rem = idx.copy()
        for k in range(n):
            elems[:, k], rem = np.divmod(rem, self.place[k])
        self.elems = elems

        # powers of the primitive element
        g = primitive_element(ctx)
        exp = np.empty(q - 1, dtype=np.int64)
        acc = ctx.one()
        for k in range(q - 1):
            exp[k] = ctx.index_of(acc)
            acc = acc * g
        self.exp = exp
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(q - 1)
        self.log = log

        # operation tables, one q x q int32 temporary at a time
        add = np.zeros((q, q), dtype=np.int32)
        for k in range(n):  # digit k of the sum, reduced by one conditional subtract
            d = elems[:, k].astype(np.int32)
            s = d[:, None] + d[None, :]
            np.subtract(s, p, out=s, where=s >= p)
            s *= int(self.place[k])
            add += s
            del s
        self.add = add
        mul = np.zeros((q, q), dtype=np.int32)
        if q > 1:
            lg = log[1:].astype(np.int32)
            e = lg[:, None] + lg[None, :]
            np.subtract(e, q - 1, out=e, where=e >= q - 1)
            mul[1:, 1:] = exp.astype(np.int32)[e]
            del e
        self.mul = mul
        self.neg = (((p - elems) % p) @ self.place).astype(np.int32)
        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self.inv0 = inv
        # embedded integers: index of the coefficient vector (i, 0, ..., 0)
        self.emb = (np.arange(p, dtype=np.int64) * self.place[0]).astype(np.int32)

        self._interp_matrix = None

    # -- powers with the 0**0 = 1 convention -------------------------------
    def pow_outer(self, base: np.ndarray, exps: np.ndarray) -> np.ndarray:
        """(len(base), len(exps)) array of base[r]^exps[c], exps >= 0."""
        base = np.asarray(base)
        exps = np.asarray(exps, dtype=np.int64)
        out = np.zeros((len(base), len(exps)), dtype=np.int32)
        nz = base != 0
        if nz.any():
            lg = self.log[base[nz]]
            out[nz] = self.exp[(lg[:, None] * exps[None, :]) % (self.q - 1)]
        zero_exp = exps == 0
        if zero_exp.any():
            out[:, zero_exp] = self.emb[1]
        return out

    # -- evaluation and interpolation -------------------------------------
    def interp_matrix(self) -> np.ndarray:
        """(q*n, q*n) float64 matrix of interpolation as an F_p-linear map.

        Flattening: value at the a-th enumerated point, component k at
        position a*n + k; coefficient of x^i, component k at i*n + k.
        For reduced f = sum_i c_i x^i the coefficients are
            c_0 = f(0),
            c_k = -sum_{x != 0} f(x) x^(-k)    (1 <= k <= q-2),
            c_{q-1} = -sum_x f(x),
        from the power sums sum_{x in F_q^*} x^m = -[(q-1) | m]: for
        1 <= k <= q-2 only i = k has (q-1) | (i - k), and
        sum_x f(x) = c_0 - c_0 - c_{q-1} since i = 0 and i = q-1 qualify.
        """
        if self._interp_matrix is None:
            q, n = self.q, self.n
            check_bytes((q * n) ** 2 * 8, f"a (q*n)^2 matrix at q = {q}")
            pts = np.arange(q, dtype=np.int32)
            W = np.zeros((q, q), dtype=np.int32)  # c_i = sum_x W[i, x] f(x)
            W[0, 0] = self.emb[1]
            # row k: -x^(q-1-k) = -x^(-k) for x != 0, and 0 at x = 0
            W[1:q - 1] = self.neg[self.pow_outer(pts, np.arange(q - 2, 0, -1))].T
            W[q - 1] = self.neg[self.emb[1]]
            # component k' of W[i, x] * e_k sits at row i*n + k', column x*n + k
            M = np.empty((q * n, q * n), dtype=np.float64)
            for k in range(n):
                comps = self.elems[self.mul[W, int(self.place[k])]]  # (q, q, n)
                M[:, k::n] = comps.transpose(0, 2, 1).reshape(q * n, q)
            self._interp_matrix = M
        return self._interp_matrix

    def batch_eval(self, coeff_rows: np.ndarray) -> np.ndarray:
        """Value tables of reduced coefficient rows (indices in, indices out).

        Horner at every point at once: v <- v * x + c_i for i = q-1 .. 0.
        """
        coeff_rows = np.asarray(coeff_rows, dtype=np.int32)
        pts = np.arange(self.q)
        v = np.zeros(coeff_rows.shape, dtype=np.int32)
        for i in range(self.q - 1, -1, -1):
            v = self.add[self.mul[v, pts], coeff_rows[:, i, None]]
        return v

    def batch_interp(self, table_rows: np.ndarray) -> np.ndarray:
        """Reduced coefficients of value-table rows (indices in, indices out)."""
        M = self.interp_matrix()
        m, q = table_rows.shape
        n = self.n
        out = np.empty_like(table_rows)
        chunk = max(1, ROW_BLOCK // (q * n))
        for s in range(0, m, chunk):
            comps = self.elems[table_rows[s:s + chunk]]          # (c, q, n)
            flat = comps.reshape(len(comps), q * n).astype(np.float64)
            res = (flat @ M.T) % self.p
            res = res.astype(np.int64).reshape(len(comps), q, n)
            out[s:s + chunk] = (res @ self.place).astype(table_rows.dtype)
        return out


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
    the result is (m, q) with row r the table of chain r.
    """
    a_list = [np.asarray(a, dtype=np.int32) for a in a_list]
    m = len(a_list[0])
    q = t.q
    out = np.empty((m, q), dtype=np.int32)
    for x in range(q):
        v = t.add[t.mul[a_list[0], x], a_list[1]]
        for k in range(2, len(a_list)):
            v = t.add[t.inv0[v], a_list[k]]
        out[:, x] = v
    return out


def chain_grid(q: int, n: int) -> list[np.ndarray]:
    """Parameter columns (a0, ..., a_{n+1}) of every length-n chain, n >= 1.

    a0 and a2..a_n run over the nonzero indices, a1 and a_{n+1} over all
    q; the (q-1)^n q^2 rows are in lexicographic order of the tuple.
    """
    units, full = np.arange(1, q), np.arange(q)
    ranges = [units, full] + [units] * (n - 1) + [full]
    return [g.ravel().astype(np.int32) for g in np.meshgrid(*ranges, indexing="ij")]


def chain_coeff_rows(t: FieldTables, a_list: list[np.ndarray]) -> np.ndarray:
    """Reduced coefficients of the chains with parameter columns a_list, (m, q).

    Value tables are built and interpolated one block of rows at a time,
    so only one block's table is held beside the result.
    """
    m = len(a_list[0])
    out = np.empty((m, t.q), dtype=np.int32)
    block = max(1, ROW_BLOCK // (t.q * t.n))
    for s in range(0, m, block):
        out[s:s + block] = t.batch_interp(
            chain_value_tables(t, [a[s:s + block] for a in a_list]))
    return out


def rank2_shift(t: FieldTables, a1, a2) -> np.ndarray:
    """a2^-1 (a1 eta^(q-2) + 1 - a1^(q-1)), eta = a1 + a2^-1, per row.

    The constant coefficient of ((a0 x + a1)^(q-2) + a2)^(q-2) + a3 is
    a3 plus this shift, whatever a0.
    """
    a1 = np.asarray(a1, dtype=np.int32)
    inv_a2 = t.inv0[np.asarray(a2, dtype=np.int32)]
    q = t.q
    eta_top = t.pow_outer(t.add[a1, inv_a2], [q - 2])[:, 0]
    a1_top = t.pow_outer(a1, [q - 1])[:, 0]
    inner = t.add[t.mul[a1, eta_top], t.add[t.emb[1], t.neg[a1_top]]]
    return t.mul[inv_a2, inner]


def rank2_coeff_rows(t: FieldTables, a0, a1, a2, a3) -> np.ndarray:
    """Reduced coefficients of the rank-2 closed form, one row per tuple.

    Column i is the coefficient of x^i; column q-1 is always zero and the
    constant lands in column 0.  Zero-base powers follow 0**0 = 1.
    """
    a0 = np.asarray(a0, dtype=np.int32)
    a1 = np.asarray(a1, dtype=np.int32)
    a2 = np.asarray(a2, dtype=np.int32)
    a3 = np.asarray(a3, dtype=np.int32)
    q, p = t.q, t.p
    m = len(a0)
    inv_a2 = t.inv0[a2]
    eta = t.add[a1, inv_a2]
    neg_a0 = t.neg[a0]

    i = np.arange(1, q - 1, dtype=np.int64)
    emb_i = t.emb[(i % p).astype(np.int64)]                       # (q-2,)
    pow_neg = t.pow_outer(neg_a0, i)                              # (-a0)^i
    pow_eta = t.pow_outer(eta, q - 2 - i)                         # eta^(q-2-i)
    pow_a1 = t.pow_outer(a1, q - 1 - i)                           # a1^(q-1-i)

    lin = t.add[a1[:, None], t.neg[t.mul[emb_i[None, :], inv_a2[:, None]]]]
    bracket = t.add[t.mul[lin, pow_eta], t.neg[pow_a1]]
    coeff = t.mul[t.mul[inv_a2[:, None], pow_neg], bracket]

    out = np.zeros((m, q), dtype=np.int32)
    out[:, 0] = t.add[a3, rank2_shift(t, a1, a2)]
    out[:, 1:q - 1] = coeff
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
