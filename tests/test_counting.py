import math
import os
import random

import pytest

from ffperm import counting as ct
from ffperm.errors import (BadRange, CompositeP, EvenCharacteristic, FieldTooLarge,
                           GammaOne, NonCoprimePeriods, ZeroC)
from ffperm.gf import is_prime, make_field


def query(ctx, gamma, c, d, L, M):
    return ct.CountQuery(ctx, ctx.from_int(gamma), ctx.from_int(c),
                         ctx.from_int(d), L, M)


def test_window_count_hand_enumeration():
    """gamma=3, c=-2, d=1 over F_5: 3^2=4=1+3 and 3^3=2=1+6 mod 5."""
    ctx = make_field(5)
    assert ct.count_exp_linear(query(ctx, 3, 3, 1, 1, 2)) == 2


def test_window_count_gamma2_oracle():
    # i=1 solves 2^2 = 4 = 3*1 + 1 over F_5; i = 2, 3 do not
    ctx = make_field(5)
    assert ct.count_exp_linear(query(ctx, 2, 3, 1, 1, 2)) == 1


def test_window_count_gamma_zero():
    ctx = make_field(5)
    # 0 = i*1 + 0 forces i = 0 mod 5; none in [1, 4]
    assert ct.count_exp_linear(query(ctx, 0, 1, 0, 1, 3)) == 0
    # but i = 5 is in [2, 6]
    assert ct.count_exp_linear(query(ctx, 0, 1, 0, 2, 4)) == 1


def test_zero_c_rejected():
    ctx = make_field(5)
    with pytest.raises(ZeroC):
        query(ctx, 3, 0, 1, 1, 2)


def test_incremental_equals_naive_random():
    """Windows up to 400 long span several periods p(q-1) on every field
    of the pool (F_25's is 120), so the period reduction is exercised."""
    random.seed(31)
    for _ in range(400):
        p, n = random.choice([(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1),
                              (3, 2), (5, 2)])
        ctx = make_field(p, n)
        qr = ct.CountQuery(ctx, ctx.el_at(random.randrange(ctx.q)),
                           ctx.el_at(random.randrange(1, ctx.q)),
                           ctx.el_at(random.randrange(ctx.q)),
                           random.randrange(-30, 60), random.randrange(400))
        assert ct.count_exp_linear(qr) == ct.count_exp_linear_naive(qr)


def test_lemma_window_bound_values():
    # M = 11: 5/4 + sqrt(225/16) = 5 exactly, so 5 is within and 6 is not
    assert ct.within_window_bound(5, 11) and not ct.within_window_bound(6, 11)
    # M = 5: 5/4 + sqrt(81/16) = 7/2
    assert ct.within_window_bound(3, 5) and not ct.within_window_bound(4, 5)
    assert ct.window_bound(11) == 5.0 and ct.window_bound(5) == 3.5
    assert ct.window_bound(3) == pytest.approx(2.6861406616)
    with pytest.raises(BadRange):
        ct.window_bound(2)
    with pytest.raises(BadRange):
        ct.within_window_bound(0, 2)


def test_window_predicate_against_isqrt():
    """For integer s, s <= sqrt(N) iff s <= isqrt(N)."""
    for M in range(3, 3000):
        r = math.isqrt(24 * M - 39)
        for c in range(60):
            assert ct.within_window_bound(c, M) == (4 * c - 5 <= r), (c, M)
    # criterion 8: c <= q/p + 1/4 + sqrt(3p/2 - 39/16), times 4
    for p, n in [(3, 2), (5, 2), (3, 3), (7, 2), (3, 4), (11, 2)]:
        q = p ** n
        r = math.isqrt(24 * p - 39)
        for c in range(q):
            assert (ct.within_window_bound(c - (q // p - 1), p)
                    == (4 * c - 4 * (q // p) - 1 <= r)), (q, c)


def test_count_full_oracles():
    ctx5 = make_field(5)
    assert ct.count_full(ctx5, ctx5.from_int(3)) == 2
    # gamma = 0 forces i = -1 mod p; representable inside [1, q-2] only
    # when n > 1
    assert ct.count_full(ctx5, ctx5.zero()) == 0
    assert ct.count_full(make_field(3, 2), make_field(3, 2).zero()) == 2
    assert ct.count_full(make_field(5, 2), make_field(5, 2).zero()) == 4
    # q = 2: the range [1, q-2] is empty
    assert ct.count_full(make_field(2), make_field(2).zero()) == 0


def test_count_full_is_the_full_window_count():
    """count_full(gamma) = window count with c = 1-gamma, d = 1, [1, q-2]."""
    for p, n in [(13, 1), (3, 2), (5, 2)]:
        ctx = make_field(p, n)
        for g in range(ctx.q):
            gamma = ctx.el_at(g)
            if gamma == ctx.one():
                continue
            qr = ct.CountQuery(ctx, gamma, ctx.one() - gamma, ctx.one(),
                               1, ctx.q - 3)
            assert ct.count_full(ctx, gamma) == ct.count_exp_linear_naive(qr)


def test_count_full_gamma_one_rejected():
    ctx = make_field(7)
    with pytest.raises(GammaOne):
        ct.count_full(ctx, ctx.one())


def test_count_full_cap():
    """The pass walks min(M + 1, p(q-1)) steps, refused above
    COUNT_STEP_CAP before any step; count_full walks q - 1."""
    big = make_field(2, 16)
    with pytest.raises(FieldTooLarge):
        ct.count_full(big, big.el_at(2))
    top = make_field(32749)  # the largest prime under the cap
    assert top.q <= ct.COUNT_STEP_CAP
    assert ct.count_full(top, top.from_int(2)) >= 0
    # 10^11 + 1 steps over F_5: 5 * 10^9 periods of 20 steps and one step more
    assert ct.count_exp_linear(query(make_field(5), 2, 1, 0, 0, 10 ** 11)) == 2 * 10 ** 10
    with pytest.raises(FieldTooLarge):  # both the window and the period are too long
        ct.count_exp_linear(query(make_field(3, 30), 2, 1, 0, 0, 10 ** 11))


def test_nu_p_known_values():
    r = ct.nu_p(11)
    assert r.nu == 3 and 7 in r.argmax
    assert ct.nu_p(3).nu == 0
    r5 = ct.nu_p(5)
    assert r5.nu == 2 and 3 in r5.argmax
    assert ct.nu_p(7).nu == 1


def test_nu_p_errors():
    with pytest.raises(EvenCharacteristic):
        ct.nu_p(2)
    with pytest.raises(CompositeP):
        ct.nu_p(9)


def test_nu_p_cap():
    assert ct.NU_P_CAP >= 10 ** 4
    with pytest.raises(FieldTooLarge):
        ct.nu_p(32771)
    with pytest.raises(FieldTooLarge):
        ct.conjecture_scan(3, 40000)  # refused before the first prime


def test_nu_p_matches_naive():
    small = [p for p in range(3, 400, 2) if is_prime(p)]
    for p in small + [401, 409, 521, 1009]:
        fast = ct.nu_p(p)
        slow = ct.nu_p_naive(p)
        assert (fast.nu, fast.argmax) == (slow.nu, slow.argmax)


def test_nu_p_naive_is_the_max_of_count_full():
    """The oracle's own integer passes give count_full's max and argmax."""
    for p in [p for p in range(3, 102, 2) if is_prime(p)]:
        ctx = make_field(p)
        counts = {g: ct.count_full(ctx, ctx.from_int(g)) for g in range(p) if g != 1}
        nu = max(counts.values())
        row = ct.nu_p_naive(p)
        assert row.nu == nu
        assert row.argmax == (tuple(g for g in sorted(counts) if counts[g] == nu)
                              if nu > 0 else ())


def test_conjecture_scan_same_rows_on_one_and_two_cores(monkeypatch):
    scans = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
        scans.append(ct.conjecture_scan(3, 1200))
    (serial, s_summary), (pooled, p_summary) = scans
    assert pooled == serial and p_summary == s_summary
    assert ct.nu_rows_csv(pooled) == ct.nu_rows_csv(serial)


def test_crt_trivial_cases():
    assert ct.crt_match_count(["u", "u"], ["u", "u", "u"]) == 6
    assert ct.crt_match_count([1, 2, 3], ["a", "b", "c", "d"]) == 0


def test_crt_coprime_required():
    with pytest.raises(NonCoprimePeriods):
        ct.crt_match_count([1, 2], [3, 4, 5, 6])


def test_crt_random_dual_route():
    random.seed(77)
    for _ in range(60):
        g1 = [random.randrange(5) for _ in range(4)]
        g2 = [random.randrange(5) for _ in range(9)]
        direct = sum(1 for i in range(1, 37) if g1[i % 4] == g2[i % 9])
        assert ct.crt_match_count(g1, g2) == direct


def test_cor23_injective_bound():
    cnt, bound, ok = ct.cor23_window_check([0, 1, 2], [3, 4, 0, 1], 2)
    assert ok and bound == 6
    with pytest.raises(BadRange):
        ct.cor23_window_check([0, 0, 1], [3, 4, 0, 1], 1)


def test_window_scan_matches_brute_force_f5():
    scan = ct.window_bound_scan(5)
    ctx = make_field(5)
    for M in range(3, 6):
        best = 0
        for gm in range(5):
            for c in range(1, 5):
                for d in range(5):
                    for L in range(20 if gm else 5):
                        best = max(best, ct.count_exp_linear(
                            query(ctx, gm, c, d, L, M)))
        assert scan[M] == best


def test_window_bound_holds_with_shifted_m():
    """Counts fit the bound evaluated at M+1 (a span-M window holds M+1
    integers); the literal bound at M fails for small M, see the self
    checks."""
    for p in [5, 7, 11, 13]:
        scan = ct.window_bound_scan(p)
        for M in range(3, p + 1):
            assert ct.within_window_bound(scan[M], M + 1)


def test_conjecture_scan_rows_and_csv():
    rows, summary = ct.conjecture_scan(3, 11)
    assert [r.p for r in rows] == [3, 5, 7, 11]
    assert rows[-1].nu == 3
    assert summary["all_bounded"] and summary["argmax_p"] == 11
    csv_text = ct.nu_rows_csv(rows)
    lines = csv_text.strip().split("\n")
    assert lines[0] == "p,nu,argmax_list,bound_num,bound_formula,ratio_log"
    assert lines[4].startswith("11,3,7,5.000000")
    # empty range
    rows0, summary0 = ct.conjecture_scan(12, 11)
    assert rows0 == [] and summary0["count"] == 0


def test_nu_rows_are_bounded():
    for p in [3, 5, 7, 11, 13, 17, 19, 23]:
        r = ct.nu_p(p)
        assert ct.within_window_bound(r.nu, p)
