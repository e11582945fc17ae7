"""Acceptance suite: one test per headline criterion, one report line each.

Criteria 4 and 7 are expected failures: each fails on a concrete
counterexample that the corresponding check prints (no rank-2
permutation of F_5 exists, so the q = 5 sharpness target is unattained;
and span-M windows hold M+1 integers, which breaks the literal window
bound at small M).  They are marked strict-xfail so a regression that
silently "fixes" them is flagged too.
"""

import pytest

from ffperm import verify

_results: dict[int, verify.CheckResult] = {}


def run(k: int) -> verify.CheckResult:
    if k not in _results:
        _results[k] = verify.run_check(k)
        print(_results[k].line())
    return _results[k]


def test_criterion_01_nu11_value_and_speed():
    assert run(1).passed


def test_criterion_02_nu_bound_all_primes():
    assert run(2).passed


def test_criterion_03_rank1_classification():
    assert run(3).passed


@pytest.mark.xfail(strict=True,
                   reason="no permutation of F_5 has Carlitz rank 2, so the "
                          "q=5 sharpness target cannot be attained")
def test_criterion_04_rank2_sweep_sharpness():
    assert run(4).passed


def test_criterion_04_rank2_sweep_sharpness_details():
    """Everything except the vacuous q = 5 sharpness row does hold."""
    res = run(4)
    assert not res.passed
    assert "q=5: no chain of exact rank 2 exists" in res.details
    # the q = 5 row is the only problem
    assert res.details.count(";") == 0


def test_criterion_05_f11_family():
    assert run(5).passed


def test_criterion_06_closed_form_vs_expansion():
    assert run(6).passed


@pytest.mark.xfail(strict=True,
                   reason="a window [L, L+M] holds M+1 integers; the literal "
                          "bound at M fails for small M (e.g. p=5, M=3 "
                          "admits 3 solutions vs bound 2.686)")
def test_criterion_07_window_bound():
    assert run(7).passed


def test_criterion_07_window_bound_details():
    """The violations are exactly the small-M off-by-one cases, and the
    counts always fit the bound evaluated at M+1."""
    from ffperm import counting as ct
    res = run(7)
    assert not res.passed
    assert "(5, 3, 3, 2.686)" in res.details
    for p in [5, 7, 11, 13, 17, 19]:
        scan = ct.window_bound_scan(p)
        for M in range(3, p + 1):
            assert ct.within_window_bound(scan[M], M + 1)


def test_criterion_08_full_range_bound():
    assert run(8).passed


def test_criterion_09_crt_counts():
    assert run(9).passed


def test_criterion_10_blahut_identity():
    res = run(10)
    assert res.passed
    assert res.details == ("50164 polynomials (all rank <= 2 maps + 500 random "
                           "per field), 0 mismatches")


def test_criterion_11_prior_bounds():
    assert run(11).passed


def test_criterion_12_linchpin_identity():
    res = run(12)
    assert res.passed
    assert res.details == "18058 case-(c) chains across nine fields, 0 mismatches"


def test_criterion_13_conjecture_report():
    assert run(13).passed


def test_run_check_refuses_a_bad_nu_limit():
    """Every criterion refuses a limit the nu_p scan cannot take, before it runs."""
    from ffperm import counting as ct
    from ffperm.errors import BadRange, FieldTooLarge
    for k in (1, 2, 13):
        with pytest.raises(BadRange):
            verify.run_check(k, nu_limit=2)
        with pytest.raises(FieldTooLarge):
            verify.run_check(k, nu_limit=ct.NU_P_CAP + 1)


def test_report_summary():
    lines = [_results[k].line() for k in sorted(_results)]
    print()
    for line in lines:
        print(line)
    passed = sum(1 for k in _results if _results[k].passed)
    assert passed == len(_results) - 2  # criteria 4 and 7 documented above
