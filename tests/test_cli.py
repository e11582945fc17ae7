import contextlib
import io
import json
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffperm import carlitz as cz
from ffperm import counting as ct
from ffperm.cli import main
from ffperm.gf import make_field
from ffperm.polyring import poly_from_json


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def jlines(out):
    return [json.loads(line) for line in out.strip().split("\n")
            if line.startswith("{")]


def test_field_info(capsys):
    code, out = run(capsys, "field-info", "--p", "3", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["q"] == 9 and obj["modulus"] == [1, 0, 1]


def test_field_info_past_the_non_generating_candidates(capsys):
    # F_(4099^2) over x^2 + 1: the generator follows p - 2 candidates i*xbar
    with _budget():
        code, out = run(capsys, "field-info", "--p", "4099", "--n", "2")
    assert code == 0
    obj = json.loads(out)
    assert obj["modulus"] == [1, 0, 1] and obj["primitive"] == [1, 3]


def test_expand_frozen_example(capsys):
    code, out = run(capsys, "expand", "--field", "p=5", "--chain=-1,1,4,0")
    assert code == 0
    assert json.loads(out)["coeffs"] == [0, 1, 1, 2]


def test_expand_routes_agree(capsys):
    code, out = run(capsys, "expand", "--p", "7", "--chain=2,3,1,5")
    assert code == 0
    ctx = make_field(7)
    ch = cz.Chain(ctx, tuple(ctx.from_int(v) for v in (2, 3, 1, 5)))
    assert poly_from_json(out) == cz.expand_chain_by_powers(ch)


def test_rank2_coeffs(capsys):
    code, out = run(capsys, "rank2-coeffs", "--p", "7", "--chain=-1,1,4,0")
    assert code == 0
    assert len(json.loads(out)["coeffs"]) <= 7


def test_rank_reports_witness(capsys):
    code, out = run(capsys, "rank", "--poly",
                    '{"field": "p=5", "coeffs": [0, 1, 1, 2]}')
    assert code == 0
    obj = json.loads(out)
    assert obj["rank"] == "1" and obj["witness_chain"] == [3, 3, 3]


def test_weight_of_zero_poly(capsys):
    code, out = run(capsys, "weight", "--poly", '{"field": "p=5", "coeffs": []}')
    assert code == 0
    assert json.loads(out)["weight"] == 0


def test_permutation_test_on_index_tables(capsys):
    x2 = '{"field": "p=5", "coeffs": [0, 0, 1]}'
    code, out = run(capsys, "weight", "--poly", x2)
    assert code == 0 and json.loads(out)["permutation"] is False
    assert main(["rank", "--poly", x2]) == 2
    err = capsys.readouterr().err
    assert "NotPermutation" in err and "Traceback" not in err
    # x^7 + a x^3 + 1 over F_9 permutes, which needs the n > 1 index mapping
    code, out = run(capsys, "weight", "--poly",
                    '{"field": "p=3,n=2", "coeffs": [1, 0, 0, [0, 1], 0, 0, 0, 1]}')
    assert code == 0 and json.loads(out)["permutation"] is True


def test_nu_p_11(capsys):
    code, out = run(capsys, "nu-p", "--p", "11")
    assert code == 0
    obj = json.loads(out)
    assert obj["nu"] == 3 and 7 in obj["argmax"]


def test_scan_nu_csv(capsys):
    code, out = run(capsys, "scan-nu", "--range", "3:11", "--format", "csv")
    assert code == 0
    assert out.startswith("p,nu,argmax_list,bound_num,bound_formula,ratio_log")
    assert "\n11,3,7," in out


def test_scan_nu_deterministic(capsys):
    _, a = run(capsys, "scan-nu", "--range", "3:31")
    _, b = run(capsys, "scan-nu", "--range", "3:31")
    assert a == b


def test_scan_nu_reports_a_violating_row(capsys, monkeypatch):
    """A nu over its bound is a failed claim: exit 1 with the row, no traceback."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # serial path
    monkeypatch.setattr(ct, "_nu_kernel", lambda p: (p, [2]))
    code = main(["scan-nu", "--range", "11:11"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Traceback" not in captured.err
    row, summary = jlines(captured.out)
    assert row["p"] == 11 and row["nu"] == 11
    assert summary["summary"]["all_bounded"] is False


def test_count_window(capsys):
    code, out = run(capsys, "count-window", "--p", "5", "--gamma", "3",
                    "--c", "3", "--d", "1", "--L", "1", "--M", "2")
    assert code == 0
    assert json.loads(out)["count"] == 2
    # the lemma bounds windows with 3 <= M <= p only, so only those carry the bound
    code, out = run(capsys, "count-window", "--p", "5", "--gamma", "3",
                    "--c", "3", "--d", "1", "--L", "1", "--M", "3")
    assert code == 0
    assert {"bound", "within_bound"} <= json.loads(out).keys()
    # a window far past the period p(q-1) = 20 is counted by periods
    code, out = run(capsys, "count-window", "--p", "5", "--gamma", "2", "--c", "1",
                    "--d", "0", "--L", "0", "--M", "100000000000")
    assert code == 0
    assert json.loads(out) == {"count": 20000000000}


def test_count_full(capsys):
    code, out = run(capsys, "count-full", "--p", "5", "--gamma", "3")
    assert code == 0
    assert json.loads(out)["count"] == 2
    code, out = run(capsys, "count-full", "--p", "2", "--gamma", "0")
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_bounds_f11(capsys):
    code, out = run(capsys, "bounds", "--p", "11")
    assert code == 0
    obj = json.loads(out)
    assert obj["rank2_weight_bound"] == 6.5
    assert obj["rank2_weight_bound_sharp"] == 6


def test_sweeps(capsys):
    code, out = run(capsys, "sweep-rank1", "--p", "5")
    assert code == 0 and json.loads(out)["violations"] == 0
    code, out = run(capsys, "sweep-rank2", "--p", "11")
    assert code == 0
    obj = json.loads(out)
    assert obj["min_weight"] == 6 and obj["bound_cor35"] == 6


def test_sweep_csv_leaves_missing_values_empty(capsys):
    # no exact-rank-2 chain at q = 5: JSON says null, CSV an empty cell like rank-1's bounds
    code, out = run(capsys, "sweep-rank2", "--p", "5")
    assert code == 0 and json.loads(out)["min_weight"] is None
    code, out = run(capsys, "sweep-rank2", "--p", "5", "--format", "csv")
    assert code == 0
    assert out.split("\n")[:2] == ["q,p,case,min_weight,bound_thm33,bound_cor35,violations",
                                    "5,5,rank2,,2.0,1,0"]
    code, out = run(capsys, "sweep-rank1", "--p", "5", "--format", "csv")
    assert code == 0 and out.split("\n")[1] == "5,5,rank1,1,,,0"


def test_blahut(capsys):
    code, out = run(capsys, "blahut", "--poly",
                    '{"field": "p=5", "coeffs": [0, 1, 1, 2]}')
    assert code == 0
    assert json.loads(out)["equal"] is True


def test_blahut_default_cap_is_lincomp_cap(capsys):
    code, out = run(capsys, "blahut", "--poly", '{"field": "p=367", "coeffs": [0, 1]}')
    assert code == 0
    obj = json.loads(out)
    assert (obj["linear_complexity"], obj["folded_weight"], obj["equal"]) == (1, 1, True)


def test_example_f11(capsys):
    code, out = run(capsys, "example-f11")
    assert code == 0
    obj = json.loads(out)
    assert obj["weight"] == 6 and obj["permutation"] is True


def test_weight_over_a_degree_1_modulus(capsys):
    code, out = run(capsys, "weight", "--field", "p=5,mod=3,1",
                    "--poly", '{"field":"p=5","coeffs":[0,1]}')
    assert code == 0 and json.loads(out)["weight"] == 1


def test_poly_from_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"field": "p=5", "coeffs": [0, 1, 1, 2]}')
    code, out = run(capsys, "weight", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["weight"] == 3


HELP_LINES = {
    "field-info": "field parameters and enumeration",
    "expand": "expand a chain to a reduced polynomial",
    "rank2-coeffs": "closed-form coefficients of a length-2 chain",
    "rank": "Carlitz rank classification up to 2",
    "weight": "weight/degree/permutation test",
    "nu-p": "nu_p with argmax and bound",
    "scan-nu": "nu_p table over a prime range",
    "count-window": "window solution count",
    "count-full": "full-range solution count",
    "bounds": "rank-2 weight bounds for a field",
    "sweep-rank1": "exhaustive rank-1 weight sweep",
    "sweep-rank2": "exhaustive normalized rank-2 sweep",
    "blahut": "linear complexity vs folded weight",
    "example-f11": "the sharp family over F_(11^n)",
    "selftest": "run the full verification suite",
}


def test_help_lists_every_subcommand(capsys):
    code, out = run(capsys, "--help")
    assert code == 0
    words = " ".join(out.split())
    for cmd, line in HELP_LINES.items():
        assert f"{cmd} {line}" in words
        code, out = run(capsys, cmd, "--help")
        assert code == 0 and out.startswith(f"usage: ffperm {cmd} [-h]")


def test_usage_errors_exit_2(capsys):
    assert main(["nu-p"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["count-full", "--p", "5", "--gamma", "1"]) == 2
    assert main(["scan-nu", "--range", "oops"]) == 2


BUDGET_S = 10  # wall clock per call, so an uncapped path fails instead of hanging


@contextlib.contextmanager
def _budget():
    def over(signum, frame):
        pytest.fail(f"a call ran past its {BUDGET_S} s budget")
    old = signal.signal(signal.SIGALRM, over)
    signal.alarm(BUDGET_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


# field construction past its caps: q - 1 not factored by trial division,
# or a modulus search past its work cap
FIELD_CAPS = [
    ["field-info", "--p", "2", "--n", "61"],
    ["field-info", "--p", "2", "--n", "89"],
    ["field-info", "--p", "2", "--n", "127"],
    ["field-info", "--p", "3", "--n", "97"],
    ["field-info", "--p", "5", "--n", "43"],
    ["field-info", "--p", "2", "--n", "400"],
    ["bounds", "--p", "3", "--n", "2000"],
    ["rank", "--poly", '{"field":"p=2,n=3000","coeffs":[1]}'],
]
# q or p just above each cap of the queries and sweeps
Q_CAPS = [
    ["rank", "--poly", '{"field":"p=347","coeffs":[0,1]}'],
    ["weight", "--poly", '{"field":"p=347","coeffs":[0,1]}'],
    ["expand", "--p", "347", "--chain=2,3,1,5"],
    ["rank2-coeffs", "--p", "347", "--chain=2,3,1,5"],
    ["blahut", "--poly", '{"field":"p=521","coeffs":[0,1]}'],
    ["bounds", "--p", "32771"],
    ["count-full", "--p", "32771", "--gamma", "2"],
    ["sweep-rank2", "--p", "23", "--n", "2"],
]


@pytest.mark.parametrize("argv", [
    ["rank", "--poly", "{bad"],
    ["expand", "--p", "5", "--chain=a,b"],
    ["weight", "--poly", '{"field":"p=3","coeffs":[1,2,0,1]}'],
    ["field-info", "--p", "5", "--n", "0"],
    ["example-f11", "--n", "0"],
    ["field-info", "--field", "p=5", "--p", "7", "--n", "3"],
    ["field-info", "--field", "p=3,n=2", "--n", "5"],
    ["field-info", "--n", "3"],
    ["field-info", "--field", "p=x"],
    ["rank", "--poly", '{"field":"p=5","coeffs":[0,1]}', "--n", "3"],
    ["weight", "--poly", '{"field":"p=5","coeffs":[0,1]}', "--p", "0"],
    ["bounds", "--p", "1000003"],
    ["expand", "--p", "11", "--n", "4", "--chain=2,3,1,5"],
    ["rank2-coeffs", "--p", "11", "--n", "4", "--chain=2,3,1,5"],
    ["weight", "--poly", '{"field": "p=3,n=30", "coeffs": [0, 1]}'],
    ["rank", "--poly", '{"field": "p=3,n=30", "coeffs": [0, 1]}'],
    ["blahut", "--poly", '{"field": "p=3,n=30", "coeffs": [0, 1]}'],
    ["weight", "--poly", '{"field": 5, "coeffs": [1]}'],
    ["rank", "--poly", '{"field": null, "coeffs": [1]}'],
    ["blahut", "--poly", '{"field": ["p=5"], "coeffs": [1]}'],
    ["count-full", "--p", "3", "--n", "30", "--gamma", "2"],
    ["count-window", "--p", "3", "--n", "30", "--gamma", "2", "--c", "1", "--d", "0",
     "--L", "0", "--M", "100000000000"],
    ["blahut", "--poly", '{"field":"p=5","coeffs":[1,0,0,0,4]}', "--no-fold"],
    ["blahut", "--poly", '{"field":"p=5","coeffs":[true]}'],
    ["blahut", "--poly", '{"field":"p=5","coeffs":"x"}'],
    ["blahut", "--poly", '{"field":"p=5","coeffs":[1.5]}'],
    ["rank", "--poly", '{"field":"p=3,n=2","coeffs":[[0,false]]}'],
    ["weight", "--poly", '{"field":"p=5","coeffs":[1,null]}'],
    ["expand", "--p", "2", "--chain=1,0,1"],
    ["rank2-coeffs", "--p", "2", "--chain=1,0,1,0"],
    ["selftest", "--nu-limit", "2"],
    ["selftest", "--nu-limit", "40000"],
] + FIELD_CAPS + Q_CAPS)
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    with _budget():
        assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 or err.startswith("usage:")  # one line, or argparse's
    assert argv not in FIELD_CAPS + Q_CAPS or err.startswith("error: FieldTooLarge: ")


# small pools of valid and then broken values, so the draws reach both the
# handlers' success paths and their error paths (valid first: hypothesis
# favours the front of a pool)
INTS = ["3", "1", "7", "0", "-1", "100000000000", "x"]
VALUES = {
    "--p": ["5", "11", "2", "9", "4", "1", "0", "-1", "x"],
    "--n": ["2", "1", "3", "61", "3000", "0", "-1", "z"],
    "--field": ["p=5", "p=3,n=2", "p=2,n=3", "p=2,n=61", "p=4", "p=x", "n=2",
                "p=3,n=2,mod=1,1,1", ""],
    "--poly": ['{"field":"p=5","coeffs":[0,1,1,2]}', '{"field":"p=3,n=2","coeffs":[[0,1],[1]]}',
               '{"field":"p=5","coeffs":[0,0,1]}', '{"field":"p=5","coeffs":[]}',
               '{"field":"p=4","coeffs":[1]}', '{"coeffs":[1]}', '{"field":5,"coeffs":[1]}',
               "{bad", "no/such/file"],
    "--chain": ["-1,1,4,0", "2,3,1,5", "1,1", "0,1", "1,2,0,3", "1", "a,b", ""],
    "--gamma": INTS, "--c": INTS, "--d": INTS, "--L": INTS, "--M": INTS,
}
# ways to give the field, two of them conflicting
FIELD = [("--field",), ("--p",), ("--p", "--n"), (), ("--field", "--p"), ("--n",)]
COMMANDS = {  # subcommand: (its required options, its ways to give the field)
    "field-info": ((), FIELD),
    "expand": (("--chain",), FIELD),
    "rank2-coeffs": (("--chain",), FIELD),
    "rank": (("--poly",), FIELD),
    "weight": (("--poly",), FIELD),
    "nu-p": (("--p",), [()]),
    "count-full": (("--gamma",), FIELD),
    "count-window": (("--gamma", "--c", "--d", "--L", "--M"), FIELD),
    "bounds": ((), FIELD),
    "blahut": (("--poly",), FIELD),
}
JUNK = st.text(max_size=4)


@st.composite
def cli_argv(draw):
    cmd = draw(st.sampled_from(sorted(COMMANDS)))
    required, field = COMMANDS[cmd]
    opts = required + draw(st.sampled_from(field))
    argv = [cmd] + [f"{opt}={draw(st.sampled_from(VALUES[opt]))}" for opt in opts]
    mess = draw(st.integers(0, 5))  # now and then a stray option or token
    if mess == 4:
        argv.append(f"{draw(st.sampled_from(sorted(VALUES)))}={draw(JUNK)}")
    elif mess == 5:
        argv.append(draw(JUNK))
    return argv


@settings(max_examples=300, deadline=None)
@given(cli_argv())
def test_cli_contract_on_random_argv(argv):
    """Any argv exits 0, 1 or 2 within the budget, and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with _budget(), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
