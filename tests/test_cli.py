import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ffperm.cli import main


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


def test_expand_frozen_example(capsys):
    code, out = run(capsys, "expand", "--field", "p=5", "--chain=-1,1,4,0")
    assert code == 0
    assert json.loads(out)["coeffs"] == [0, 1, 1, 2]


def test_expand_routes_agree(capsys):
    _, out_t = run(capsys, "expand", "--p", "7", "--chain=2,3,1,5", "--route", "table")
    _, out_p = run(capsys, "expand", "--p", "7", "--chain=2,3,1,5", "--route", "power")
    assert out_t == out_p


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


def test_count_window(capsys):
    code, out = run(capsys, "count-window", "--p", "5", "--gamma", "3",
                    "--c", "3", "--d", "1", "--L", "1", "--M", "2")
    assert code == 0
    assert json.loads(out)["count"] == 2


def test_count_full(capsys):
    code, out = run(capsys, "count-full", "--p", "5", "--gamma", "3")
    assert code == 0
    assert json.loads(out)["count"] == 2


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


def test_poly_from_file(tmp_path, capsys):
    path = tmp_path / "f.json"
    path.write_text('{"field": "p=5", "coeffs": [0, 1, 1, 2]}')
    code, out = run(capsys, "weight", "--poly", str(path))
    assert code == 0
    assert json.loads(out)["weight"] == 3


def test_usage_errors_exit_2(capsys):
    assert main(["nu-p"]) == 2
    assert main(["no-such-command"]) == 2
    assert main(["count-full", "--p", "5", "--gamma", "1"]) == 2
    assert main(["scan-nu", "--range", "oops"]) == 2


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
])
def test_malformed_input_exits_2_without_traceback(capsys, argv):
    assert main(argv) == 2
    assert "Traceback" not in capsys.readouterr().err


# small pools of valid and then broken values, so the draws reach both the
# handlers' success paths and their error paths (valid first: hypothesis
# favours the front of a pool)
INTS = ["3", "1", "7", "0", "-1", "x"]
VALUES = {
    "--p": ["5", "11", "2", "9", "4", "1", "0", "-1", "x"],
    "--n": ["2", "1", "3", "0", "-1", "z"],
    "--field": ["p=5", "p=3,n=2", "p=2,n=3", "p=4", "p=x", "n=2", "p=3,n=2,mod=1,1,1", ""],
    "--poly": ['{"field":"p=5","coeffs":[0,1,1,2]}', '{"field":"p=3,n=2","coeffs":[[0,1],[1]]}',
               '{"field":"p=5","coeffs":[0,0,1]}', '{"field":"p=5","coeffs":[]}',
               '{"field":"p=4","coeffs":[1]}', '{"coeffs":[1]}', "{bad", "no/such/file"],
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
    """Any argv exits 0, 1 or 2, and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv
