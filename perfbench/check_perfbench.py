"""The benchmark's own test, kept out of the library's suite:

    python3 -m pytest -q perfbench/check_perfbench.py

Every workload runs in smoke mode through the same command line the
benchmark is run with, untraced and traced.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
# exact work counts, taken outside the library; they must repeat run to run
COUNTS = ["counting.nu_elems", "fastfield.chain_rows", "fastfield.interp_matrix_bytes",
          "gf.fe_mul_count", "lincomp.bm_calls", "carlitz.rank_checks_per_query",
          "polyring.eval_table_calls"]


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 7):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=600)


def _result(workload: str, trace: int) -> dict:
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr
    res = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, out.stderr
    return res


def _assert_metrics(res: dict, spec: list[dict]) -> None:
    assert set(res["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)), m["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = _result(workload, 0)
    _assert_metrics(res, BENCH["end_to_end"])
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics_and_counts_repeat(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    _assert_metrics(first, BENCH["per_layer"])
    for name in COUNTS:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["env.blas_threads"]["value"] >= 1


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_oracles_reject_wrong_answers():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from bench_workloads import Query
    inputs = Query.make_inputs(3, smoke=True)
    ops = Query.run_pass(inputs)
    assert all(Query.check(inputs, ops))
    for qr, op in zip(inputs, ops):
        rc, out = op.result
        if qr["kind"] == "weight":
            obj = json.loads(out)
            obj["weight"] += 1
            op.result = (rc, json.dumps(obj))
        elif qr["kind"] == "rank" and "witness_chain" in out:
            obj = json.loads(out)
            obj["witness_chain"][-1] = obj["witness_chain"][0]
            op.result = (rc, json.dumps(obj))
        else:
            op.result = (1, out)
    assert not any(Query.check(inputs, ops))
