"""Self-test of the benchmark at a tiny size.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

sys.path.insert(0, str(ROOT / "src"))
import workloads  # noqa: E402


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_emitted_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.startswith(f"{metric['name']} = ")
                   and line.endswith(f" {metric['unit']}") for line in lines)
    assert any(line.startswith("fail_frac = ") for line in lines)


def test_fail_counter_counts_a_perturbed_relation():
    inputs = workloads.build_inputs("trace", 3, "tiny")
    base = workloads.run("trace", inputs, workloads.CaseClock())
    assert workloads.check_trace(base) == []

    rel = inputs["relations"][0]
    (c0, w0), *rest = rel.terms
    broken = rel._replace(name=rel.name + "[perturbed]",
                          terms=((c0 + c0, w0), *rest))
    inputs["relations"] = inputs["relations"] + [broken]
    got = workloads.run("trace", inputs, workloads.CaseClock())
    assert got["failed"] == base["failed"] + 1
    assert got["floor"] == base["floor"]
    assert got["attempted"] == base["attempted"] + 1
    problems = workloads.check_trace(got)
    assert len(problems) == 1 and "[perturbed]" in problems[0]


def test_gate_rejects_a_changed_exact_line():
    argv = workloads.verify_argv(3, "tiny")
    inputs = {"argv": argv}
    result = workloads.run("verify-default", inputs, workloads.CaseClock())
    assert workloads.check_verify(argv, result) == []
    result["outputs"][0] = result["outputs"][0].replace("residual=", "residual=1")
    assert workloads.check_verify(argv, result)


def test_gate_rejects_a_wrong_query_answer():
    queries = workloads.make_queries(3, 4)
    result = workloads.run("queries", {"queries": queries}, workloads.CaseClock())
    assert workloads.check_queries(queries, result) == []
    result["outputs"][0] = result["outputs"][-1]
    assert workloads.check_queries(queries, result)


def test_tracer_rebinds_names_imported_across_modules():
    script = (
        "import sys; sys.path[:0] = ['src', 'bench']\n"
        "import tracer\n"
        "from qweyl import cli, coeff, gauss, haar, parser, uq, weyl\n"
        "tracer.Recorder().install({'coeff': coeff, 'weyl': weyl, 'uq': uq,"
        " 'gauss': gauss, 'haar': haar, 'parser': parser, 'cli': cli})\n"
        "assert haar.apply_ops is gauss.apply_ops\n"
        "assert haar.apply_ops.__wrapped__\n"
        "assert weyl.q_power is coeff.q_power and weyl.q_power.__wrapped__\n"
        "assert cli._RUNNERS['pointwise'] is cli.run_pointwise\n"
        "assert cli.run_pointwise.__wrapped__\n"
        "assert coeff.ScalarValue.__mul__.__wrapped__\n"
        "assert weyl.AlgebraElement.zero(1).__class__ is weyl.AlgebraElement\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, cwd=ROOT, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_layer_map_covers_every_layer_metric():
    layer_map = json.loads((BENCH / "layer_map.json").read_text(encoding="utf-8"))
    assert set(layer_map["moves"]) == {m["name"] for m in SPEC["per_layer"]}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "queries", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
