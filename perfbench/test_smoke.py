"""Quick self-test of the benchmark: each workload once at reduced size.

    python3 -m pytest perfbench/test_smoke.py -q

Checks that every metric BENCHMARK.json names is emitted with its unit,
that no operation fails, that the environment record is complete, and that
the benchmark refuses to produce a result without the echoqram sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402


def bench(cwd: Path, workload: str, trace: int, *extra: str):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "0", "--seconds", "1", "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_emits_every_metric(workload, trace):
    out = bench(ROOT, workload, trace, "--smoke")
    assert out.returncode == 0, out.stderr
    *_, report_line, result_line = out.stdout.strip().splitlines()
    report, result = json.loads(report_line), json.loads(result_line)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, report["failures"]
    assert result["attempted"] >= 1
    assert report["failed_frac"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    for key in ("nproc", "python", "numpy", "scipy", "threads", "git_commit",
                "src_sha256"):
        assert key in report["env"]
    assert report["seed"] == 0
    if trace == 1:
        assert report["probe_failures"] == []
    if trace == 0:
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in SPEC["end_to_end"])
        # scaled timings come with the raw ones and the kernel runs behind them
        assert {"setup_s", "wall_s", "op_p50_s", "op_p90_s"} <= set(report["raw"])
        assert report["kernel_runs"] >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_inputs_depend_only_on_seed(workload):
    w = workloads.WORKLOADS[workload]
    assert w.make_inputs(7, False) == w.make_inputs(7, False)
    assert w.make_inputs(7, False) != w.make_inputs(8, False)


def test_seed_zero_is_the_committed_input():
    text, committed = workloads.WORKLOADS["echo_sweep"].make_inputs(0, False)
    assert committed and text == (ROOT / "configs" / "echo_sweep_t2.json").read_text()
    for name, _, text in workloads.WORKLOADS["cli_configs"].make_inputs(0, False):
        assert text == (ROOT / "configs" / f"{name}.json").read_text()


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    for workload in WORKLOADS:
        out = bench(tmp_path, workload, 0)
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
