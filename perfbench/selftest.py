"""The benchmark's own tests, at tiny input sizes.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection; they start subprocesses and measure nothing about repfit.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import LAYERS, ROOT as ROOT_SPAN, Recorder, layer_of  # noqa: E402


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_every_workload_runs_end_to_end(name, trace):
    proc = _run("--workload", name, "--seed", "3", "--seconds", "0.3",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 3
    declared = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0


def test_inputs_depend_only_on_seed(tmp_path):
    first, second, other = (tmp_path / d for d in ("a", "b", "c"))
    for directory in (first, second, other):
        directory.mkdir()
    sha = [inputs.generate("corpus-pipeline", seed, str(d), "tiny")["sha256"]
           for seed, d in ((5, first), (5, second), (6, other))]
    assert sha[0] == sha[1] != sha[2]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "calibration", "--seed", "1", "--seconds", "0.3",
                "--trace", "0", "--size", "tiny", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _workload(name, tmp_path):
    manifest = inputs.generate(name, 11, str(tmp_path), "tiny")
    workload = workloads.WORKLOADS[name](manifest, str(tmp_path))
    workload.setup()
    return workload


def _rewrite(path, change):
    with open(path) as handle:
        doc = json.load(handle)
    change(doc)
    with open(path, "w") as handle:
        json.dump(doc, handle)


def _bump_m1(doc):
    doc["M"][0] += 1


def _negative_n1(doc):
    doc["Nr"][0] = -1


def _bump_total_cards(doc):
    doc["total_cards"] += 1


@pytest.mark.parametrize("corrupt", [_bump_m1, _negative_n1, _bump_total_cards])
def test_corpus_pipeline_check_rejects_corrupt_stats(tmp_path, corrupt):
    workload = _workload("corpus-pipeline", tmp_path)
    outputs = workload.run_pass()
    workload.check(outputs)
    _rewrite(outputs["stats"], corrupt)
    with pytest.raises(workloads.CheckFailed):
        workload.check(outputs)


def _drop_from_bin(doc):
    doc["bins"][0]["n_total"] -= 1


def _move_right_label(doc):
    doc["totals"]["n_right"] += 1


def _posterior_above_one(doc):
    doc["bins"][-1]["mean_posterior"] = 1.5


def _posterior_nan(doc):
    doc["bins"][0]["mean_posterior"] = float("nan")


@pytest.mark.parametrize("corrupt", [_drop_from_bin, _move_right_label,
                                     _posterior_above_one, _posterior_nan])
def test_calibration_check_rejects_corrupt_report(tmp_path, corrupt):
    workload = _workload("calibration", tmp_path)
    outputs = workload.run_pass()
    workload.check(outputs)
    _rewrite(outputs["report"], corrupt)
    with pytest.raises(workloads.CheckFailed):
        workload.check(outputs)


def test_fit_scoring_check_rejects_wrong_log_odds(tmp_path):
    workload = _workload("fit-scoring", tmp_path)
    outputs = workload.run_pass()
    workload.check(outputs)
    figure, prior, score = outputs["fits"][workload.check_every]
    outputs["fits"][workload.check_every] = (
        figure, prior, dataclasses.replace(score, log_odds=score.log_odds + 1e-6))
    with pytest.raises(workloads.CheckFailed):
        workload.check(outputs)


def test_fit_scoring_check_rejects_missing_figure(tmp_path):
    workload = _workload("fit-scoring", tmp_path)
    outputs = workload.run_pass()
    _rewrite(outputs["sample"], lambda doc: doc["figures"].pop())
    with pytest.raises(workloads.CheckFailed):
        workload.check(outputs)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_sum_to_traced_pass(tmp_path, name):
    workload = _workload(name, tmp_path)
    recorder = Recorder()
    with recorder.traced_pass(workloads.patches()):
        workload.run_pass()
    (summary,) = recorder.pass_summaries()
    assert set(map(layer_of, summary["self_s"])) <= set(LAYERS)
    assert summary["pass_s"] == pytest.approx(summary["inclusive_s"][ROOT_SPAN])
    assert sum(summary["self_s"].values()) == pytest.approx(summary["pass_s"], rel=1e-9)
    assert all(v >= 0 for v in summary["self_s"].values())
    # Patches are removed after the pass.
    assert workloads.repfit.cli.compute_statistics is workloads.repfit.corpus.compute_statistics


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reported_self_times_account_for_traced_pass(tmp_path, name):
    workload = _workload(name, tmp_path)
    recorder = Recorder()
    for measure_memory in (True, False, False):
        recorder.measure_memory = measure_memory
        with recorder.traced_pass(workloads.patches()):
            workload.run_pass()
    metrics = run.per_layer({"summaries": recorder.pass_summaries(), "pass_s": [1.0],
                             "expected_accept": 0.0})
    parts = [f"{layer}.self_s" for layer in LAYERS] + ["cli.normalize_s"]
    total = sum(metrics[p]["value"] for p in parts)
    assert total == pytest.approx(metrics["trace.pass_s"]["value"], rel=1e-9)
