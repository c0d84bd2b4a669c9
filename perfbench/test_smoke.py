"""Smoke test of the benchmark's own code.

Every workload runs at toy size for one epoch, untraced and traced, and
must emit every metric BENCHMARK.json names with no failed check.

    PYTHONPATH=src python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, workloads
from perfbench.spans import PER_LAYER

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TOY_NETWORK = workloads.ClusteredSpec(
    n_drugs=60, n_clusters=3, n_proteins=30, n_side_effects=40, n_ddi=300,
    n_dpi=70, n_drug_side_effect=400, n_ppi=30, ddi_within=0.85,
    se_random=2, fp_cluster_on=5, fp_random_on=3, motifs_per_drug=4)


def toy(w: workloads.Workload) -> workloads.Workload:
    return dataclasses.replace(
        w, epochs=1, auroc_epochs=None, setups=2,
        min_test_auroc=None, clustered=TOY_NETWORK if w.clustered else None)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_every_named_metric_is_emitted(name, trace, tmp_path):
    values, checks, samples = bench.run(toy(workloads.WORKLOADS[name]), seed=0,
                                        trace=trace, work_dir=tmp_path)
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(values) == sorted(m["name"] for m in wanted)
    assert checks.failures == []
    assert checks.attempted > 0
    assert samples["train"] >= 1
    assert (tmp_path / "traces").is_dir()


def test_every_workload_and_per_layer_metric_is_defined():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert sorted(m["name"] for m in SPEC["per_layer"]) == sorted(PER_LAYER)


def test_paper_workload_has_the_published_counts():
    assert workloads.PAPER_SPEC.counts() == workloads.PAPER_COUNTS


def test_same_seed_gives_same_inputs():
    a = workloads.generate_clustered(TOY_NETWORK, seed=4)
    assert a == workloads.generate_clustered(TOY_NETWORK, seed=4)
    assert a != workloads.generate_clustered(TOY_NETWORK, seed=5)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "planted-50",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
