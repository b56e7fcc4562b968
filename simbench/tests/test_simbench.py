"""The benchmark times the path users run, and its work counts repeat.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest simbench/tests -q
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SIMBENCH = os.path.dirname(HERE)
sys.path[:0] = [SIMBENCH, os.path.join(os.path.dirname(SIMBENCH), "src")]

import run  # noqa: E402
import staged  # noqa: E402
from spans import TARGETS, Tracer  # noqa: E402

from repro.cli import main as cli_main  # noqa: E402

SEED = 3
TINY = {"users": 24, "dataset_steps": 60, "steps": 8}


def tiny(name: str) -> staged.Workload:
    workload = staged.WORKLOADS[name]
    shard_size = min(workload.shard_size, 8)
    return replace(workload, shard_size=shard_size, **TINY)


def staged_bytes(workload, tmp_path, workers=None) -> bytes:
    dataset = staged.make_dataset(workload, SEED)
    cache_dir = str(tmp_path / "cache")
    if workload.model_cache:
        staged.fill_model_cache(workload, dataset, SEED, cache_dir)
    checkpoint_dir = str(tmp_path / "ckpt-staged") if workload.checkpoint else None
    path = str(tmp_path / "staged.json")
    staged.run_staged(
        workload, dataset, SEED, path, cache_dir, checkpoint_dir, workers
    )
    with open(path, "rb") as handle:
        return handle.read()


def cli_bytes(workload, tmp_path, tag, model_cache=None) -> bytes:
    path = str(tmp_path / f"cli-{tag}.json")
    args = workload.cli_args(SEED) + ["--telemetry", path]
    if model_cache is not None:
        args += ["--model-cache", model_cache]
    if workload.checkpoint:
        args += ["--checkpoint-dir", str(tmp_path / f"ckpt-{tag}")]
    assert cli_main(args) == 0
    with open(path, "rb") as handle:
        return handle.read()


@pytest.mark.parametrize("name", sorted(staged.WORKLOADS))
def test_staged_path_writes_the_cli_snapshot(name, tmp_path):
    workload = tiny(name)
    expected = staged_bytes(workload, tmp_path)
    # The CLI training its own models, and the CLI reading the cache the
    # benchmark filled, both write the staged bytes.
    assert cli_bytes(workload, tmp_path, "trained") == expected
    if workload.model_cache:
        cache_dir = tmp_path / "cache"
        entries = sorted(os.listdir(cache_dir))
        cached = cli_bytes(workload, tmp_path, "cached", str(cache_dir))
        assert cached == expected
        # A hit: the CLI found the benchmark's entry and stored nothing.
        assert sorted(os.listdir(cache_dir)) == entries


def test_traced_run_at_one_worker_writes_the_same_bytes(tmp_path):
    workload = tiny("kaist-flashcrowd-ckpt")
    untraced = staged_bytes(workload, tmp_path / "a")
    with Tracer():
        traced = staged_bytes(workload, tmp_path / "b", workers=1)
    assert traced == untraced


def traced_counts(workload, tmp_path) -> dict:
    cache_dir = str(tmp_path / "cache")
    if workload.model_cache:
        staged.fill_model_cache(
            workload, staged.make_dataset(workload, SEED), SEED, cache_dir
        )
    out = run.one_run(workload, SEED, str(tmp_path), cache_dir, True, 1)
    assert out["problems"] == []
    return out


@pytest.mark.parametrize("name", sorted(staged.WORKLOADS))
def test_work_counts_repeat_exactly(name, tmp_path):
    workload = tiny(name)
    first = traced_counts(workload, tmp_path / "first")
    second = traced_counts(workload, tmp_path / "second")
    assert run.work_counts(first) == run.work_counts(second)
    assert first["digest"] == second["digest"]
    assert set(run.work_counts(first)) >= {
        "ml.adam_steps", "partitioning.partition_calls",
        "partitioning.cache_misses", "master.migrate_calls",
        "migration.count", "migration.bytes", "master.gpu_pings",
        "query.windows", "sharding.shards", "geo.servers",
        "checkpoint.bytes", "telemetry.snapshot_bytes", "telemetry.events",
    }


def test_warm_workload_runs_no_training_span(tmp_path):
    out = traced_counts(tiny("kaist-mobilenet-warm"), tmp_path)
    for span in ("mobility.svr_fit", "ml.adam_step", "estimation.train"):
        assert out["spans"][span]["calls"] == 0
    assert out["spans"]["checkpoint.model_cache_load"]["calls"] == 2


def test_cold_workload_trains_and_spans_account_for_the_wall(tmp_path):
    out = traced_counts(tiny("geolife-inception-cold"), tmp_path)
    spans = out["spans"]
    assert spans["mobility.svr_fit"]["calls"] == 1
    assert spans["ml.adam_step"]["calls"] > 0
    assert spans["estimation.train"]["calls"] == 1
    unattributed = run.layer_metrics(out)["trace.unattributed_s"]
    assert 0.0 <= unattributed < out["wall_s"]


def test_timed_run_reports_reference_seconds(tmp_path):
    workload = tiny("kaist-flashcrowd-ckpt")
    cache_dir = str(tmp_path / "cache")
    run.in_child(run.fill_cache, workload, [SEED], cache_dir)
    out = run.timed_run(workload, SEED, str(tmp_path), cache_dir, False, 2)
    assert out["problems"] == []
    scale = out["host_scale"]
    assert scale > 0
    assert out["wall_s"] == pytest.approx(out["raw_wall_s"] * scale)
    assert out["client_steps_per_s"] == pytest.approx(
        out["client_steps"] / out["simulate_s"]
    )
    assert out["setup_s"] < out["simulate_s"] < out["wall_s"]


def test_seed_median_weighs_trace_seeds_equally():
    assert run.run_seeds(2) == [8, 9, 10, 11]
    runs = [{"seed": 8, "x": v} for v in (1.0, 1.0, 1.0, 9.0)]
    runs += [{"seed": 9, "x": 2.0}, {"seed": 10, "x": 3.0}]
    assert run.seed_median(runs, lambda r: r["x"]) == 2.0


def test_tracer_restores_every_entry_point():
    before = [vars(owner)[attribute] for owner, attribute, _ in TARGETS]
    with Tracer():
        wrapped = [vars(owner)[attribute] for owner, attribute, _ in TARGETS]
    after = [vars(owner)[attribute] for owner, attribute, _ in TARGETS]
    assert after == before
    assert all(w is not b for w, b in zip(wrapped, before))
