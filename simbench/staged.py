"""The ``repro simulate --telemetry`` path, split into timed stages.

:func:`run_staged` calls the same public functions ``cmd_simulate`` calls
for a sharded run, in the same order, so the snapshot it writes is the
one a user gets from the matching command line (the tests compare the
bytes).  It splits the path into the three stages the benchmark reports:

* setup: the execution profile and partitioner, then, on a cold run,
  predictor and estimator training;
* simulate: ``run_large_scale_sharded`` (plan, shards, merge).  On a warm
  run it is handed the model-cache directory, as ``--model-cache`` does,
  so the fingerprint, cache load and unpickle happen inside it;
* export: ``Telemetry.write``.

Every layer entry point is looked up through its module or class at call
time, so the wrappers :mod:`spans` installs see the calls.
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import PerDNNConfig
from repro.core.master import MigrationPolicy
from repro.dnn.models import build_model
from repro.faults import get_profile
from repro.overload import OverloadConfig, SheddingPolicy
from repro.partitioning.partitioner import DNNPartitioner
from repro.profiling.hardware import odroid_xu4, titan_xp_server
from repro.profiling.profiler import ExecutionProfile
from repro.simulation import checkpoint, large_scale, sharding
from repro.simulation.supervisor import SupervisorConfig
from repro.trajectories.synthetic import geolife_like, kaist_like

RADIUS_M = 100.0
#: ``--queue-capacity`` of the workloads with an overload policy.
QUEUE_CAPACITY = 8


@dataclass(frozen=True)
class Workload:
    """One ``repro simulate`` configuration, by its command-line flags."""

    name: str
    dataset: str  # kaist | geolife
    model: str
    users: int
    dataset_steps: int
    steps: int
    shard_size: int
    workers: int
    model_cache: bool = False
    faults: str = "none"
    overload: str = "off"
    checkpoint: bool = False

    def cli_args(self, seed: int) -> list[str]:
        """The ``repro simulate`` flags that run this workload."""
        args = [
            "simulate", "--dataset", self.dataset, "--model", self.model,
            "--policy", "perdnn", "--radius", str(RADIUS_M),
            "--users", str(self.users),
            "--dataset-steps", str(self.dataset_steps),
            "--steps", str(self.steps), "--seed", str(seed),
            "--shard-size", str(self.shard_size),
            "--workers", str(self.workers),
        ]
        if self.faults != "none":
            args += ["--faults", self.faults]
        if self.overload != "off":
            args += ["--overload", self.overload,
                     "--queue-capacity", str(QUEUE_CAPACITY)]
        return args


#: The paper's two Fig 9 configurations, scaled so that 22 runs of each
#: workload fit in an hour on two cores.  Why each exists is recorded in
#: BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="geolife-inception-cold",
            dataset="geolife", model="inception", users=80,
            dataset_steps=300, steps=20, shard_size=256, workers=1,
        ),
        Workload(
            name="kaist-mobilenet-warm",
            dataset="kaist", model="mobilenet", users=300,
            dataset_steps=100, steps=40, shard_size=256, workers=1,
            model_cache=True,
        ),
        Workload(
            name="kaist-flashcrowd-ckpt",
            dataset="kaist", model="mobilenet", users=300,
            dataset_steps=100, steps=40, shard_size=64, workers=2,
            model_cache=True, faults="flash-crowd", overload="redirect",
            checkpoint=True,
        ),
    )
}


def make_dataset(workload: Workload, seed: int):
    """The synthetic traces ``repro simulate`` generates for ``seed``."""
    rng = np.random.default_rng(seed)
    if workload.dataset == "kaist":
        return kaist_like(
            rng, num_users=workload.users,
            duration_steps=workload.dataset_steps,
        )
    return geolife_like(
        rng, num_users=workload.users, duration_steps=workload.dataset_steps
    ).subsample(4)


def make_config() -> PerDNNConfig:
    return PerDNNConfig(migration_radius_m=RADIUS_M, handover_hysteresis_m=0.0)


def make_settings(workload: Workload, seed: int):
    overload = None
    if workload.overload != "off":
        overload = OverloadConfig(
            policy=SheddingPolicy(workload.overload),
            queue_capacity=QUEUE_CAPACITY,
        )
    return large_scale.SimulationSettings(
        policy=MigrationPolicy.PERDNN,
        migration_radius_m=RADIUS_M,
        max_steps=workload.steps,
        seed=seed,
        faults=get_profile(workload.faults),
        overload=overload,
    )


def make_partitioner(model: str, config: PerDNNConfig) -> DNNPartitioner:
    profile = ExecutionProfile.build(
        build_model(model), odroid_xu4(), titan_xp_server()
    )
    return DNNPartitioner(
        profile, config.network.uplink_bps, config.network.downlink_bps
    )


def train_models(dataset, settings, config, partitioner):
    """Predictor then estimator, from one rng: the order sharding uses."""
    rng = np.random.default_rng(settings.seed)
    train, _ = dataset.split_time(settings.replay_fraction)
    predictor = large_scale.train_default_predictor(
        train, config.prediction_history, rng
    )
    estimator = large_scale.train_default_estimator(partitioner, rng)
    return predictor, estimator


def fill_model_cache(workload: Workload, dataset, seed: int, cache_dir) -> str:
    """Train once and store the blob ``--model-cache`` would store, under
    the key ``run_large_scale_sharded`` looks up."""
    config = make_config()
    settings = make_settings(workload, seed)
    partitioner = make_partitioner(workload.model, config)
    cache = checkpoint.ModelCache(cache_dir)
    key = checkpoint.model_fingerprint(
        dataset, settings, config, [partitioner.graph.name]
    )
    if cache.load(key) is None:
        cache.prepare()
        models = train_models(dataset, settings, config, partitioner)
        cache.store(key, pickle.dumps(models))
    return key


def snapshot_meta(workload: Workload, seed: int) -> dict:
    """The ``meta`` block ``cmd_simulate`` writes for this workload."""
    meta = {
        "command": "simulate",
        "dataset": workload.dataset,
        "model": workload.model,
        "policy": "perdnn",
        "seed": seed,
    }
    if workload.faults != "none":
        meta["faults"] = workload.faults
    if workload.overload != "off":
        meta["overload"] = workload.overload
    meta["shard_size"] = workload.shard_size
    return meta


def run_staged(
    workload: Workload,
    dataset,
    seed: int,
    snapshot_path: str,
    cache_dir: str | None = None,
    checkpoint_dir: str | None = None,
    workers: int | None = None,
) -> dict:
    """Run the simulate path on in-memory ``dataset``; return its timings
    and the result.  ``workers`` overrides the workload's worker count
    (the traced run uses one process so every span is seen)."""
    start = time.perf_counter()
    config = make_config()
    settings = make_settings(workload, seed)
    partitioner = make_partitioner(workload.model, config)
    predictor = estimator = None
    if not workload.model_cache:
        predictor, estimator = train_models(
            dataset, settings, config, partitioner
        )
    setup_end = time.perf_counter()
    result = sharding.run_large_scale_sharded(
        dataset,
        partitioner,
        settings,
        config=config,
        shard_size=workload.shard_size,
        workers=workers or workload.workers,
        predictor=predictor,
        contention_estimator=estimator,
        supervision=SupervisorConfig(),
        checkpoint_dir=checkpoint_dir,
        model_cache_dir=cache_dir if workload.model_cache else None,
    )
    simulate_end = time.perf_counter()
    result.telemetry.write(snapshot_path, meta=snapshot_meta(workload, seed))
    return {
        "wall_s": time.perf_counter() - start,
        "setup_s": setup_end - start,
        "simulate_s": simulate_end - setup_end,
        "result": result,
    }


def check_output(workload: Workload, result) -> list[str]:
    """Invariants every run must satisfy; returns the violated ones."""
    problems = []
    registry = result.telemetry.registry
    completed = registry.value("query.completed")
    per_model = sum(value for _, value in registry.series("sim.queries"))
    if completed != per_model:
        problems.append(
            f"query.completed {completed} != sum of sim.queries {per_model}"
        )
    offered = registry.value("overload.offered")
    outcomes = sum(
        registry.value(f"overload.{name}")
        for name in ("admitted", "shed", "redirected", "degraded")
    )
    if offered != outcomes:
        problems.append(
            f"overload offered {offered} != admitted+shed+redirected+"
            f"degraded {outcomes}"
        )
    info = result.extras["sharding"]
    if info["failed_shards"] or info["shards"] != info["planned_shards"]:
        problems.append(
            f"shards merged {info['shards']} of {info['planned_shards']}, "
            f"quarantined {info['failed_shards']}"
        )
    if workload.faults == "none":
        if result.availability != 1.0:
            problems.append(f"availability {result.availability} without faults")
        if any(m.name.startswith("fault.") for m in registry.metrics()):
            problems.append("fault counters present without faults")
    if result.num_clients < 1 or completed < 1:
        problems.append("no clients or no queries simulated")
    return problems


def simulated_stats(result) -> dict:
    """Simulated outcomes, recorded per run (no better/worse direction)."""
    return {
        "hit_ratio": result.hit_ratio,
        "coldstart_queries": result.coldstart_queries,
        "backhaul_peak_mbps": result.uplink.peak_mbps,
        "servers": result.num_servers,
        "clients": result.num_clients,
        "steps": result.steps,
    }
