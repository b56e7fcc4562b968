"""End-to-end benchmark of ``repro simulate --telemetry`` on the paper's
two Fig 9 configurations.

Run from the root of a checkout::

    python3 simbench/run.py --workload kaist-mobilenet-warm --seed 1 \\
        --seconds 30 --trace 0
    python3 simbench/run.py --workload all --seed 1 --seconds 30

``--seed N`` stands for the four trace seeds 4N .. 4N+3 (``run_seeds``):
the work of one seed's traces differs from another's by up to a third,
and a run over four of them is steadier.  A run cycles through them for
about ``--seconds`` seconds, one forked child per repetition, which
generates its seed's synthetic traces (not timed) and then runs the
staged simulate path.  The host-speed reference (``reference.py``) is
timed just before and just after each child, and every time is reported
in reference seconds.  A metric is the median over the trace seeds of
each seed's median.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced runs (workers 1) and
reports the per-layer metrics.
Every run checks its own output; the last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--workload all`` prints both reports for every workload.
See README.md next to this file for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import multiprocessing
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Trace seeds per ``--seed``.
SUBSEEDS = 4


def run_seeds(seed: int) -> list[int]:
    """The ``repro simulate --seed`` values one benchmark seed stands for."""
    return [seed * SUBSEEDS + k for k in range(SUBSEEDS)]


# ----------------------------------------------------------------------
# Forked measurement
# ----------------------------------------------------------------------
# ``repro.bench._measure_in_child`` does the same fork + peak-RSS
# measurement.  The benchmark keeps its own copy on purpose: it compares
# a commit with its parent, so how it measures must not change when a
# commit changes the measured package.


def _child_main(conn, function, args) -> None:
    import resource

    try:
        payload = function(*args)
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        payload["peak_rss_mb"] = max(own, children) / 1024.0
    except Exception:  # noqa: BLE001 - reported to the parent as a failed run
        payload = {"error": traceback.format_exc()}
    conn.send(payload)
    conn.close()


def in_child(function, *args) -> dict:
    """Run ``function(*args)`` in a forked child and return its dict.

    A fresh process per run gives each its own peak-RSS mark, and no run
    inherits caches or heap growth from an earlier one.  The parent holds
    no simulation state: each child builds its own inputs, so it does not
    pay copy-on-write faults on pages it inherited.
    """
    return finish_child(*start_child(function, *args))


def start_child(function, *args):
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    process = context.Process(target=_child_main, args=(sender, function, args))
    process.start()
    sender.close()
    return process, receiver


def finish_child(process, receiver) -> dict:
    try:
        payload = receiver.recv()
    except EOFError:
        payload = {"error": f"run process died (exit {process.exitcode})"}
    finally:
        process.join()
        receiver.close()
    return payload


def one_run(workload, seed, run_dir, cache_dir, traced, workers):
    """One staged simulate run plus its output check (in the child).

    The traces are generated first, before the clock starts."""
    import staged
    from spans import Tracer

    dataset = staged.make_dataset(workload, seed)
    snapshot = os.path.join(run_dir, f"run-{os.getpid()}.telemetry.json")
    checkpoint_dir = None
    if workload.checkpoint:
        checkpoint_dir = os.path.join(run_dir, f"ckpt-{os.getpid()}")
    cached = cache_entries(cache_dir) if workload.model_cache else None
    tracer = Tracer() if traced else contextlib.nullcontext()
    try:
        with tracer:
            timings = staged.run_staged(
                workload, dataset, seed, snapshot, cache_dir, checkpoint_dir,
                workers,
            )
        result = timings.pop("result")
        registry = result.telemetry.registry
        info = result.extras["sharding"]
        out = dict(timings)
        out["client_steps"] = result.num_clients * result.steps
        out["digest"] = file_digest(snapshot)
        out["problems"] = staged.check_output(workload, result)
        if cached is not None and cache_entries(cache_dir) != cached:
            out["problems"].append("model cache miss: the run trained")
        out["stats"] = staged.simulated_stats(result)
        out["counters"] = {
            "partitioning.cache_misses": (
                result.extras["partition_cache"]["misses"]
            ),
            "migration.count": int(registry.value("migration.count")),
            "migration.bytes": registry.value("migration.bytes"),
            "master.gpu_pings": int(registry.value("master.gpu_pings")),
            "query.windows": int(registry.value("query.windows")),
            "sharding.shards": info["shards"],
            "geo.servers": result.num_servers,
            "checkpoint.bytes": (
                tree_bytes(checkpoint_dir) if checkpoint_dir else 0
            ),
            "telemetry.snapshot_bytes": os.path.getsize(snapshot),
            "telemetry.events": len(result.telemetry.trace),
            "supervisor.attempts": (
                info["planned_shards"] - len(info["resumed_shards"])
                + info["retries"]
            ),
            "supervisor.retries": info["retries"],
        }
        if traced:
            out["spans"] = tracer.table()
            out["traced_self_s"] = tracer.self_seconds()
        return out
    finally:
        if os.path.exists(snapshot):
            os.remove(snapshot)
        if checkpoint_dir is not None:
            shutil.rmtree(checkpoint_dir, ignore_errors=True)


def reference_samples() -> dict:
    import reference

    return {"samples": reference.samples()}


def host_samples(workers: int) -> dict:
    """Reference samples from ``workers`` forked children at once, so the
    kernel uses as many vCPUs as the run does.  Their memory stays out of
    this process and of the run's peak RSS."""
    children = [start_child(reference_samples) for _ in range(workers)]
    payloads = [finish_child(*child) for child in children]
    for payload in payloads:
        if "error" in payload:
            return payload
    return {"samples": [t for payload in payloads for t in payload["samples"]]}


def timed_run(workload, seed, run_dir, cache_dir, traced, workers) -> dict:
    """``one_run`` in a forked child, its times in reference seconds.

    The reference kernel is timed just before and just after, at the
    run's worker count.  ``raw_wall_s`` keeps the host's own wall."""
    import reference

    before = host_samples(workers)
    run = in_child(
        one_run, workload, seed, run_dir, cache_dir, traced, workers,
    )
    after = host_samples(workers)
    if "error" in run:
        return run
    for samples in (before, after):
        if "error" in samples:
            return samples
    scale = reference.scale(before["samples"], after["samples"])
    run["raw_wall_s"] = run["wall_s"]
    run["host_scale"] = scale
    for name in ("wall_s", "setup_s", "simulate_s", "traced_self_s"):
        if name in run:
            run[name] *= scale
    for stats in run.get("spans", {}).values():
        for field in ("total_s", "self_s", "max_s"):
            stats[field] *= scale
    run["client_steps_per_s"] = run["client_steps"] / run["simulate_s"]
    return run


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def cache_entries(directory: str) -> list[str]:
    return sorted(os.listdir(directory)) if os.path.isdir(directory) else []


def tree_bytes(directory: str) -> int:
    """Total size of the regular files under ``directory``."""
    total = 0
    for root, _, files in os.walk(directory):
        total += sum(os.path.getsize(os.path.join(root, f)) for f in files)
    return total


def fill_cache(workload, seeds, cache_dir) -> dict:
    import staged

    start = time.perf_counter()
    for seed in seeds:
        dataset = staged.make_dataset(workload, seed)
        staged.fill_model_cache(workload, dataset, seed, cache_dir)
    return {"seconds": time.perf_counter() - start}


def source_digest() -> str:
    """Digest of the package source, so a model cache filled by other
    code is never read."""
    hasher = hashlib.sha256()
    package = os.path.join(SRC, "repro")
    for root, dirs, files in os.walk(package):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(root, name)
                hasher.update(os.path.relpath(path, package).encode())
                with open(path, "rb") as handle:
                    hasher.update(handle.read())
    return hasher.hexdigest()[:16]


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("client_steps_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)

#: Span-derived per-layer metrics: (metric, span, field).
SPAN_METRICS = (
    ("mobility.svr_fit_s", "mobility.svr_fit", "total_s", "s"),
    ("ml.adam_step_s", "ml.adam_step", "self_s", "s"),
    ("ml.adam_steps", "ml.adam_step", "calls", "count"),
    ("estimation.train_s", "estimation.train", "total_s", "s"),
    ("checkpoint.model_cache_load_s", "checkpoint.model_cache_load",
     "total_s", "s"),
    ("checkpoint.write_s", "checkpoint.write", "total_s", "s"),
    ("checkpoint.load_s", "checkpoint.load", "total_s", "s"),
    ("sharding.plan_s", "sharding.plan", "total_s", "s"),
    ("sharding.driver_self_s", "sharding.driver", "self_s", "s"),
    ("large_scale.run_s", "large_scale.run", "total_s", "s"),
    ("large_scale.self_s", "large_scale.run", "self_s", "s"),
    ("large_scale.shard_max_s", "large_scale.run", "max_s", "s"),
    ("vectorized.associate_s", "vectorized.associate", "total_s", "s"),
    ("master.migrate_s", "master.migrate", "total_s", "s"),
    ("master.migrate_calls", "master.migrate", "calls", "count"),
    ("master.estimate_s", "master.estimate", "total_s", "s"),
    ("master.expire_s", "master.expire", "total_s", "s"),
    ("partitioning.partition_s", "partitioning.partition", "total_s", "s"),
    ("partitioning.partition_calls", "partitioning.partition", "calls",
     "count"),
    ("geo.registry_build_s", "geo.registry_build", "total_s", "s"),
    ("telemetry.export_s", "telemetry.export", "total_s", "s"),
)

#: Units of the per-layer metrics that are not span times or counts.
UNITS = {
    "checkpoint.bytes": "bytes",
    "migration.bytes": "bytes",
    "telemetry.snapshot_bytes": "bytes",
    "trace.unattributed_s": "s",
    "trace.overhead_fraction": "fraction",
}
UNITS.update({metric: unit for metric, _, _, unit in SPAN_METRICS})


def layer_metrics(run: dict) -> dict:
    """Per-layer metrics of one traced run (overhead aside)."""
    values = {
        metric: run["spans"][span][field]
        for metric, span, field, _ in SPAN_METRICS
    }
    values.update(run["counters"])
    values["trace.unattributed_s"] = run["wall_s"] - run["traced_self_s"]
    return values


def work_counts(run: dict) -> dict:
    """The deterministic counts of a traced run: everything but times."""
    return {
        name: value
        for name, value in layer_metrics(run).items()
        if UNITS.get(name, "count") != "s"
    }


def measure(workload, seeds, seconds, traced_mode, run_dir, cache_dir):
    """Repeat forked runs for about ``seconds``, cycling through ``seeds``.

    A step is one run, or in trace mode an untraced run then a traced
    one, both at one worker.  Every seed gets one step; after that a new
    step starts only while the longest step so far still fits in
    ``seconds``.  Returns the runs that passed every check, the failure
    reasons (one per failed run) and the number of runs made.
    """
    modes = [(False,), (False, True)][traced_mode]
    workers = 1 if traced_mode else workload.workers
    runs, failures = [], []
    started = time.perf_counter()
    longest = 0.0
    done = 0
    while (
        done < len(seeds)
        or time.perf_counter() - started + longest <= seconds
    ):
        begin = time.perf_counter()
        seed = seeds[done % len(seeds)]
        for traced in modes:
            run = timed_run(
                workload, seed, run_dir, cache_dir, traced, workers,
            )
            run.update(traced=traced, step=done, seed=seed)
            failure = check_run(run, runs)
            if failure:
                failures.append(failure)
            else:
                runs.append(run)
        longest = max(longest, time.perf_counter() - begin)
        done += 1
    return runs, failures, done * len(modes)


def seed_median(runs, value) -> float:
    """Median over trace seeds of each seed's median ``value(run)``.

    Seeds get one run more or less each as time allows; taking each
    seed's median first weighs them equally."""
    by_seed: dict[int, list[float]] = {}
    for run in runs:
        by_seed.setdefault(run["seed"], []).append(value(run))
    return statistics.median(
        statistics.median(values) for values in by_seed.values()
    )


def check_run(run: dict, passed: list) -> str | None:
    """Why ``run`` failed, or None.  Beyond its own output check, every
    run of one trace seed must write the snapshot bytes of that seed's
    first run, and every traced run must repeat the work counts of that
    seed's first traced run."""
    if "error" in run:
        print(run["error"], file=sys.stderr)
        return run["error"].strip().splitlines()[-1]
    if run["problems"]:
        return "; ".join(run["problems"])
    same = [earlier for earlier in passed if earlier["seed"] == run["seed"]]
    if same and run["digest"] != same[0]["digest"]:
        return (f"seed {run['seed']}: snapshot digest {run['digest']} != "
                f"{same[0]['digest']}")
    traced = [earlier for earlier in same if earlier["traced"]]
    if run["traced"] and traced and work_counts(run) != work_counts(traced[0]):
        return f"seed {run['seed']}: work counts differ from its first traced run"
    return None


def end_to_end_report(workload, runs) -> dict:
    """End-to-end metrics over untraced runs (``seed_median``), printed
    with the quartiles of all runs."""
    metrics = {}
    seeds = sorted({run["seed"] for run in runs})
    print(f"{workload.name}: {len(runs)} runs on trace seeds {seeds} at "
          f"workers {workload.workers}; times in reference seconds")
    print(f"  {'metric':<20s} {'median':>12s} {'q1':>12s} {'q3':>12s}")
    for name, unit in END_TO_END:
        values = [run[name] for run in runs]
        metrics[name] = {
            "value": seed_median(runs, lambda run: run[name]), "unit": unit,
        }
        q1, _, q3 = (
            statistics.quantiles(values, n=4, method="inclusive")
            if len(values) > 1 else values * 3
        )
        print(f"  {name:<20s} {metrics[name]['value']:12.4f} {q1:12.4f} "
              f"{q3:12.4f} {unit}")
    for name in ("seed", "wall_s", "setup_s", "client_steps_per_s",
                 "raw_wall_s", "host_scale"):
        print(f"  {name} per run: "
              + " ".join(f"{run[name]:.6g}" for run in runs))
    print("  simulated: " + ", ".join(
        f"{key} {value:.6g}" for key, value in runs[0]["stats"].items()
    ))
    return metrics


def layer_report(workload, pairs) -> dict:
    """Median per-layer metrics over (untraced, traced) pairs, printed
    with the span table."""
    traced = [run for _, run in pairs]
    per_run = [layer_metrics(run) for run in traced]
    metrics = {
        name: {"value": statistics.median_low(r[name] for r in per_run),
               "unit": UNITS.get(name, "count")}
        for name in per_run[0]
    }
    # Each traced run is compared with the untraced run just before it,
    # so a drift in host speed between pairs cancels.
    metrics["trace.overhead_fraction"] = {
        "value": statistics.median(
            run["wall_s"] / base["wall_s"] - 1.0 for base, run in pairs
        ),
        "unit": UNITS["trace.overhead_fraction"],
    }
    wall = statistics.median(run["wall_s"] for run in traced)
    seeds = sorted({run["seed"] for run in traced})
    print(f"{workload.name}: {len(pairs)} pairs of an untraced and a traced "
          f"run on trace seeds {seeds}, both at workers 1; traced wall "
          f"{wall:.4f} s (median, reference seconds)")
    print(f"  {'span':<30s} {'calls':>9s} {'total s':>9s} {'self s':>9s} "
          f"{'self %':>7s}")
    rows = []
    for span, stats in traced[0]["spans"].items():
        total = statistics.median(r["spans"][span]["total_s"] for r in traced)
        own = statistics.median(r["spans"][span]["self_s"] for r in traced)
        rows.append((own, span, stats["calls"], total))
    for own, span, calls, total in sorted(rows, reverse=True):
        print(f"  {span:<30s} {calls:>9d} {total:>9.3f} {own:>9.3f} "
              f"{100 * own / wall:>6.1f}%")
    own = metrics["trace.unattributed_s"]["value"]
    print(f"  {'(unattributed)':<30s} {'':>9s} {'':>9s} {own:>9.3f} "
          f"{100 * own / wall:>6.1f}%")
    for name in sorted(metrics):
        print(f"  {name:<32s} {metrics[name]['value']:16.6g} "
              f"{metrics[name]['unit']}")
    return metrics


def run_workload(workload, seed, seconds, traced_mode, run_dir, cache_dir):
    seeds = run_seeds(seed)
    if workload.model_cache:
        prelude = in_child(fill_cache, workload, seeds, cache_dir)
        if "error" in prelude:
            print(prelude["error"], file=sys.stderr)
            raise SystemExit(1)
        print(f"model-cache prelude (not timed): {prelude['seconds']:.2f} s")
    runs, failures, attempted = measure(
        workload, seeds, seconds, traced_mode, run_dir, cache_dir
    )
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    untraced = [run for run in runs if not run["traced"]]
    if traced_mode:
        baseline = {run["step"]: run for run in untraced}
        pairs = [
            (baseline[run["step"]], run)
            for run in runs if run["traced"] and run["step"] in baseline
        ]
    if not untraced or (traced_mode and not pairs):
        print("error: no passing run to report", file=sys.stderr)
        raise SystemExit(1)
    metrics = (
        layer_report(workload, pairs) if traced_mode
        else end_to_end_report(workload, untraced)
    )
    print(f"  error_rate {len(failures) / attempted:.4f} fraction "
          f"({len(failures)} failed of {attempted} attempted)")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro sources under {SRC}; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import staged

    workloads = staged.WORKLOADS
    if args.workload != "all" and args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{', '.join(workloads)}, all)", file=sys.stderr)
        return 2
    work_dir = os.path.join(ROOT, ".simbench")
    cache_dir = os.path.join(work_dir, "model-cache", source_digest())
    run_dir = os.path.join(work_dir, f"run-{os.getpid()}")
    os.makedirs(run_dir, exist_ok=True)
    try:
        if args.workload != "all":
            result = run_workload(
                workloads[args.workload], args.seed, args.seconds,
                bool(args.trace), run_dir, cache_dir,
            )
        else:
            result = {
                name: {
                    mode: run_workload(
                        workload, args.seed, args.seconds, mode == "trace",
                        run_dir, cache_dir,
                    )
                    for mode in ("end_to_end", "trace")
                }
                for name, workload in workloads.items()
            }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
