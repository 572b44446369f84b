"""One experiment of one workload, in a fresh interpreter.

``run.py`` starts this module once per experiment.  Interpreter start and
``import repro`` happen before the clock starts; the clock runs from the call
into ``run_experiment`` to its return.  A :class:`RoundClock` hook stamps each
round's start and end.  The result, written as JSON to ``--out``, holds the
stamps, the ledger's byte counts, the peak RSS, the digests the correctness
gate compares and, in ``traced`` mode, the per-layer totals.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import sys
import threading
import time

if __package__ in (None, ""):
    sys.path[0] = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

from perfbench import fingerprint, spans, workloads  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.federated.engine.hooks import RoundHook  # noqa: E402


class RoundClock(RoundHook):
    """Stamps ``on_round_start`` and ``on_round_end`` with ``perf_counter``.

    Registered after the evaluation and ledger hooks, so a round's end stamp
    follows its evaluation.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.benign_tasks = 0

    def on_round_start(self, server, plan) -> None:
        self.starts.append(time.perf_counter())
        self.benign_tasks += len(plan.benign_tasks)

    def on_round_end(self, server, plan, record) -> None:
        self.ends.append(time.perf_counter())


def _digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(result) -> dict:
    """Digests of the run's history (per round and whole) and final evaluation."""
    records = [record.to_dict() for record in result.history.records]
    evaluation = result.evaluation.as_dict()
    return {
        "round_digests": [_digest(record) for record in records],
        "digest": _digest({"history": records, "evaluation": evaluation}),
        "evaluation": evaluation,
    }


def channel_bytes(ledger, channel: str) -> int:
    """Bytes on ``channel`` over rounds 0 onward (setup frames excluded)."""
    return sum(
        row["header_bytes"] + row["payload_bytes"]
        for row in ledger.round_rows()
        if row["channel"] == channel and row["round"] >= 0
    )


def round_accounting(tracer: spans.Tracer, clock: RoundClock, t0: float) -> dict:
    """Split each round's wall time into its spans' self times and the rest.

    Round ``r`` runs from the end of round ``r-1`` (for round 0, the call
    into ``run_experiment``) to its own end.  ``round_self`` is the wall time
    no top-level span covers; ``error_s`` is the largest difference over
    rounds between the wall time and the self times of every span in the
    round plus ``round_self``, which is zero up to float rounding when the
    spans nest properly.
    """
    main = threading.main_thread().ident
    bounds = [t0, *clock.ends]
    walls = [b - a for a, b in zip(bounds, bounds[1:], strict=False)]
    span_self = [0.0] * len(walls)
    top_level = [0.0] * len(walls)
    child = tracer.child_time()
    round_of = 0
    # Spans are appended as they open, so their starts never decrease.
    for index, span in enumerate(tracer.spans):
        if span[4] != main:
            continue
        while round_of < len(walls) and span[2] >= bounds[round_of + 1]:
            round_of += 1
        if round_of == len(walls):
            break
        if span[3] > bounds[round_of + 1]:
            raise RuntimeError(f"span {tracer.names[span[0]]} crosses a round boundary")
        duration = span[3] - span[2]
        span_self[round_of] += duration - child[index]
        if span[1] < 0:
            top_level[round_of] += duration
    round_self = [w - t for w, t in zip(walls, top_level, strict=True)]
    error = max(
        abs(w - (s + r)) for w, s, r in zip(walls, span_self, round_self, strict=True)
    )
    return {"round_walls": walls, "round_self": round_self, "error_s": error}


def experiment(workload: str, seed: int, mode: str, out_path: str, rounds=None) -> dict:
    """Run one experiment and return its result; ``rounds`` overrides the workload's."""
    if mode == "reference":
        scenario = workloads.scenario(
            workload, seed, rounds=workloads.REFERENCE_ROUNDS - 1, reference=True
        )
    else:
        scenario = workloads.scenario(workload, seed, rounds=rounds)
    tracer = None
    worker_dir = None
    if mode == "traced":
        tracer = spans.Tracer()
        spans.install_driver(tracer, scenario)
        # Spawned workers inherit this environment: the start-up hook on
        # their path wraps the same layers and writes totals at exit.
        worker_dir = os.path.splitext(out_path)[0] + "-workers"
        os.makedirs(worker_dir, exist_ok=True)
        for stale in glob.glob(os.path.join(worker_dir, "*.json")):
            os.remove(stale)
        os.environ[spans.WORKER_ENV] = worker_dir
        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (spans.WORKER_HOOK_DIR, os.environ.get("PYTHONPATH")) if p
        )

    clock = RoundClock()
    t0 = time.perf_counter()
    result = run_experiment(scenario, hooks=[clock])

    out = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "rounds": len(result.history),
        "setup_s": clock.ends[0] - t0,
        "round_starts": [start - t0 for start in clock.starts],
        "round_ends": [end - t0 for end in clock.ends],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "model_bytes": channel_bytes(result.ledger, "model"),
        "wire_bytes": channel_bytes(result.ledger, "wire"),
        "fingerprint": fingerprint.process(),
        **outputs(result),
    }
    if tracer is not None:
        server = result.extras["server"]
        out["layers"] = tracer.totals()
        out["counts"] = dict(tracer.counts)
        out["accounting"] = round_accounting(tracer, clock, t0)
        out["benign_tasks"] = clock.benign_tasks
        out["redispatches"] = getattr(server.backend, "redispatch_count", 0)
        cache_info = getattr(result.extras["dataset"], "cache_info", None)
        out["materializations"] = cache_info()["materializations"] if cache_info else 0
        out["workers"] = []
        for path in sorted(glob.glob(os.path.join(worker_dir, "*.json"))):
            with open(path) as handle:
                out["workers"].append(json.load(handle))
        tracer.write(os.path.splitext(out_path)[0] + "-spans.json")
    with open(out_path, "w") as handle:
        json.dump(out, handle)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("timed", "traced", "reference"), default="timed")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    experiment(args.workload, args.seed, args.mode, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
