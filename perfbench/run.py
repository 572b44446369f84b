"""Benchmark command: time one workload from outside, check its outputs.

Usage, from the repository root::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each experiment runs in a fresh interpreter (``perfbench/child.py``) whose
environment has inherited thread-count variables removed.  Experiments of
the workload repeat with the same seed until ``--seconds`` have passed, at
least three have run and at least 100 timed rounds have been pooled, so that
``round_s_p90`` has ten samples beyond it.

Every experiment's outputs pass a correctness gate: its history and final
evaluation digest must equal the golden recorded for the workload and seed
(a seed without one is reported as ``unchecked``), every experiment of the
run must agree, and a short run on an independent execution path (the
workload's ``reference``) must reproduce its first rounds exactly.  A
mismatch or a raised experiment fails all of that experiment's rounds.

With ``--trace 0`` the last line of output is the end-to-end result; with
``--trace 1`` untraced experiments alternate with traced ones whose wrappers
time each layer from outside, and the last line holds the per-layer metrics.
``BENCHMARK.json`` lists every metric; ``perfbench/README.md`` defines them.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from perfbench import fingerprint, stats, workloads  # noqa: E402

SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
GOLDENS = Path(__file__).resolve().parent / "goldens.json"

#: Experiments per run at least; ``setup_s``, ``rounds_per_s`` and
#: ``round_s_p50`` are medians over a run's experiments, so one experiment
#: disturbed by the machine moves none of them.
MIN_EXPERIMENTS = 3
#: Timed rounds pooled per run at least, so p90 has ten samples beyond it.
MIN_TIMED_ROUNDS = 100
#: No experiment starts when it could end later than this after the start.
RUN_CAP_S = 150.0
#: An experiment still running this long after the start is killed and
#: counts as failed, so the command exits within three minutes.
DEADLINE_S = 170.0


class Run:
    """Experiments of one benchmark run and the gate's verdicts on them."""

    def __init__(self, workload: str, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env, self.removed = fingerprint.scrubbed_environment(dict(os.environ))
        self.env["PYTHONPATH"] = str(SRC)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.golden: str | None = None
        self.digest: str | None = None
        self.deadline = time.perf_counter() + DEADLINE_S

    def experiment(self, mode: str, index: int) -> dict | None:
        """Run one experiment in a fresh interpreter; ``None`` if it failed."""
        rounds = (
            workloads.REFERENCE_ROUNDS
            if mode == "reference"
            else workloads.WORKLOADS[self.workload].rounds + 1
        )
        self.attempted += rounds
        OUT.mkdir(exist_ok=True)
        out = OUT / f"{self.workload}-{self.seed}-{mode}-{index}.json"
        out.unlink(missing_ok=True)
        command = [
            sys.executable, str(ROOT / "perfbench" / "child.py"),
            "--workload", self.workload, "--seed", str(self.seed),
            "--mode", mode, "--out", str(out),
        ]
        # A session of its own, so a timeout can stop the experiment's
        # worker processes along with it.
        proc = subprocess.Popen(
            command, cwd=ROOT, env=self.env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        try:
            log, _ = proc.communicate(timeout=max(0.0, self.deadline - time.perf_counter()))
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            log, _ = proc.communicate()
        if proc.returncode != 0 or not out.exists():
            self.failed += rounds
            tail = "\n".join(log.strip().splitlines()[-15:])
            self.problems.append(f"{mode} experiment {index} exited {proc.returncode}")
            print(tail, file=sys.stderr)
            return None
        with open(out) as handle:
            result = json.load(handle)
        if result["rounds"] != rounds:
            self.failed += rounds
            self.problems.append(f"{mode} experiment {index} ran {result['rounds']} rounds")
            return None
        return result

    def check(self, result: dict, index: int) -> bool:
        """Gate one experiment's outputs: golden and agreement with the run."""
        ok = True
        if self.digest is None:
            self.golden = _golden(self.workload, self.seed, platform(result))
        if self.golden is not None and result["digest"] != self.golden:
            self.problems.append(f"experiment {index} differs from the golden")
            ok = False
        if self.digest is None:
            self.digest = result["digest"]
        elif result["digest"] != self.digest:
            self.problems.append(f"experiment {index} differs from experiment 0")
            ok = False
        if not ok:
            self.failed += result["rounds"]
        return ok

    def check_reference(self, first: dict) -> None:
        """Replay the first rounds on the workload's reference path."""
        reference = self.experiment("reference", 0)
        if reference is None:
            return
        prefix = first["round_digests"][: workloads.REFERENCE_ROUNDS]
        if reference["round_digests"] != prefix:
            self.failed += reference["rounds"]
            self.problems.append("reference path differs from the benchmarked path")

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems

    def golden_status(self) -> str:
        if self.golden is None:
            return "unchecked (no golden for this seed, round count and platform)"
        return "pass" if self.correct else "FAIL"


def platform(result: dict) -> str:
    """The numeric platform a digest is valid for: BLAS kernel build and numpy.

    OpenBLAS picks its kernels for the CPU it runs on, and another kernel may
    round differently, so a golden only binds runs on the platform that
    recorded it.
    """
    found = result["fingerprint"]
    return f"{found['blas']['config']} | numpy {found['numpy']}"


def _golden(workload: str, seed: int, where: str) -> str | None:
    if not GOLDENS.exists():
        return None
    with open(GOLDENS) as handle:
        entry = json.load(handle).get(workload)
    if (
        not entry
        or entry["rounds"] != workloads.WORKLOADS[workload].rounds
        or entry["platform"] != where
    ):
        return None
    return entry["digests"].get(str(seed))


def round_latencies(result: dict) -> list[float]:
    """Wall time of each timed round: end of the previous round to its end."""
    ends = result["round_ends"]
    return [b - a for a, b in zip(ends, ends[1:], strict=False)]


def rounds_per_s(result: dict) -> float:
    """One experiment's timed rounds over their wall time."""
    ends = result["round_ends"]
    return (len(ends) - 1) / (ends[-1] - ends[0])


def end_to_end(results: list[dict]) -> dict:
    """The end-to-end metrics of a run's untraced experiments."""
    latencies = [x for r in results for x in round_latencies(r)]
    return {
        "setup_s": (statistics.median([r["setup_s"] for r in results]), "s"),
        "rounds_per_s": (statistics.median([rounds_per_s(r) for r in results]), "1/s"),
        "round_s_p50": (
            statistics.median([statistics.median(round_latencies(r)) for r in results]), "s"
        ),
        "round_s_p90": (stats.percentile(latencies, 90), "s"),
        "peak_rss_mb": (statistics.median([r["peak_rss_mb"] for r in results]), "MB"),
        "model_bytes_per_round": (
            statistics.median([r["model_bytes"] / r["rounds"] for r in results]), "B"
        ),
    }


def _layer_totals(result: dict) -> tuple[dict, dict]:
    """Span totals and counts of one traced experiment, workers included."""
    totals = {name: dict(entry) for name, entry in result["layers"].items()}
    counts = dict(result["counts"])
    for worker in result["workers"]:
        for name, entry in worker["totals"].items():
            into = totals.setdefault(name, {"busy": 0.0, "self": 0.0, "calls": 0})
            for key in into:
                into[key] += entry[key]
        for name, value in worker["counts"].items():
            counts[name] = counts.get(name, 0) + value
    return totals, counts


def per_layer(result: dict) -> dict:
    """The per-layer metrics of one traced experiment."""
    totals, counts = _layer_totals(result)

    def busy(name):
        return totals.get(name, {}).get("busy", 0.0)

    def own(name):
        return totals.get(name, {}).get("self", 0.0)

    def count(name):
        return counts.get(name, 0)

    client_calls = totals.get("population.client", {}).get("calls", 0)
    misses = result["materializations"]
    return {
        "nn.forward_s": (busy("nn.forward"), "s"),
        "nn.backward_s": (busy("nn.backward"), "s"),
        "nn.optim_s": (busy("nn.optim"), "s"),
        "nn.loss_s": (busy("nn.loss"), "s"),
        "nn.steps": (count("nn.steps"), "count"),
        "nn.batched_forward_s": (busy("nn.batched_forward"), "s"),
        "nn.batched_backward_s": (busy("nn.batched_backward"), "s"),
        "nn.batched_optim_s": (busy("nn.batched_optim"), "s"),
        "nn.flatten_s": (busy("nn.flatten"), "s"),
        "nn.unflatten_s": (busy("nn.unflatten"), "s"),
        "client.train_s": (busy("client.train"), "s"),
        "client.tasks": (count("client.tasks"), "count"),
        "client.batched_train_s": (busy("client.batched_train"), "s"),
        "client.batched_tasks": (count("client.batched_tasks"), "count"),
        "attacks.setup_s": (busy("attacks.setup"), "s"),
        "attacks.update_s": (busy("attacks.update"), "s"),
        "attacks.updates": (count("attacks.updates"), "count"),
        "defenses.aggregate_s": (busy("defenses.aggregate"), "s"),
        "defenses.accumulate_s": (busy("defenses.accumulate"), "s"),
        "defenses.finalize_s": (busy("defenses.finalize"), "s"),
        "defenses.updates": (count("defenses.updates"), "count"),
        "metrics.evaluate_s": (busy("metrics.evaluate"), "s"),
        "metrics.clients_evaluated": (count("metrics.clients_evaluated"), "count"),
        "population.client_s": (busy("population.client"), "s"),
        "population.misses": (misses, "count"),
        "population.hit_ratio": (
            1.0 - misses / client_calls if client_calls else 0.0, "ratio"
        ),
        "participation.sample_s": (busy("participation.sample"), "s"),
        "secagg.unmask_s": (busy("secagg.unmask"), "s"),
        "secagg.mask_s": (busy("secagg.mask"), "s"),
        "distributed.spawn_s": (busy("distributed.spawn"), "s"),
        "distributed.encode_s": (busy("distributed.encode"), "s"),
        "distributed.decode_s": (busy("distributed.decode"), "s"),
        "distributed.send_s": (busy("distributed.send"), "s"),
        "distributed.recv_wait_s": (own("distributed.recv"), "s"),
        "distributed.frames": (count("distributed.frames"), "count"),
        "distributed.redispatches": (result["redispatches"], "count"),
        "distributed.worker_train_s": (busy("distributed.worker_train"), "s"),
        "distributed.worker_context_build_s": (
            busy("distributed.worker_context_build"), "s"
        ),
        "distributed.wire_bytes_per_round": (result["wire_bytes"] / result["rounds"], "B"),
        "engine.update_wait_s": (own("engine.collect"), "s"),
        "engine.batched_share": (
            count("client.batched_tasks") / result["benign_tasks"]
            if result["benign_tasks"] else 0.0,
            "ratio",
        ),
        "engine.ledger_s": (busy("engine.ledger"), "s"),
        "server.round_self_s": (sum(result["accounting"]["round_self"][1:]), "s"),
        "runner.build_s": (busy("runner.build"), "s"),
    }


def tracing_overhead(untraced: list[dict], traced: list[dict]) -> dict:
    """Traced against untraced ``rounds_per_s``, the wrappers' own cost."""
    traced_rps = statistics.median([rounds_per_s(r) for r in traced])
    untraced_rps = statistics.median([rounds_per_s(r) for r in untraced])
    return {
        "trace.rounds_per_s": (traced_rps, "1/s"),
        "trace.untraced_rounds_per_s": (untraced_rps, "1/s"),
        "trace.slowdown": (untraced_rps / traced_rps, "ratio"),
    }


def _median_metrics(per_experiment: list[dict]) -> dict:
    return {
        name: (statistics.median([m[name][0] for m in per_experiment]), unit)
        for name, (_value, unit) in per_experiment[0].items()
    }


def measure(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run experiments for ``seconds``; return metrics and report details."""
    started = time.perf_counter()
    longest = 0.0
    untraced: list[dict] = []
    traced: list[dict] = []
    index = 0
    while True:
        # A traced run alternates untraced and traced experiments, so both
        # sides of the tracing overhead see the same machine conditions.
        mode = "traced" if trace and index % 2 else "timed"
        began = time.perf_counter()
        result = run.experiment(mode, index)
        longest = max(longest, time.perf_counter() - began)
        if result is not None and run.check(result, index):
            (traced if mode == "traced" else untraced).append(result)
        index += 1
        elapsed = time.perf_counter() - started
        if elapsed + longest > RUN_CAP_S or (run.failed and index >= MIN_EXPERIMENTS):
            break
        if trace:
            enough = bool(untraced and traced)
        else:
            timed_rounds = sum(len(r["round_ends"]) - 1 for r in untraced)
            enough = len(untraced) >= MIN_EXPERIMENTS and timed_rounds >= MIN_TIMED_ROUNDS
        if enough and elapsed >= seconds:
            break
    first = (untraced or traced or [None])[0]
    if first is not None:
        run.check_reference(first)
    details = {"experiments": len(untraced) + len(traced), "first": first}
    if trace:
        if not (untraced and traced):
            raise SystemExit("traced run produced no result")
        metrics = _median_metrics([per_layer(r) for r in traced])
        metrics.update(tracing_overhead(untraced, traced))
        details["accounting_error_s"] = max(r["accounting"]["error_s"] for r in traced)
        if details["accounting_error_s"] > 1e-6:
            run.problems.append("round self times do not add up to the round wall time")
        return metrics, details
    latencies = [x for r in untraced for x in round_latencies(r)]
    details["timed_rounds"] = len(latencies)
    details["p90_beyond"] = stats.samples_beyond(len(latencies), 90)
    if len(latencies) < MIN_TIMED_ROUNDS:
        raise SystemExit(f"only {len(latencies)} timed rounds; round_s_p90 needs 100")
    details["wire_bytes_per_round"] = statistics.median(
        [r["wire_bytes"] / r["rounds"] for r in untraced]
    )
    return end_to_end(untraced), details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2

    run = Run(args.workload, args.seed)
    metrics, details = measure(run, args.seconds, bool(args.trace))
    first = details["first"] or {}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"experiments {details['experiments']}")
    print("fingerprint " + json.dumps(first.get("fingerprint"), sort_keys=True))
    print("removed thread variables " + json.dumps(run.removed, sort_keys=True))
    for name, (value, unit) in metrics.items():
        extra = ""
        if name == "round_s_p90":
            extra = (f"  (n={details['timed_rounds']}, "
                     f"{details['p90_beyond']} beyond)")
        print(f"  {name:<36} {value:>14.6g} {unit}{extra}")
    if not args.trace and first.get("wire_bytes"):
        print(f"  {'wire_bytes_per_round':<36} "
              f"{details['wire_bytes_per_round']:>14.6g} B")
    if args.trace:
        print(f"  round accounting residue {details['accounting_error_s']:.3g} s")
    print(f"golden: {run.golden_status()}")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
