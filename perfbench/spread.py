"""Run-to-run spread of the end-to-end metrics over several seeds.

Usage, from the repository root::

    python3 perfbench/spread.py --workload <name> --seeds 1-10 [--seconds 20]

Runs the benchmark once per seed and prints, for each end-to-end metric, the
median of the runs and the distance between their first and third
quartiles as a share of the median, next to the metric's bound in
``BENCHMARK.json``.  Each run's result line is appended to ``--log``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if __package__ in (None, ""):
    sys.path[0] = str(ROOT)

from perfbench import stats  # noqa: E402
from perfbench.record_goldens import seed_range  # noqa: E402


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--log", default=str(ROOT / ".perfbench" / "spread.jsonl"))
    args = parser.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"),
             "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        Path(args.log).parent.mkdir(exist_ok=True)
        with open(args.log, "a") as handle:
            handle.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        if not result["correct"] or result["failed"]:
            print(f"seed {seed}: outputs failed the gate", file=sys.stderr)
            return 1
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    for metric in spec["end_to_end"]:
        series = values[metric["name"]]
        print(
            f"{metric['name']:<24} median {statistics.median(series):<12.6g} "
            f"spread {stats.relative_iqr(series):7.2%}  bound {metric['bound']:.0%}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
