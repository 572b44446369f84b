"""Record the correctness gate's goldens: one experiment per workload and seed.

Usage, from the repository root::

    python3 perfbench/record_goldens.py --seeds 0-19 [--workload <name> ...]

Each golden is the digest of an untraced experiment's history and final
client-level evaluation, after a reference run on the workload's
independent execution path has reproduced its first rounds.  Goldens are
kept for one round count and one numeric platform per workload; recording
on another platform replaces them.  Record goldens only from a commit whose
outputs are known to be right: the gate then holds later commits to them.
"""

from __future__ import annotations

import argparse
import json
import sys

if __package__ in (None, ""):
    from pathlib import Path

    sys.path[0] = str(Path(__file__).resolve().parents[1])

from perfbench import run, workloads  # noqa: E402


def seed_range(text: str) -> list[int]:
    """Seeds named by one number (``3``) or an inclusive range (``0-19``)."""
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(workloads.WORKLOADS))
    args = parser.parse_args(argv)

    goldens = json.loads(run.GOLDENS.read_text()) if run.GOLDENS.exists() else {}
    for name in args.workload or sorted(workloads.WORKLOADS):
        rounds = workloads.WORKLOADS[name].rounds
        for seed in args.seeds:
            gate = run.Run(name, seed)
            result = gate.experiment("timed", 0)
            if result is None:
                return 1
            where = run.platform(result)
            entry = goldens.get(name)
            if not entry or (entry["rounds"], entry["platform"]) != (rounds, where):
                entry = goldens[name] = {"rounds": rounds, "platform": where, "digests": {}}
            gate.check_reference(result)
            if not gate.correct:
                print(f"{name} seed {seed}: " + "; ".join(gate.problems), file=sys.stderr)
                return 1
            entry["digests"][str(seed)] = result["digest"]
            print(f"{name} seed {seed}: {result['digest']}")
            run.GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
