"""The benchmark's workloads, as Scenario fields.

Every workload has a fixed cohort size per round, so every timed round does
comparable work.  The benchmark's ``--seed`` sets both ``seed`` and
``data_seed``; nothing else about a workload depends on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Rounds of the short cross-backend reference run (see ``reference``).
REFERENCE_ROUNDS = 3


@dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    #: Scenario fields besides ``rounds``, ``seed`` and ``data_seed``.
    fields: dict
    #: Timed rounds per experiment; round 0 runs before them as warm-up.
    rounds: int
    #: Scenario overrides giving an independent execution path whose
    #: history must equal this workload's, round for round.
    reference: dict = field(default_factory=dict)


WORKLOADS: dict[str, Workload] = {
    # The paper's core experiment: a few compromised clients against Krum on
    # non-IID FEMNIST with LeNet and per-round client-level evaluation.
    "collapois-femnist-krum": Workload(
        fields={
            "dataset": "femnist",
            "num_clients": 16,
            "samples_per_client": 36,
            "alpha": 0.2,
            "num_classes": 6,
            "image_size": 16,
            "model": "lenet",
            "attack": "collapois",
            "compromised_fraction": 0.125,
            "defense": "krum:num_malicious=2",
            "sample_rate": 1.0,
            "backend": "serial",
            "eval_every": 1,
        },
        rounds=30,
        reference={"backend": "batched"},
    ),
    # Secure aggregation over socket workers at ~1e5 parameters.
    "secagg-distributed-1e5": Workload(
        fields={
            "dataset": "femnist",
            "num_clients": 12,
            "samples_per_client": 16,
            "num_classes": 10,
            "image_size": 16,
            "model": "mlp",
            "hidden": (384,),
            "sample_rate": 1.0,
            "backend": "distributed",
            "backend_workers": 2,
            "secure_aggregation": True,
            "defense": "mean",
            "num_shards": 1,
            "attack": "none",
        },
        rounds=34,
        reference={"backend": "serial", "backend_workers": None, "secure_aggregation": False},
    ),
    # A lazy population of 1e5 clients, tiered participation, buffered-async
    # aggregation and cross-client batched training, under CollaPois.
    "population-1e5-batched-async": Workload(
        fields={
            "dataset": "sentiment",
            "population": "synthetic:cache_size=64,eval_clients=32",
            "num_clients": 100_000,
            "participation": "tiered:sample_rate=0.0005,availability=0.9,dropout_rate=0.001",
            "aggregation_mode": "buffered_async:buffer_size=32,staleness_discount=0.5",
            "backend": "batched",
            "attack": "collapois",
            "compromised_fraction": 0.0002,
        },
        rounds=40,
        reference={"backend": "serial"},
    ),
}


def scenario(name: str, seed: int, rounds: int | None = None, reference: bool = False):
    """The workload's Scenario for ``seed``: ``rounds`` timed rounds plus round 0.

    With ``reference`` the workload's reference overrides apply.
    """
    from repro.experiments import Scenario

    workload = WORKLOADS[name]
    fields = dict(workload.fields)
    if reference:
        fields.update(workload.reference)
    timed = workload.rounds if rounds is None else rounds
    return Scenario(rounds=timed + 1, seed=seed, data_seed=seed, **fields)
