"""Results do not depend on the host's BLAS thread count or on timing.

At some GEMM shapes OpenBLAS splits sums differently on 1 and 2 threads, so
the same ``local_train`` call on a 784→1024→256→10 MLP (1,068,810
parameters) returns different update bytes depending on the thread count —
unless training runs in :data:`repro.nn.blas.single_threaded`, as every
training path does.  Long dot products (the norms servers and attacks take
of whole update vectors) split the same way, and the thread count is
process-wide, so server-side work must never overlap training on another
thread: the thread backend and concurrent suite cells are checked here.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.experiments.scenario import Scenario
from repro.experiments.suite import Suite
from repro.federated.client import LocalTrainingConfig, local_train
from repro.federated.engine.hooks import CallbackHook
from repro.nn import blas, make_mlp
from repro.nn.serialization import flatten_params

pytestmark = pytest.mark.skipif(
    blas.num_threads() is None, reason="numpy's bundled OpenBLAS not found"
)

HIDDEN = (1024, 256)


@pytest.fixture
def ambient_threads():
    """Set the process's BLAS thread count outside any training scope."""
    lib = blas._openblas()
    prior = lib.get_threads()
    yield lib.set_threads
    lib.set_threads(prior)


def test_local_train_update_bytes_ignore_the_ambient_thread_count(ambient_threads):
    model = make_mlp(784, HIDDEN, 10, seed=0)
    global_params = flatten_params(model).copy()
    assert global_params.size == 1_068_810
    rng = np.random.default_rng(0)
    data = Dataset(rng.standard_normal((32, 784)), rng.integers(0, 10, 32))
    config = LocalTrainingConfig(batch_size=16)
    updates = {}
    for threads in (1, 2):
        ambient_threads(threads)
        update, _ = local_train(
            model, global_params, data, config, np.random.default_rng(1)
        )
        assert blas.num_threads() == threads
        updates[threads] = update.tobytes()
    assert updates[1] == updates[2]


def large_scenario(**overrides) -> Scenario:
    """A one-round FEMNIST run on the 1,068,810-parameter MLP."""
    base = dict(
        dataset="femnist",
        num_clients=2,
        samples_per_client=32,
        num_classes=10,
        image_size=28,
        hidden=HIDDEN,
        rounds=1,
        sample_rate=1.0,
        seed=3,
        attack="none",
        max_test_samples=8,
    )
    base.update(overrides)
    return Scenario(**base)


def test_distributed_worker_with_other_thread_count_matches_serial(
    ambient_threads, monkeypatch
):
    scenario = large_scenario()
    # The driver trains the serial reference with 2 ambient threads; the
    # spawned worker inherits OPENBLAS_NUM_THREADS=1 from the environment.
    # The driver keeps 2 threads for both runs: its own work outside client
    # training (the update norm, for one) follows the ambient count.
    ambient_threads(2)
    serial = scenario.run().history.to_dict()["records"]
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    distributed = scenario.with_overrides(
        backend="distributed", backend_workers=1
    ).run().history.to_dict()["records"]
    assert distributed == serial


def history_and_params(scenario: Scenario) -> tuple[dict, list[bytes]]:
    """The run's history and its global parameters' bytes after each round."""
    params: list[bytes] = []
    hook = CallbackHook(
        on_round_end=lambda server, plan, record: params.append(
            server.global_params.tobytes()
        )
    )
    result = scenario.run(hooks=[hook])
    assert result.history.records[0].compromised_sampled
    return result.history.to_dict(), params


def test_thread_backend_driver_work_matches_serial(ambient_threads):
    # CollaPois clips each malicious update by its norm on the driver; with
    # 2 ambient threads that norm must not see the pool's one-thread pin.
    scenario = large_scenario(
        num_clients=6,
        attack="collapois",
        compromised_fraction=0.5,
        clip_bound=1.0,
        trojan_epochs=1,
    )
    ambient_threads(2)
    serial = history_and_params(scenario)
    threaded = history_and_params(
        scenario.with_overrides(backend="thread", backend_workers=2)
    )
    assert threaded == serial


def test_concurrent_suite_cells_match_the_sequential_run(ambient_threads):
    suite = Suite.grid(large_scenario(rounds=2), seed=[3, 4, 5, 6])
    ambient_threads(2)
    sequential = suite.run()
    assert blas.num_threads() == 2
    concurrent = suite.run(cell_workers=2)
    assert [c.result.history.to_dict() for c in concurrent] == [
        c.result.history.to_dict() for c in sequential
    ]
