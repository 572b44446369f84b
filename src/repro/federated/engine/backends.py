"""Execution backends: how a round plan's client work actually runs.

The server is backend-agnostic: it builds a :class:`RoundPlan` and asks an
:class:`ExecutionBackend` for the :class:`ClientResult` list in aggregation
order.  Three backends are provided:

* :class:`SerialBackend` — one worker model, clients in order; bit-identical
  to the historical round loop and the default.
* :class:`ThreadPoolBackend` — benign clients fan out over a thread pool with
  a per-thread model pool.  NumPy releases the GIL inside its kernels, so
  multi-core machines overlap client training.  The driver does no work of
  its own while the pool trains (see :mod:`repro.nn.blas`).
* :class:`ProcessPoolBackend` — benign clients fan out over forked worker
  processes.  The pool is forked *per round* so workers always see the
  current algorithm state (e.g. FedDC drift); this sidesteps pickling of
  closure-based model factories and keeps results identical to serial.

Malicious updates are always computed in the driver process, in task order:
attacks are stateful by contract (``MRepl.attacked_rounds``, CollaPois'
``psi_history``) and their cross-round state must live where the server can
see it.  Benign updates only *read* shared state (dataset, algorithm state,
global parameters), which is what makes them safe to parallelise.

Because every task draws randomness exclusively from its own
``(seed, round, client)`` stream (see :mod:`repro.federated.rng`), all three
backends produce bit-identical :class:`~repro.federated.history.TrainingHistory`
objects for the same run seed.  The one exception: models whose layers carry
internal RNG state (``Dropout``) consume that state in backend-dependent
order and void the guarantee — keep such models on the serial backend (the
experiment runner's model factories are dropout-free by default).
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import threading
from collections.abc import Callable, Iterable, Iterator
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from repro.data.federated_data import FederatedDataset
from repro.federated.algorithms.base import FederatedAlgorithm
from repro.federated.client import LocalTrainingConfig
from repro.federated.engine.plan import ClientResult, ClientTask, ClientUpdate, RoundPlan
from repro.registry import BACKENDS


@dataclass
class EngineContext:
    """Everything a backend needs to execute client tasks.

    ``secagg_seed`` enables secure aggregation: when set, every update
    leaving the execution engine is masked with its client's aggregate
    round mask (:mod:`repro.federated.secagg.masking`) before anything
    server-side — hooks, retained lists, the aggregator API — can observe
    it.  The seed is the run seed; mask streams are derived per
    ``(seed, round, pair)``, so remote workers and driver-side backends
    produce identical masked bytes.

    ``telemetry`` is the run's :class:`~repro.telemetry.core.RunTelemetry`
    bundle when span tracing is enabled (``None`` otherwise): task
    execution and dispatch points record spans through it.  Observation
    only — no backend may read it to change what it computes.
    """

    dataset: FederatedDataset
    model_factory: Callable[[], object]
    algorithm: FederatedAlgorithm
    local_config: LocalTrainingConfig
    attack: object | None = None
    secagg_seed: int | None = None
    telemetry: object | None = None


def telemetry_span(ctx: EngineContext, name: str, **attrs):
    """Span context manager via the context's telemetry; no-op when off."""
    tel = ctx.telemetry
    if tel is None:
        return nullcontext()
    return tel.tracer.span(name, **attrs)


def run_benign_task(
    ctx: EngineContext, task: ClientTask, global_params: np.ndarray, model
) -> ClientResult:
    """Execute one benign client task on the given scratch model."""
    with telemetry_span(
        ctx, "client_train", round=task.round_idx, client=task.client_id
    ):
        update, loss = ctx.algorithm.benign_update(
            task.client_id,
            model,
            global_params,
            ctx.dataset.client(task.client_id).train,
            ctx.local_config,
            task.rng(),
        )
    return ClientResult(task=task, update=update, loss=loss)


def run_malicious_task(
    ctx: EngineContext, task: ClientTask, global_params: np.ndarray, model
) -> ClientResult:
    """Execute one compromised client task through the active attack."""
    if ctx.attack is None:
        raise RuntimeError("malicious task scheduled without an active attack")
    with telemetry_span(
        ctx, "client_train",
        round=task.round_idx, client=task.client_id, malicious=True,
    ):
        update = ctx.attack.compute_update(
            client_id=task.client_id,
            global_params=global_params,
            round_idx=task.round_idx,
            model=model,
            rng=task.rng(),
        )
    return ClientResult(task=task, update=update, loss=None)


class ExecutionBackend:
    """Strategy interface for executing a round plan's client work."""

    name = "base"

    # Capability flags, surfaced by ``repro list backends``:
    #: ``iter_updates`` yields as clients finish (vs a per-round barrier).
    streaming_updates = False
    #: Client work runs in other OS processes (own interpreter + memory).
    process_isolation = False
    #: Workers may live on other hosts, reached over sockets.
    distributed = False
    #: Benign clients train as one stacked model (cross-client GEMM batching).
    batched_execution = False

    #: Optional :class:`~repro.federated.engine.ledger.CommunicationLedger`
    #: installed by the experiment runner; backends with a real transport
    #: (the distributed coordinator) meter their wire frames into it.
    ledger = None

    def __init__(self) -> None:
        self._ctx: EngineContext | None = None
        self._driver_model = None

    @property
    def ctx(self) -> EngineContext:
        if self._ctx is None:
            raise RuntimeError(f"{type(self).__name__} is not bound to a server")
        return self._ctx

    def bind(self, ctx: EngineContext) -> None:
        """Attach the backend to a server's execution context."""
        self._ctx = ctx
        # Rebinding to a different server must drop models built by the
        # previous server's factory.
        self._driver_model = None

    def execute(self, plan: RoundPlan, global_params: np.ndarray) -> list[ClientResult]:
        """Run every task in ``plan`` and return results in aggregation order."""
        ctx = self.ctx
        # Kick off benign work first: the process backend forks its pool
        # eagerly and hands back a lazy iterable, so driver-side malicious
        # computation (which can be real training — DPois/DBA run
        # local_train per compromised client) overlaps with the pool instead
        # of stalling it.  Serial and thread backends start lazily, so the
        # malicious tasks run first.
        benign_pending = self._start_benign(plan.benign_tasks, global_params)
        results: dict[int, ClientResult] = {}
        # Malicious tasks run in the driver so stateful attacks keep their
        # cross-round bookkeeping (MRepl.attacked_rounds, psi_history).
        for task in plan.malicious_tasks:
            results[task.order] = run_malicious_task(
                ctx, task, global_params, self._get_driver_model()
            )
        for result in benign_pending:
            results[result.task.order] = result
        return [results[order] for order in range(len(plan))]

    def iter_updates(
        self, plan: RoundPlan, global_params: np.ndarray
    ) -> Iterator[ClientUpdate]:
        """Yield the plan's :class:`ClientUpdate` objects as they complete.

        The streaming counterpart of :meth:`execute`: the server folds each
        yielded update into the aggregator online instead of waiting for the
        full round.  Updates may arrive in *any* order — consumers key on
        ``update.slot`` for the canonical aggregation order (the
        :class:`~repro.defenses.base.Aggregator` base class does this
        automatically).  The base implementation is a barrier (it runs
        :meth:`execute` and yields the finished results, which is what the
        per-round-forked process backend wants, and what keeps the thread
        backend's driver work apart from its pool); the serial backend
        overrides it to yield as clients finish.
        """
        for result in self.execute(plan, global_params):
            yield self.make_update(result, plan)

    def make_update(self, result: ClientResult, plan: RoundPlan) -> ClientUpdate:
        """Wrap an executed result with its client's dataset weight.

        The single choke point where results leave the execution engine:
        under secure aggregation (``ctx.secagg_seed``) the update vector is
        masked here — in the client's stead — unless the result is already
        masked at the source (``secagg_masked`` extra, set by the
        distributed coordinator whose workers mask before the bytes ever
        reach a socket).  All round participants mask, compromised clients
        included: an unmasked participant would leave its pairwise terms
        uncancelled in the sum.
        """
        seed = self.ctx.secagg_seed
        if seed is not None and not result.extras.get("secagg_masked"):
            # Imported lazily: the secagg package pulls in plan/defense
            # modules and is only needed when masking is actually on.
            from repro.federated.secagg.masking import mask_update

            with telemetry_span(
                self.ctx, "secagg_mask",
                round=plan.round_idx, client=result.client_id,
            ):
                masked = mask_update(
                    result.update, seed, plan.round_idx, result.client_id,
                    plan.sampled_clients,
                )
            result = ClientResult(
                task=result.task,
                update=masked,
                loss=result.loss,
                extras={**result.extras, "secagg_masked": True},
            )
        return ClientUpdate.from_result(
            result,
            num_examples=len(self.ctx.dataset.client(result.client_id).train),
        )

    def _start_benign(
        self, tasks: tuple[ClientTask, ...], global_params: np.ndarray
    ) -> Iterable[ClientResult]:
        """Begin executing the benign tasks; the return value may be lazy."""
        raise NotImplementedError

    def _get_driver_model(self):
        if self._driver_model is None:
            self._driver_model = self.ctx.model_factory()
        return self._driver_model

    def close(self) -> None:
        """Release worker resources (idempotent)."""


@BACKENDS.register("serial")
class SerialBackend(ExecutionBackend):
    """Default backend: every client runs in order on one scratch model.

    ``batch_clients`` (optional) routes benign tasks through the cross-client
    batched runner (:mod:`repro.federated.engine.batched`) in groups of at
    most that many clients — a middle ground between fully serial execution
    and the dedicated ``batched`` backend, with the same bit-identity
    guarantee.  ``batch_clients=1`` (or ``None``) keeps the plain path.
    """

    name = "serial"
    streaming_updates = True

    def __init__(self, batch_clients: int | None = None) -> None:
        super().__init__()
        if batch_clients is not None and batch_clients <= 0:
            raise ValueError("batch_clients must be positive")
        self.batch_clients = batch_clients
        self._batched_runner = None

    def bind(self, ctx: EngineContext) -> None:
        super().bind(ctx)
        self._batched_runner = None

    def _get_batched_runner(self):
        if self._batched_runner is None:
            # Imported lazily: batched.py imports this module.
            from repro.federated.engine.batched import BatchedClientRunner

            self._batched_runner = BatchedClientRunner(
                self.ctx, max_group=self.batch_clients
            )
        return self._batched_runner

    def _start_benign(self, tasks, global_params):
        if self.batch_clients is not None and self.batch_clients > 1:
            return self._get_batched_runner().run(tasks, global_params)
        ctx = self.ctx
        model = self._get_driver_model()
        # Lazy on purpose: benign work runs while execute() drains the
        # iterator, after the (shared-scratch-model) malicious tasks finished.
        return (run_benign_task(ctx, task, global_params, model) for task in tasks)

    def iter_updates(self, plan, global_params):
        # Same computation order as execute() — malicious first on the shared
        # scratch model, then benign in task order — but each update is
        # yielded the moment it exists instead of after the round barrier.
        ctx = self.ctx
        model = self._get_driver_model()
        for task in plan.malicious_tasks:
            yield self.make_update(run_malicious_task(ctx, task, global_params, model), plan)
        if self.batch_clients is not None and self.batch_clients > 1:
            for result in self._get_batched_runner().run(plan.benign_tasks, global_params):
                yield self.make_update(result, plan)
            return
        for task in plan.benign_tasks:
            yield self.make_update(run_benign_task(ctx, task, global_params, model), plan)


@BACKENDS.register("thread")
class ThreadPoolBackend(ExecutionBackend):
    """Fan benign clients out over threads with a pooled set of models."""

    name = "thread"

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)
        self._executor: ThreadPoolExecutor | None = None
        self._models: queue.LifoQueue = queue.LifoQueue()

    def bind(self, ctx: EngineContext) -> None:
        super().bind(ctx)
        self._models = queue.LifoQueue()

    def _borrow_model(self):
        try:
            return self._models.get_nowait()
        except queue.Empty:
            # At most one model per in-flight task ever gets created, so the
            # pool is bounded by ``max_workers``.
            return self.ctx.model_factory()

    def _run_pooled(self, task: ClientTask, global_params: np.ndarray) -> ClientResult:
        model = self._borrow_model()
        try:
            return run_benign_task(self.ctx, task, global_params, model)
        finally:
            self._models.put(model)

    def _ensure_executor(self) -> ThreadPoolExecutor:
        if self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.max_workers, thread_name_prefix="fed-client"
            )
        return self._executor

    def _start_benign(self, tasks, global_params):
        # A generator, so the fan-out starts only when execute() asks for the
        # first result — after the driver-side malicious tasks — and, with
        # the barrier iter_updates, the server sees no update before the
        # pool drains.  Client training pins the process-wide BLAS thread
        # count to one (repro.nn.blas), so driver work that overlapped the
        # pool would run on one thread or on the ambient count by timing.
        if not tasks:
            return
        executor = self._ensure_executor()
        with telemetry_span(
            self.ctx, "dispatch",
            round=tasks[0].round_idx, tasks=len(tasks), backend="thread",
        ):
            futures = [
                executor.submit(self._run_pooled, task, global_params)
                for task in tasks
            ]
        for future in futures:
            yield future.result()

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None


# Fork-inherited state for ProcessPoolBackend workers.  Set in the parent
# immediately before the per-round pool is forked; children read their
# inherited snapshot, so no pickling of datasets/factories is needed (pool
# initargs would be pickled, which the closure-based model factories are
# not).  The module-global handoff is guarded by _FORK_LOCK so concurrent
# process-backend rounds in one parent process serialize instead of forking
# each other's state.
_FORK_STATE: tuple[EngineContext, np.ndarray] | None = None
_FORK_MODEL = None
_FORK_LOCK = threading.Lock()


def _fork_run_task(task: ClientTask) -> ClientResult:
    global _FORK_MODEL
    if _FORK_STATE is None:
        raise RuntimeError("worker process has no inherited engine state")
    ctx, global_params = _FORK_STATE
    if _FORK_MODEL is None:
        _FORK_MODEL = ctx.model_factory()
    return run_benign_task(ctx, task, global_params, _FORK_MODEL)


@BACKENDS.register("process")
class ProcessPoolBackend(ExecutionBackend):
    """Fan benign clients out over forked worker processes.

    The pool is created (forked) at the start of every round and torn down at
    the end of it, so workers always inherit the *current* algorithm state —
    FedDC's drift vectors change every round and a long-lived pool would act
    on stale state.  Forking also sidesteps pickling: the closure-based model
    factories used by the experiment runner are not picklable, but a forked
    child inherits them.  Requires a platform with the ``fork`` start method
    (Linux/macOS); :meth:`bind` raises elsewhere.
    """

    name = "process"
    process_isolation = True  # streaming_updates stays False: per-round fork
    # makes iter_updates a barrier (see ROADMAP's long-lived-worker item).

    def __init__(self, max_workers: int | None = None) -> None:
        super().__init__()
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.max_workers = max_workers or min(8, os.cpu_count() or 1)

    def bind(self, ctx: EngineContext) -> None:
        if "fork" not in multiprocessing.get_all_start_methods():
            raise RuntimeError(
                "ProcessPoolBackend requires the 'fork' start method; "
                "use ThreadPoolBackend on this platform"
            )
        super().bind(ctx)

    def _start_benign(self, tasks, global_params):
        # Eager by design: the per-round pool must be torn down before the
        # results are used, and fork/teardown dominates any overlap gains.
        global _FORK_STATE
        if not tasks:
            return []
        workers = min(self.max_workers, len(tasks))
        with _FORK_LOCK:
            # Children record spans into forked copies of the tracer that die
            # with the process, so strip telemetry from the inherited context
            # and record one driver-side span covering the whole pool instead.
            _FORK_STATE = (replace(self.ctx, telemetry=None), global_params)
            try:
                mp_ctx = multiprocessing.get_context("fork")
                with telemetry_span(
                    self.ctx, "client_train",
                    round=tasks[0].round_idx, tasks=len(tasks), processes=workers,
                ):
                    with ProcessPoolExecutor(
                        max_workers=workers, mp_context=mp_ctx
                    ) as pool:
                        chunksize = max(1, len(tasks) // workers)
                        return list(
                            pool.map(_fork_run_task, tasks, chunksize=chunksize)
                        )
            finally:
                _FORK_STATE = None


def available_backends() -> list[str]:
    """Names of every registered execution backend."""
    return BACKENDS.names()


def make_backend(
    name: str, max_workers: int | None = None, **kwargs
) -> ExecutionBackend:
    """Instantiate an execution backend by name or spec.

    ``max_workers`` is the single place the worker-cap special case lives:
    ``None`` means "backend default" and is simply not passed on, so the
    serial backend (which takes no worker cap) and the pool backends share
    one construction path.
    """
    if max_workers is not None:
        kwargs["max_workers"] = max_workers
    return BACKENDS.create(name, **kwargs)
