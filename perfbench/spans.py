"""Outside-in layer tracing: wrap public functions, keep spans in memory.

Nothing under ``src/`` knows about this module.  :func:`install_driver` and
:func:`install_worker` replace each traced public function or method with a
timing wrapper at every name its callers look it up by, so the program runs
unchanged apart from the wrappers' own cost.  A span records ``(name,
parent, start, end)``; spans nest per thread, so a layer's self time is its
duration minus its direct children's.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import sys
import threading
import time
from collections import Counter

#: Environment variable naming the directory traced workers write totals to.
WORKER_ENV = "PERFBENCH_WORKER_TRACE"

#: Directory holding the ``sitecustomize`` start-up hook for traced workers.
WORKER_HOOK_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "workerhook")


class Tracer:
    """In-memory span store with per-thread nesting."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        #: ``[name_id, parent_index, start, end, thread_ident]`` per span.
        self.spans: list[list] = []
        #: Work counts taken at the same boundaries as the spans.
        self.counts: Counter = Counter()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def active(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        name_id = self._ids.get(name)
        return name_id is not None and any(
            self.spans[i][0] == name_id for i in self._stack()
        )

    def call(self, name: str, fn, args=(), kwargs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        name_id = self._ids.get(name)
        if name_id is None:
            name_id = self._ids[name] = len(self.names)
            self.names.append(name)
        if stack and self.spans[stack[-1]][0] == name_id:
            # A wrapped override calling its wrapped base: one span, not two.
            return fn(*args, **(kwargs or {}))
        span = [name_id, stack[-1] if stack else -1, 0.0, 0.0, threading.get_ident()]
        index = len(self.spans)
        self.spans.append(span)
        stack.append(index)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            span[3] = time.perf_counter()
            stack.pop()

    def child_time(self) -> list[float]:
        """Per span: the summed duration of its direct children."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] >= 0:
                child[span[1]] += span[3] - span[2]
        return child

    def totals(self) -> dict:
        """Per span name: ``busy`` (inclusive), ``self`` seconds and ``calls``."""
        child = self.child_time()
        out: dict[str, dict] = {}
        for index, span in enumerate(self.spans):
            entry = out.setdefault(
                self.names[span[0]], {"busy": 0.0, "self": 0.0, "calls": 0}
            )
            duration = span[3] - span[2]
            entry["busy"] += duration
            entry["self"] += duration - child[index]
            entry["calls"] += 1
        return out

    def write(self, path: str) -> None:
        """Write every span (and the counts) as JSON."""
        with open(path, "w") as handle:
            json.dump(
                {"names": self.names, "spans": self.spans, "counts": dict(self.counts)},
                handle,
            )


# -- wrapping ---------------------------------------------------------------


def _rebind(original, replacement) -> None:
    """Point every loaded ``repro`` module's reference to ``original`` at ``replacement``."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _timed(tracer: Tracer, name: str, original, count):
    """``original`` inside a span called ``name``; ``count(args, kwargs)`` adds to counts."""

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if count is not None:
            count(args, kwargs)
        return tracer.call(name, original, args, kwargs)

    return wrapper


def wrap_function(tracer: Tracer, module, attr: str, name: str, count=None, everywhere=True):
    """Time ``module.attr`` as span ``name``.

    With ``everywhere`` the wrapper also replaces every ``from module import
    attr`` binding in the loaded ``repro`` modules — the name the caller
    actually looks up.
    """
    original = getattr(module, attr)
    wrapper = _timed(tracer, name, original, count)
    setattr(module, attr, wrapper)
    if everywhere:
        _rebind(original, wrapper)


def wrap_method(tracer: Tracer, cls, attr: str, name: str, count=None):
    """Time ``cls.attr`` (own or inherited) as span ``name`` on instances of ``cls``."""
    setattr(cls, attr, _timed(tracer, name, getattr(cls, attr), count))


def wrap_generator(tracer: Tracer, cls, attr: str, name: str):
    """Time each step of the generator method ``cls.attr`` as span ``name``.

    Only the time spent producing an item is inside the span; the
    consumer's work between items is not.
    """
    original = getattr(cls, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        inner = original(*args, **kwargs)
        try:
            while True:
                try:
                    item = tracer.call(name, next, (inner,))
                except StopIteration:
                    return
                yield item
        finally:
            inner.close()

    setattr(cls, attr, wrapper)


def _counter(tracer: Tracer, key: str, size=None):
    """A ``count`` callback adding ``size(args, kwargs)`` (default 1) to ``key``."""

    def count(args, kwargs):
        tracer.counts[key] += 1 if size is None else size(args, kwargs)

    return count


def _batched_clients(args, kwargs) -> int:
    """Clients in one ``local_train_batched(model, global_params, datasets, ...)`` call."""
    return len(args[2] if len(args) > 2 else kwargs["datasets"])


def _compute_layers(tracer: Tracer) -> None:
    """Layers that run wherever clients train: driver and workers alike."""
    from repro.federated import client
    from repro.nn import losses, model, optim, serialization

    # Batched subclasses first, so their inherited methods are wrapped under
    # their own names before the base class is.
    wrap_method(tracer, model.BatchedSequential, "forward", "nn.batched_forward")
    wrap_method(tracer, model.BatchedSequential, "backward", "nn.batched_backward")
    for attr in ("step", "step_slice", "zero_grad"):
        wrap_method(tracer, optim.BatchedSGD, attr, "nn.batched_optim")
    wrap_method(tracer, model.Sequential, "forward", "nn.forward")
    wrap_method(tracer, model.Sequential, "backward", "nn.backward")
    wrap_method(tracer, optim.SGD, "step", "nn.optim", _counter(tracer, "nn.steps"))
    wrap_method(tracer, optim.SGD, "zero_grad", "nn.optim")
    wrap_method(tracer, losses.SoftmaxCrossEntropy, "forward", "nn.loss")
    wrap_method(tracer, losses.SoftmaxCrossEntropy, "backward", "nn.loss")
    wrap_function(tracer, serialization, "flatten_params", "nn.flatten")
    wrap_function(tracer, serialization, "unflatten_params", "nn.unflatten")
    wrap_function(
        tracer, client, "local_train", "client.train", _counter(tracer, "client.tasks")
    )
    wrap_function(
        tracer, client, "local_train_batched", "client.batched_train",
        _counter(tracer, "client.batched_tasks", _batched_clients),
    )
    from repro.federated.secagg import masking

    wrap_function(tracer, masking, "mask_update", "secagg.mask")


def install_driver(tracer: Tracer, scenario) -> None:
    """Wrap every traced layer the experiment driver runs."""
    import repro.experiments.runner as runner
    # Binds local_train_batched by name: imported before the rebinding below.
    import repro.federated.engine.batched  # noqa: F401
    from repro.core.collapois import CollaPoisAttack
    from repro.federated.engine.distributed import coordinator, protocol
    from repro.federated.engine.ledger import LedgerHook
    from repro.federated.population import base as population
    from repro.federated.population import participation
    from repro.federated.secagg import masking
    from repro.metrics import accuracy
    from repro.registry import BACKENDS, DEFENSES

    _compute_layers(tracer)
    wrap_function(tracer, masking, "unmask_update", "secagg.unmask")
    wrap_method(tracer, CollaPoisAttack, "setup", "attacks.setup")
    wrap_method(
        tracer, CollaPoisAttack, "compute_update", "attacks.update",
        _counter(tracer, "attacks.updates"),
    )

    defense = DEFENSES.get(scenario.defense)

    def matrix_rows(args, kwargs):
        # Rows aggregated at the top level; a buffering defense's finalize
        # calls aggregate on updates accumulate already counted.
        if tracer.active("defenses.finalize"):
            return 0
        return len(args[1])

    wrap_method(
        tracer, defense, "aggregate", "defenses.aggregate",
        _counter(tracer, "defenses.updates", matrix_rows),
    )
    wrap_method(
        tracer, defense, "accumulate", "defenses.accumulate",
        _counter(tracer, "defenses.updates"),
    )
    wrap_method(tracer, defense, "finalize", "defenses.finalize")

    def evaluated(args, kwargs):
        return len(kwargs.get("client_ids") or ())

    wrap_function(
        tracer, accuracy, "evaluate_clients", "metrics.evaluate",
        _counter(tracer, "metrics.clients_evaluated", evaluated),
    )
    wrap_method(tracer, population.ClientPopulation, "client", "population.client")
    for model_cls in (
        participation.UniformParticipation,
        participation.ChurnParticipation,
    ):
        wrap_method(tracer, model_cls, "sample_round", "participation.sample")

    wrap_method(tracer, coordinator.DistributedBackend, "spawn_local", "distributed.spawn")
    frames = _counter(tracer, "distributed.frames")
    wrap_function(tracer, protocol, "encode_message", "distributed.encode")
    wrap_function(tracer, protocol, "decode_message", "distributed.decode")
    wrap_function(tracer, protocol, "send_message", "distributed.send", frames)
    wrap_function(tracer, protocol, "recv_message", "distributed.recv", frames)

    # The streaming path pulls updates from iter_updates, the buffered
    # (matrix) path takes them from execute at the round barrier.
    backend = BACKENDS.get(scenario.backend)
    wrap_generator(tracer, backend, "iter_updates", "engine.collect")
    wrap_method(tracer, backend, "execute", "engine.collect")
    wrap_method(tracer, LedgerHook, "on_round_start", "engine.ledger")
    wrap_method(tracer, LedgerHook, "on_update", "engine.ledger")
    wrap_function(tracer, runner, "build_dataset", "runner.build")
    wrap_function(tracer, runner, "build_backend", "runner.build")


def install_worker(out_dir: str) -> None:
    """Trace a distributed worker's compute layers; write totals at exit."""
    from repro.federated.engine.distributed import worker

    tracer = Tracer()
    _compute_layers(tracer)
    wrap_function(
        tracer, worker, "run_benign_task", "distributed.worker_train", everywhere=False
    )
    wrap_function(
        tracer, worker, "build_context", "distributed.worker_context_build",
        everywhere=False,
    )

    def dump() -> None:
        path = os.path.join(out_dir, f"worker-{os.getpid()}.json")
        with open(path, "w") as handle:
            json.dump({"totals": tracer.totals(), "counts": dict(tracer.counts)}, handle)

    atexit.register(dump)
