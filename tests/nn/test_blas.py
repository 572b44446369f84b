"""Tests for the single-threaded BLAS training scope (``repro.nn.blas``)."""

from __future__ import annotations

import multiprocessing
import os
import threading

import pytest

from repro.nn import blas

requires_openblas = pytest.mark.skipif(
    blas.num_threads() is None, reason="numpy's bundled OpenBLAS not found"
)


class FakeOpenBLAS:
    """Stands in for the library and records every thread-count change."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.calls: list[int] = []
        self._lock = threading.Lock()

    def get_threads(self) -> int:
        return self.threads

    def set_threads(self, n: int) -> None:
        with self._lock:
            self.calls.append(n)
            self.threads = n

    def config(self) -> bytes:
        return b"OpenBLAS fake"


@pytest.fixture
def fake(monkeypatch):
    library = FakeOpenBLAS(threads=3)
    monkeypatch.setattr(blas, "_openblas", lambda: library)
    return library


@requires_openblas
def test_scope_pins_one_thread_and_restores_the_prior_count():
    lib = blas._openblas()
    prior = blas.num_threads()
    try:
        lib.set_threads(2)
        with blas.single_threaded:
            assert blas.num_threads() == 1
        assert blas.num_threads() == 2
    finally:
        lib.set_threads(prior)


def test_nested_scopes_restore_once_at_the_outermost_exit(fake):
    with blas.single_threaded:
        with blas.single_threaded:
            assert fake.threads == 1
        assert fake.threads == 1
    assert fake.threads == 3
    assert fake.calls == [1, 3]


def test_scope_restores_when_the_body_raises(fake):
    with pytest.raises(RuntimeError), blas.single_threaded:
        raise RuntimeError("boom")
    assert fake.threads == 3


def test_concurrent_scopes_restore_exactly_once(fake):
    inside = threading.Barrier(4)
    seen: list[int] = [0] * 4

    def train(slot: int) -> None:
        with blas.single_threaded:
            inside.wait(timeout=10)
            seen[slot] = fake.threads
            inside.wait(timeout=10)

    threads = [threading.Thread(target=train, args=(i,)) for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert seen == [1, 1, 1, 1]
    assert fake.calls == [1, 3]
    assert fake.threads == 3


def test_decorated_function_runs_inside_the_scope(fake):
    @blas.single_threaded
    def train() -> tuple[int, bool]:
        return fake.threads, blas.single_threaded.active

    assert train() == (1, True)
    assert fake.threads == 3
    assert not blas.single_threaded.active


def test_without_the_library_the_scope_is_a_no_op(monkeypatch):
    monkeypatch.setattr(blas, "_openblas", lambda: None)
    with blas.single_threaded:
        assert blas.num_threads() is None
    fingerprint = blas.fingerprint()
    assert fingerprint["blas_config"] is None
    assert fingerprint["blas_threads"] is None
    assert fingerprint["training_scope_active"] is False


def test_fingerprint_reads_the_library_and_the_scope(fake):
    fingerprint = blas.fingerprint()
    assert fingerprint["blas_config"] == "OpenBLAS fake"
    assert fingerprint["blas_threads"] == 3
    assert fingerprint["training_scope_active"] is False
    with blas.single_threaded:
        inside = blas.fingerprint()
    assert inside["blas_threads"] == 1
    assert inside["training_scope_active"] is True


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_child_forked_while_the_lock_is_held_can_enter_the_scope(fake):
    # Another thread of the parent is mid-way through entering or leaving
    # the scope when a process backend forks its pool.
    ctx = multiprocessing.get_context("fork")
    with blas.single_threaded._lock:
        child = ctx.Process(target=_enter_scope_once)
        child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
    assert child.exitcode == 0


def _enter_scope_once() -> None:
    with blas.single_threaded:
        pass
