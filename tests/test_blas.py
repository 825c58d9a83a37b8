import sys
import threading

import numpy as np
import pytest

from binsed import blas, gen_random_model, run_monolithic
from tests.conftest import random_mel_input

openblas = blas.find_openblas()
needs_openblas = pytest.mark.skipif(openblas is None, reason="numpy is not linked to OpenBLAS")


@pytest.fixture
def two_threads():
    """Start each test from a known count other than one, restored afterwards."""
    before = openblas.get_num_threads()
    openblas.set_num_threads(2)
    yield
    openblas.set_num_threads(before)


@needs_openblas
def test_scope_runs_blas_single_threaded_and_restores(two_threads):
    with blas.single_thread():
        assert openblas.get_num_threads() == 1
        with blas.single_thread():
            assert openblas.get_num_threads() == 1
        assert openblas.get_num_threads() == 1
    assert openblas.get_num_threads() == 2


@needs_openblas
def test_scope_restores_after_exception(two_threads):
    with pytest.raises(RuntimeError, match="inside"):
        with blas.single_thread():
            raise RuntimeError("inside")
    assert openblas.get_num_threads() == 2


@needs_openblas
def test_concurrent_holders_restore_only_when_last_exits(two_threads):
    first_in, second_in, first_out = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def first():
        with blas.single_thread():
            first_in.set()
            second_in.wait(5)
        seen["after_first"] = openblas.get_num_threads()
        first_out.set()

    def second():
        first_in.wait(5)
        with blas.single_thread():
            second_in.set()
            first_out.wait(5)
            seen["inside_second"] = openblas.get_num_threads()

    workers = [threading.Thread(target=first), threading.Thread(target=second)]
    for t in workers:
        t.start()
    for t in workers:
        t.join(10)
        assert not t.is_alive()
    assert seen == {"after_first": 1, "inside_second": 1}
    assert openblas.get_num_threads() == 2


@needs_openblas
def test_many_threads_leave_the_count_unchanged(two_threads):
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    errors = []

    def work():
        try:
            for _ in range(200):
                with blas.single_thread():
                    if openblas.get_num_threads() != 1:
                        errors.append(openblas.get_num_threads())
        except Exception as e:  # recorded for the assertion below
            errors.append(e)

    try:
        workers = [threading.Thread(target=work) for _ in range(8)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(30)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert openblas.get_num_threads() == 2


def test_scope_is_a_noop_without_openblas(monkeypatch):
    monkeypatch.setattr(blas, "find_openblas", lambda: None)
    before = openblas.get_num_threads() if openblas else None
    with blas.single_thread():
        assert (openblas.get_num_threads() if openblas else None) == before


@needs_openblas
def test_run_monolithic_leaves_thread_count_as_found(two_threads):
    model = gen_random_model(3)
    x = random_mel_input(np.random.default_rng(0), model.frontend)
    run_monolithic(x, model.network, threads=2)
    assert openblas.get_num_threads() == 2
