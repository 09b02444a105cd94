from concurrent.futures import Future

import pytest

from logictop import corpus
from logictop.corpus import (
    corpus_logics,
    corpus_spaces,
    degenerate_quartet,
    l3,
    l22,
    lv3,
    sierpinski,
    v_frame,
)


@pytest.fixture(scope="session")
def chain3_logic():
    return l3()


@pytest.fixture(scope="session")
def boolean4_logic():
    return l22()


@pytest.fixture(scope="session")
def vframe_logic():
    return lv3()


@pytest.fixture(scope="session")
def chain_space():
    return sierpinski()


@pytest.fixture(scope="session")
def vframe():
    return v_frame()


@pytest.fixture(scope="session")
def small_logics():
    """Corpus logics of up to three frame points plus the degenerate quartet."""
    return corpus_logics(3)


@pytest.fixture(scope="session")
def small_spaces():
    return corpus_spaces(3)


@pytest.fixture(scope="session")
def wide_spaces():
    """Every corpus space: the spectra of all distributive corpus logics
    up to five frame points plus the hand-built spaces."""
    return corpus_spaces(5)


@pytest.fixture(scope="session")
def quartet():
    return degenerate_quartet()


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace the corpus's process pool with one that runs each submitted
    task in this process.  Returns the record of every pool opened: the
    worker count it was asked for and the (fn, arg) tasks submitted to it."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.submitted = []
            pools.append((max_workers, self.submitted))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, arg):
            self.submitted.append((fn, arg))
            future = Future()
            future.set_result(fn(arg))
            return future

    monkeypatch.setattr(corpus, "ProcessPoolExecutor", InlinePool)
    return pools
