import pytest

from logictop.corpus import (
    corpus_frames,
    corpus_logics,
    corpus_spaces,
    degenerate_quartet,
    l3,
    l22,
    lv3,
    sierpinski,
    v_frame,
)
from logictop.core import _VALUES
from logictop.documents import _DOCUMENTS
from logictop.duality import logic_space, space_logic


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


def _forget_shared():
    """Empty the tables of parsed documents and shared values, and the
    caches whose results the value table shares, so no kept document,
    spectrum or dual logic is an object the table no longer holds."""
    _DOCUMENTS.clear()
    _VALUES.clear()
    logic_space.cache_clear()
    space_logic.cache_clear()


@pytest.fixture
def fresh_corpus():
    """Empty corpus lists and shared objects before and after the test.
    The cached lists hold the corpus spaces, and each space keeps its
    report, so a patched library function neither meets a report built
    before it nor leaves its own behind for later tests; nor does the
    value table hand back a space an earlier test built and analysed."""
    caches = (corpus_frames, corpus_logics, corpus_spaces)
    for cache in caches:
        cache.cache_clear()
    _forget_shared()
    yield
    for cache in caches:
        cache.cache_clear()
    _forget_shared()


@pytest.fixture
def fresh_documents():
    """Empty the tables of parsed documents and shared values before and
    after the test, so each text it parses is parsed afresh, into objects
    whose indices and reports no earlier test has built, and none is left
    for later tests."""
    _forget_shared()
    yield
    _forget_shared()
