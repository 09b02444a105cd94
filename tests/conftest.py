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
from logictop.documents import _DOCUMENTS


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
def fresh_corpus():
    """Empty corpus lists before and after the test.  The cached lists hold
    the corpus spaces, and each space keeps its report, so a patched
    library function neither meets a report built before it nor leaves
    its own behind for later tests."""
    caches = (corpus_frames, corpus_logics, corpus_spaces)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()


@pytest.fixture
def fresh_documents():
    """Empty the table of parsed documents before and after the test, so
    each text it parses is parsed afresh, into objects whose indices and
    reports no earlier test has built, and none is left for later tests."""
    _DOCUMENTS.clear()
    yield
    _DOCUMENTS.clear()
