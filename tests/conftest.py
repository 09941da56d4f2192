from __future__ import annotations

import gc

import pytest
from hypothesis import HealthCheck, settings

import corpora
from biblio import cli, dump_corpus, load_corpus

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def collector_left_as_found():
    """Fail a test that leaves the cyclic collector paused or changes its frozen set."""
    frozen = gc.get_freeze_count()
    yield
    assert gc.isenabled(), "the test left the cyclic collector disabled"
    assert gc.get_freeze_count() == frozen, "the test changed the collector's frozen set"


@pytest.fixture
def loads(monkeypatch) -> list:
    """The arguments of each corpus load that ``biblio.cli`` makes from here on."""
    calls, load = [], cli.load_corpus
    monkeypatch.setattr(cli, "load_corpus", lambda *a, **k: calls.append(a) or load(*a, **k))
    return calls


@pytest.fixture
def two_papers():
    return corpora.make_two_papers()


@pytest.fixture
def two_papers_swapped():
    return corpora.make_two_papers(swapped=True)


@pytest.fixture
def two_papers_edges():
    return corpora.make_two_papers_edges()


@pytest.fixture
def hundred():
    return corpora.make_hundred()


@pytest.fixture
def ws105():
    return corpora.make_ws105()


@pytest.fixture
def simpson():
    return corpora.make_simpson()


@pytest.fixture
def avgpct():
    return corpora.make_avgpct()


@pytest.fixture
def quota_mini():
    return corpora.make_quota_mini()


@pytest.fixture(scope="session")
def math2011():
    return corpora.make_math2011()


@pytest.fixture
def corpus_files(tmp_path):
    """Serialize a corpus and hand back CLI-ready paths."""

    def write(corpus, fmt="jsonl", with_edges=None):
        suffix = "csv" if fmt == "csv" else "jsonl"
        journals = tmp_path / f"journals.{suffix}"
        papers = tmp_path / f"papers.{suffix}"
        edges = tmp_path / f"edges.{suffix}"
        if with_edges is None:
            with_edges = corpus.edges is not None
        dump_corpus(corpus, journals, papers, edges if with_edges else None)
        return (journals, papers, edges if with_edges else None)

    return write


@pytest.fixture
def reload(corpus_files):
    """Round-trip a corpus through files so ids and dates survive parsing."""

    def go(corpus, fmt="jsonl"):
        journals, papers, edges = corpus_files(corpus, fmt=fmt)
        loaded = load_corpus(journals, papers, edges)
        assert loaded.load_report.clean, loaded.load_report.notes
        return loaded

    return go
