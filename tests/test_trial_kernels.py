"""The Monte Carlo trial kernels against their one-call-per-draw forms.

``oracles`` keeps the corpus generator with a ``randint`` per size, a
``choices`` per doc type and a ``Paper`` per draw, the surplus rows with one
quartile partition per drawn category size, the mean and standard error with
one ``Fraction`` per value, and the CNCI rows with one full ``global_cnci`` per
regime on a generated corpus. The package's per-trial kernels, run over each
chunk of trials that the worker fan-out can hand one process, must give equal
bytes, rows and moments, or raise the same exception type with the same message.
"""
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from biblio import CitationModel, GenConfig, SizeDist, dump_corpus, generate_corpus
from biblio.synthesis import _cnci_row, _mean_se, _surplus_row


@pytest.mark.parametrize("span", [1, 2, 3, 8, 9, 255, 256, 10**12])
@pytest.mark.parametrize("low", [0, 7])
def test_size_draws_are_randint_draws(low, span):
    spec, n = SizeDist.uniform(low, low + span - 1), 500
    ours, theirs = random.Random(f"draws/{span}"), random.Random(f"draws/{span}")
    expected = [theirs.randint(low, low + span - 1) for _ in range(n)]
    assert spec.draws(ours, n) == expected
    assert ours.random() == theirs.random()
    # The tally reads a fresh stream of its own, in bulk for a span up to 255.
    assert spec._tally(random.Random(f"draws/{span}"), n) == Counter(expected)


def test_fixed_size_draws_consume_nothing():
    ours, theirs = random.Random(3), random.Random(3)
    assert SizeDist.fixed(5).draws(ours, 4) == [5] * 4
    assert ours.random() == theirs.random()

size_dists = st.one_of(
    st.builds(SizeDist.fixed, st.integers(0, 12)),
    st.builds(lambda low, span: SizeDist.uniform(low, low + span),
              st.integers(0, 5), st.integers(0, 10)),
)


def chunks(trials: int, workers: int) -> list[range]:
    """The trial ranges ``_run_trials`` gives its workers."""
    size = -(-trials // workers)
    return [range(a, min(a + size, trials)) for a in range(0, trials, size)]


def assert_chunks_match(row_of, oracle, config, trials, workers):
    for chunk in chunks(trials, workers):
        assert oracles.outcome(lambda: [row_of(config, t) for t in chunk]) == oracles.outcome(
            lambda: oracle(config, chunk.start, chunk.stop))


@settings(max_examples=300)
@given(size_dists, st.integers(1, 40), st.integers(0, 10**6),
       st.integers(1, 12), st.integers(1, 4))
@example(SizeDist.fixed(0), 3, 1, 2, 1)  # every category is empty: all-zero rows
@example(SizeDist.uniform(0, 3), 40, 1, 5, 2)
@example(SizeDist.uniform(2, 301), 40, 1, 3, 1)  # a span above 255 draws one at a time
def test_surplus_rows_and_moments_match_the_oracle(spec, categories, seed, trials, workers):
    config = GenConfig(seed=seed, num_categories=categories, journals_per_category=spec,
                       papers_per_journal=SizeDist.fixed(1))
    assert_chunks_match(_surplus_row, oracles.surplus_rows, config, trials, workers)
    rows = oracles.outcome(lambda: oracles.surplus_rows(config, 0, trials))
    if isinstance(rows, list):
        columns = [[r[q] for r in rows] for q in range(4)]
        columns += [[r[q] - r[0] for r in rows] for q in (1, 2, 3)]
        for values in columns:
            assert _mean_se(values) == oracles.mean_se(values)


@given(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40))
def test_mean_se_matches_the_per_value_oracle(values):
    mean, se = _mean_se(values)
    assert type(mean) is Fraction
    assert (mean, se) == oracles.mean_se(values)


citation_models = st.sampled_from((
    CitationModel(kind="lognormal", mu=-0.5, sigma=1.0, shift=0),  # mostly uncited
    CitationModel(kind="lognormal", mu=0.5, sigma=1.0, shift=0),
    CitationModel(kind="yule", rho=2.0),
))


@settings(max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    categories=st.integers(1, 3),
    journals=st.builds(lambda low, span: SizeDist.uniform(low, low + span),
                       st.integers(0, 2), st.integers(0, 2)),
    papers=st.builds(lambda low, span: SizeDist.uniform(low, low + span),
                     st.integers(0, 2), st.integers(0, 3)),
    prob=st.sampled_from((0.0, 0.5, 1.0)),
    model=citation_models,
    years=st.sampled_from(((2020,), (2020, 2021))),
    mix=st.sampled_from(((("article", 1.0),), (("article", 0.5), ("review", 0.5)))),
    trials=st.integers(1, 4),
    workers=st.integers(1, 3),
    correlate=st.booleans(),
    boost=st.sampled_from((0.0, 1.0, 2.5)),
)
def test_cnci_rows_match_five_oracle_runs(seed, categories, journals, papers, prob, model,
                                          years, mix, trials, workers, correlate, boost):
    config = GenConfig(seed=seed, num_categories=categories, journals_per_category=journals,
                       papers_per_journal=papers, multi_attribution_prob=prob,
                       citation_model=model, years=years, doc_type_mix=mix,
                       correlate_volume_with_metric=correlate,
                       multi_field_citation_boost=boost)
    assert_chunks_match(_cnci_row, oracles.cnci_rows, config, trials, workers)


def dumped(corpus, directory, name) -> bytes:
    journals, papers = directory / f"{name}-j.jsonl", directory / f"{name}-p.jsonl"
    dump_corpus(corpus, journals, papers)
    return journals.read_bytes() + papers.read_bytes()


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    categories=st.integers(1, 4),
    journals=size_dists.filter(lambda d: d.kind == "uniform" or d.value <= 4),
    papers=st.builds(lambda low, span: SizeDist.uniform(low, low + span),
                     st.integers(0, 3), st.integers(0, 8)),
    prob=st.sampled_from((0.0, 0.3, 1.0)),
    most=st.integers(1, 3),
    model=citation_models,
    years=st.sampled_from(((2020,), (2021, 2020))),
    mix=st.sampled_from(((("article", 1.0),), (("article", 0.8), ("review", 0.2)),
                         (("a", 0.0), ("b", 3.0), ("c", 1.0)))),
    correlate=st.booleans(),
    boost=st.sampled_from((0.0, 1.0, 2.5)),
    trial=st.none() | st.integers(0, 50),
)
def test_generated_bytes_equal_the_oracle_generator(
        tmp_path_factory, seed, categories, journals, papers, prob, most, model, years, mix,
        correlate, boost, trial):
    config = GenConfig(seed=seed, num_categories=categories, journals_per_category=journals,
                       papers_per_journal=papers, multi_attribution_prob=prob,
                       max_categories_per_journal=most, citation_model=model, years=years,
                       doc_type_mix=mix, correlate_volume_with_metric=correlate,
                       multi_field_citation_boost=boost)
    directory = tmp_path_factory.mktemp("corpus")
    ours = oracles.outcome(lambda: dumped(generate_corpus(config, trial), directory, "ours"))
    theirs = oracles.outcome(
        lambda: dumped(oracles.generate_corpus(config, trial), directory, "oracle"))
    assert ours == theirs
