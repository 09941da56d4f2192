from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import corpora
import oracles
from biblio import (
    ComputationError,
    Corpus,
    EmptyInputError,
    Journal,
    Paper,
    Quartile,
    SchemaInfo,
    boundary_ties,
    decimal_str,
    percentile,
    quartile_distribution,
    quartile_of_rank,
    quartile_partition,
    rank_category,
    ranking,
)

S = "subjects"


def ranking_corpus(journal_specs, papers=(), year=2021):
    """journal_specs: (id, categories tuple or dict, metric or None)."""
    journals = []
    for jid, cats, metric in journal_specs:
        categories = cats if isinstance(cats, dict) else {S: tuple(cats)}
        metric_map = {} if metric is None else {year: Fraction(metric)}
        journals.append(Journal(jid, categories, metric_map))
    return Corpus([SchemaInfo(S)], journals, list(papers), citation_counts={})


def one_category(metrics, year=2021):
    specs = [(f"j{i:02d}", ("A",), m) for i, m in enumerate(metrics)]
    return ranking_corpus(specs, year=year)


# -- partitions ----------------------------------------------------------------


@pytest.mark.parametrize(
    "n,expected",
    [
        (16, (4, 4, 4, 4)),
        (17, (4, 4, 4, 5)),
        (18, (4, 5, 4, 5)),
        (19, (4, 5, 5, 5)),
        (1, (0, 0, 0, 1)),
        (2, (0, 1, 0, 1)),
        (3, (0, 1, 1, 1)),
        (4, (1, 1, 1, 1)),
    ],
)
def test_partition_counts(n, expected):
    assert quartile_partition(n).counts == expected


def test_partition_rejects_empty():
    with pytest.raises(EmptyInputError):
        quartile_partition(0)


def test_quartile_of_rank_17():
    bounds = quartile_partition(17)
    assert quartile_of_rank(4, bounds) is Quartile.Q1
    assert quartile_of_rank(5, bounds) is Quartile.Q2
    assert quartile_of_rank(12, bounds) is Quartile.Q3
    assert quartile_of_rank(13, bounds) is Quartile.Q4
    with pytest.raises(ComputationError):
        quartile_of_rank(18, bounds)


def test_partition_exhaustive_against_positional_oracle():
    for n in range(1, 10_001):
        bounds = quartile_partition(n)
        counts = bounds.counts
        oracle = oracles.positional_quartiles(n)
        assert counts == tuple(oracle.count(q) for q in (1, 2, 3, 4))
        assert sum(counts) == n
        assert set(counts) <= {n // 4, n // 4 + 1}
        assert counts[0] <= counts[3]
        if n <= 200:
            labels = [quartile_of_rank(rank, bounds) for rank in range(1, n + 1)]
            assert labels == oracle
            assert all(type(q) is Quartile for q in labels)


# -- competition ranking ---------------------------------------------------------


def test_competition_ranks_skip_after_tie():
    ranking = rank_category(one_category([2, 2, 1]), S, "A", 2021)
    assert [(e.journal_id, e.rank) for e in ranking.entries] == [
        ("j00", 1),
        ("j01", 1),
        ("j02", 3),
    ]


def test_tied_metrics_order_by_id():
    ranking = rank_category(one_category([1, 2, 2]), S, "A", 2021)
    assert [e.journal_id for e in ranking.entries] == ["j01", "j02", "j00"]


@given(st.lists(st.integers(min_value=0, max_value=30), min_size=1, max_size=40))
def test_ranks_match_pairwise_oracle(metrics):
    ranking = rank_category(one_category(metrics), S, "A", 2021)
    by_id = {e.journal_id: e.rank for e in ranking.entries}
    expected = oracles.competition_ranks(metrics)
    assert [by_id[f"j{i:02d}"] for i in range(len(metrics))] == expected


@given(st.lists(st.fractions(min_value=0, max_value=50, max_denominator=20),
                min_size=1, max_size=30))
def test_monotone_transform_preserves_ranks_and_quartiles(metrics):
    plain = rank_category(one_category(metrics), S, "A", 2021)
    squeezed = rank_category(
        one_category([m * m + 3 * m for m in metrics]), S, "A", 2021
    )
    assert [(e.journal_id, e.rank) for e in plain.entries] == [
        (e.journal_id, e.rank) for e in squeezed.entries
    ]
    assert [e.quartile for e in plain.entries] == [e.quartile for e in squeezed.entries]


def test_journals_without_metric_are_listed_not_ranked():
    corpus = ranking_corpus(
        [("j1", ("A",), 3), ("j2", ("A",), None), ("j3", ("A",), 1)]
    )
    ranking = rank_category(corpus, S, "A", 2021)
    assert ranking.n == 2
    assert ranking.excluded == ("j2",)
    with pytest.raises(ComputationError):
        ranking.rank_of("j2")


def test_rank_category_error_cases():
    with pytest.raises(EmptyInputError):
        rank_category(ranking_corpus([("j1", ("A",), 1)]), S, "B", 2021)
    with pytest.raises(ComputationError):
        rank_category(ranking_corpus([("j1", ("A",), None)]), S, "A", 2021)


# -- percentiles -----------------------------------------------------------------


def test_percentile_example():
    value = percentile(18, 86)
    assert value == Fraction(6850, 86)
    assert decimal_str(value, 1) == "79.7"


def test_percentile_single_journal_is_50():
    assert percentile(1, 1) == 50


def test_percentile_bounds():
    with pytest.raises(ComputationError):
        percentile(0, 5)
    with pytest.raises(ComputationError):
        percentile(6, 5)


@given(st.integers(min_value=1, max_value=5000), st.data())
def test_percentile_symmetry_and_monotonicity(n, data):
    r = data.draw(st.integers(min_value=1, max_value=n))
    assert percentile(r, n) + percentile(n + 1 - r, n) == 100
    if r < n:
        assert percentile(r, n) > percentile(r + 1, n)


@given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=25,
                unique=True))
def test_percentile_matches_midpoint_count_for_distinct_metrics(metrics):
    ranking = rank_category(one_category(metrics), S, "A", 2021)
    n = ranking.n
    for i in range(len(metrics)):
        mine = percentile(ranking.rank_of(f"j{i:02d}"), n)
        assert mine == oracles.midpoint_percentile(metrics, i)


# -- quartile assignment -----------------------------------------------------------


def test_tie_block_shares_minimal_rank_quartile():
    # N=5 with ranks (1, 2, 2, 2, 5): the rank-2 block stays whole in Q2 and
    # is flagged because its positions cross the Q2/Q3 cuts.
    corpus = one_category([10, 5, 5, 5, 1])
    ranking = rank_category(corpus, S, "A", 2021)
    assert [e.rank for e in ranking.entries] == [1, 2, 2, 2, 5]
    labels = {e.journal_id: e.quartile for e in ranking.entries}
    assert labels == {
        "j00": Quartile.Q1,
        "j01": Quartile.Q2,
        "j02": Quartile.Q2,
        "j03": Quartile.Q2,
        "j04": Quartile.Q4,
    }
    ties = boundary_ties(ranking)
    assert len(ties) == 1
    assert (ties[0].rank, ties[0].size, ties[0].label) == (2, 3, Quartile.Q2)


def test_interior_tie_is_not_flagged():
    # N=8, cuts at 2, 4, 6; a tie block at positions 3..4 sits inside Q2.
    ranking = rank_category(one_category([9, 8, 5, 5, 4, 3, 2, 1]), S, "A", 2021)
    assert boundary_ties(ranking) == ()


@given(st.lists(st.integers(min_value=0, max_value=8), min_size=1, max_size=40))
def test_quartiles_match_tie_oracle(metrics):
    ranking = rank_category(one_category(metrics), S, "A", 2021)
    labels = {e.journal_id: e.quartile for e in ranking.entries}
    expected = oracles.quartiles_with_ties(metrics)
    assert [int(labels[f"j{i:02d}"]) for i in range(len(metrics))] == expected


# -- distributions ----------------------------------------------------------------


def two_disjoint_17():
    specs = [(f"a{i:02d}", ("A",), 17 - i) for i in range(17)]
    specs += [(f"b{i:02d}", ("B",), 17 - i) for i in range(17)]
    return ranking_corpus(specs)


def test_distribution_per_category_sums_cell_counts():
    report = quartile_distribution(two_disjoint_17(), S, 2021)
    assert [report.counts[q] for q in Quartile] == [8, 8, 8, 10]
    assert report.total == 34


def test_distribution_database_best_counts_each_journal_once():
    corpus = ranking_corpus(
        [
            ("jx", {S: ("A", "B")}, 1),
            ("a1", ("A",), 5), ("a2", ("A",), 4), ("a3", ("A",), 3), ("a4", ("A",), 2),
            ("b1", ("B",), Fraction(1, 2)), ("b2", ("B",), Fraction(1, 3)),
            ("b3", ("B",), Fraction(1, 4)),
        ]
    )
    per_cat = quartile_distribution(corpus, S, 2021, mode="per_category")
    best = quartile_distribution(corpus, S, 2021, mode="database_best")
    assert per_cat.total == 9  # jx counted in both categories
    assert best.total == 8  # jx counted once, at its best quartile
    assert best.counts[Quartile.Q1] == per_cat.counts[Quartile.Q1]
    assert best.counts[Quartile.Q4] == per_cat.counts[Quartile.Q4] - 1


def test_distribution_paper_level_weighting():
    specs = [(f"j{i:02d}", ("A",), 17 - i) for i in range(17)]
    papers = []
    seq = 0
    for i in range(17):
        rank = i + 1
        volume = 10 if rank <= 4 else (1 if rank >= 13 else 2)
        for _ in range(volume):
            papers.append(Paper(f"p{seq:03d}", f"j{i:02d}", 2021, "article"))
            seq += 1
    corpus = ranking_corpus(specs, papers=papers)
    report = quartile_distribution(corpus, S, 2021, level="papers")
    assert [report.counts[q] for q in Quartile] == [40, 8, 8, 5]
    assert report.share(Quartile.Q1) == Fraction(40, 61)
    assert report.share(Quartile.Q1) > Fraction(1, 4)
    # Ranked journals with no papers that year: every share is 0, not a division by 0.
    empty = quartile_distribution(ranking_corpus(specs), S, 2021, level="papers")
    assert (empty.total, empty.share(Quartile.Q1)) == (0, 0)
    assert empty.to_csv_text().splitlines()[1:] == [f"{q},0,0.0000" for q in Quartile]


def test_min_category_size_gate_is_off_by_default():
    corpus = ranking_corpus([("j1", ("A",), 2), ("j2", ("B",), 1)])
    report = quartile_distribution(corpus, S, 2021)
    assert report.skipped_categories == ()
    assert report.counts[Quartile.Q4] == 2
    with pytest.raises(ComputationError):
        quartile_distribution(corpus, S, 2021, min_category_size=2)


def test_min_category_size_skips_and_lists():
    specs = [(f"a{i}", ("A",), 9 - i) for i in range(5)]
    specs += [("b1", ("B",), 1)]
    report = quartile_distribution(ranking_corpus(specs), S, 2021, min_category_size=2)
    assert report.skipped_categories == ("B",)
    assert report.total == 5


def test_distribution_flags_boundary_ties():
    report = quartile_distribution(one_category([10, 5, 5, 5, 1]), S, 2021)
    assert len(report.ties_at_cuts) == 1
    assert report.ties_at_cuts[0].category == "A"


def test_distribution_rejects_unknown_axes(two_papers):
    with pytest.raises(ComputationError):
        quartile_distribution(two_papers, S, 2020, level="volumes")
    with pytest.raises(ComputationError):
        quartile_distribution(two_papers, S, 2020, mode="best")


def test_distribution_rejects_a_negative_size_gate():
    with pytest.raises(ComputationError, match="^min_category_size must be >= 0, got -5$"):
        quartile_distribution(corpora.make_quartile_mix(), S, 2021, min_category_size=-5)


def test_distribution_requires_a_rankable_category():
    corpus = ranking_corpus([("j1", ("A",), None)])
    with pytest.raises(ComputationError):
        quartile_distribution(corpus, S, 2021)


def test_distribution_report_renderings():
    report = quartile_distribution(two_disjoint_17(), S, 2021)
    text = report.to_csv_text()
    assert text.splitlines()[0] == "quartile,count,share"
    assert text.splitlines()[1] == "Q1,8,0.2353"
    d = report.to_json_dict()
    assert d["total"] == 34
    assert d["quartiles"]["Q4"]["count"] == 10
    assert d["quartiles"]["Q4"]["share"]["rational"] == "5/17"


# Per journal: its categories (repeats allowed), a tie-heavy metric or none for
# the year, and its papers, alternately of the year and of the year before.
journal_sets = st.lists(
    st.tuples(st.lists(st.sampled_from("ABCD"), max_size=3),
              st.none() | st.integers(min_value=0, max_value=4),
              st.integers(min_value=0, max_value=3)),
    min_size=1, max_size=12,
)


@given(journal_sets, st.sampled_from(["journals", "papers"]),
       st.sampled_from(["per_category", "database_best"]),
       st.integers(min_value=0, max_value=13))
@example([(["A", "A", "B"], 1, 2), (["A"], 1, 1), (["B"], 2, 1)], "papers", "per_category", 0)
@example([(["A"], None, 1), (["B"], 3, 1)], "journals", "database_best", 2)
def test_distribution_matches_per_category_oracle(specs, level, mode, min_size):
    journals, papers = [], []
    for i, (cats, metric, volume) in enumerate(specs):
        jid = f"j{i:02d}"
        metrics = {} if metric is None else {2021: Fraction(metric)}
        journals.append(Journal(jid, {S: tuple(cats)}, metrics))
        papers += [Paper(f"{jid}-{k}", jid, 2021 - k % 2, "article") for k in range(volume)]
    corpus = Corpus([SchemaInfo(S)], journals, papers, citation_counts={})
    args = (corpus, S, 2021, level, mode, min_size)
    assert oracles.outcome(lambda: quartile_distribution(*args)) == oracles.outcome(
        lambda: oracles.quartile_distribution(*args))


def test_distribution_ranks_each_category_once(monkeypatch):
    ranked, scans, rank = [], [], ranking._rank

    class Journals(dict):
        def values(self):
            scans.append(1)
            return super().values()

    def counting(schema, category, year, members):
        ranked.append(category)
        return rank(schema, category, year, members)

    def refused(*args):
        raise AssertionError("quartile_distribution called rank_category")

    monkeypatch.setattr(ranking, "_rank", counting)
    monkeypatch.setattr(ranking, "rank_category", refused)
    corpus = corpora.make_quartile_mix()
    corpus.journals = Journals(corpus.journals)
    corpus.journals["jm"] = corpus.journals["jm"]._replace(categories={S: ("A", "B", "A")})
    quartile_distribution(corpus, S, 2021, level="papers", mode="database_best")
    assert ranked == ["A", "B", "C", "D"]
    assert len(scans) == 1


def test_distribution_excludes_a_journal_whose_categories_are_all_skipped():
    # c1, sole member of C, has no 2021 metric: C is unrankable, and c1 is still listed.
    for gate in (0, 2):
        report = quartile_distribution(corpora.make_quartile_mix(), S, 2021,
                                       min_category_size=gate)
        assert report.excluded_journals == ("a5", "c1")
        assert report.skipped_categories == (("C",) if gate == 0 else ("C", "D"))
