import itertools
import logging
import random
import re
from datetime import date
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
import oracles
from biblio import (
    AuthorCredit,
    CitationEdge,
    ComputationError,
    Corpus,
    EmptyInputError,
    HcpDecision,
    Journal,
    MissingDateError,
    Paper,
    SchemaInfo,
    decimal_str,
    entity_hcp_share,
    hcp_report,
    hcp_run,
    hcp_selection,
    parse_tiebreak_chain,
    provisional_hcp_ids,
    rational_str,
    tiebreak_chronology,
    tiebreak_citing_excellence,
    tiebreak_trajectory,
)
from biblio import excellence
from biblio.corpus import CellKey
from biblio.excellence import _ONE

S = corpora.SCHEMA
FICT = CellKey("fict", 2019, "article")
MATH11 = CellKey("math", 2011, "article")
UNKNOWN_SORTITION = re.escape(
    "unknown tie-break method 'sortition' (choose from chronology, trajectory, citing-excellence)"
)


def one_cell(counts, year=2019):
    journals = [Journal("jf", {"f": ("fict",)}, {})]
    papers = [Paper(f"p{i:03d}", "jf", year, "article") for i in range(len(counts))]
    explicit = {p.id: c for p, c in zip(papers, counts)}
    return Corpus([SchemaInfo("f", True)], journals, papers, citation_counts=explicit)


def cell_selection(corpus, percent=1, cell=FICT, schema="f", **options):
    """The threshold and decisions of ``hcp_selection`` sliced to the one cell."""
    (result,), decisions = hcp_selection(
        corpus, schema, top_percent=percent, years=[cell.year], doc_types=[cell.doc_type],
        **options,
    )
    assert result.cell == cell
    return result, decisions


# -- thresholds ------------------------------------------------------------------


def test_hundred_cell_threshold(hundred):
    result, _ = cell_selection(hundred)
    assert (result.quota, result.threshold) == (1, 1)
    assert (result.above_count, result.tie_count) == (0, 90)


def test_ws105_threshold(ws105):
    result, _ = cell_selection(ws105, percent=10)
    assert (result.quota, result.threshold) == (11, 10)
    assert (result.above_count, result.tie_count) == (5, 10)


def test_threshold_accepts_rational_percent(hundred):
    result, _ = cell_selection(hundred, percent="1/2")
    assert result.top_percent == Fraction(1, 2)
    assert result.quota == 1  # half-up of 0.5


def test_quota_zero_short_circuits():
    corpus = one_cell([5] * 10)
    result, decisions = cell_selection(corpus)
    assert result.quota == 0 and result.threshold is None
    assert decisions == []
    chain = parse_tiebreak_chain(["chronology"])
    assert cell_selection(corpus, method="quota", tiebreak_chain=chain)[1] == []


def test_threshold_validation(hundred):
    for bad in (0, 101, -3):
        with pytest.raises(ComputationError):
            cell_selection(hundred, bad)


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300),
    st.integers(min_value=1, max_value=100),
)
def test_threshold_structure_matches_oracle(counts, percent):
    corpus = one_cell(counts)
    result, _ = cell_selection(corpus, percent)
    if result.quota == 0:
        assert oracles.decimal_half_up(Fraction(percent) * len(counts) / 100) == 0
        return
    quota, threshold, above, ties = oracles.quota_threshold(counts, Fraction(percent))
    assert (result.quota, result.threshold) == (quota, threshold)
    assert (result.above_count, result.tie_count) == (above, ties)
    assert above < quota <= above + ties


# -- classification ---------------------------------------------------------------


def test_inclusive_takes_every_tied_paper(hundred):
    _, decisions = cell_selection(hundred, esi_low_threshold=False)
    assert len(decisions) == 90
    assert all(d.status == "full" and d.weight == 1 for d in decisions)


def test_exclusive_takes_none_at_the_threshold(hundred, ws105):
    _, decisions = cell_selection(hundred, method="exclusive", esi_low_threshold=False)
    assert decisions == []
    _, decisions = cell_selection(ws105, percent=10, method="exclusive")
    assert len(decisions) == 5
    assert {d.paper_id for d in decisions} == {f"p{i:03d}" for i in range(5)}


def test_fractional_ws_weights(hundred, ws105):
    result, decisions = cell_selection(
        hundred, method="fractional_ws", esi_low_threshold=False)
    assert len(decisions) == 90
    assert {d.weight for d in decisions} == {Fraction(1, 90)}
    assert sum(d.weight for d in decisions) == result.quota

    _, decisions = cell_selection(ws105, percent=10, method="fractional_ws")
    full = [d for d in decisions if d.status == "full"]
    partial = [d for d in decisions if d.status == "fractional"]
    assert len(full) == 5 and len(partial) == 10
    assert {d.weight for d in partial} == {Fraction(6, 10)}
    assert sum(d.weight for d in decisions) == 11


def test_low_threshold_rule_empties_the_cell(hundred):
    for method in ("inclusive", "exclusive", "fractional_ws"):
        assert cell_selection(hundred, method=method)[1] == []


def test_low_threshold_rule_boundary():
    at_two = one_cell([5, 2, 2, 2] + [0] * 6)
    result, decisions = cell_selection(at_two, percent=20)
    assert result.threshold == 2
    assert decisions == []

    at_three = one_cell([5, 3, 3, 3] + [0] * 6)
    result, decisions = cell_selection(at_three, percent=20)
    assert result.threshold == 3
    assert len(decisions) == 4


def test_classify_rejects_unknown_method(hundred):
    with pytest.raises(ComputationError, match="unknown classification method"):
        cell_selection(hundred, method="lottery", esi_low_threshold=False)


def test_decisions_sorted_by_count_then_id(ws105):
    _, decisions = cell_selection(ws105, percent=10)
    keys = [(-ws105.citation_counts[d.paper_id], d.paper_id) for d in decisions]
    assert keys == sorted(keys)


def test_bumping_a_deep_below_paper_changes_nothing(ws105):
    before = {d.paper_id for d in hcp_run(ws105, "f", top_percent=10)}
    counts = dict(ws105.explicit_counts)
    counts["p104"] = 9  # still strictly below the threshold of 10
    bumped = Corpus(
        ws105.schemas.values(), ws105.journals.values(), ws105.papers.values(),
        citation_counts=counts,
    )
    assert {d.paper_id for d in hcp_run(bumped, "f", top_percent=10)} == before


@given(
    st.lists(st.integers(min_value=0, max_value=12), min_size=1, max_size=120),
    st.integers(min_value=1, max_value=100),
)
def test_ws_weights_match_oracle(counts, percent):
    corpus = one_cell(counts)
    result, decisions = cell_selection(
        corpus, percent, method="fractional_ws", esi_low_threshold=False)
    if result.quota == 0:
        return
    expected = oracles.ws_weights(counts, Fraction(percent))
    by_id = {d.paper_id: d.weight for d in decisions}
    for i, w in enumerate(expected):
        assert by_id.get(f"p{i:03d}", Fraction(0)) == w
    assert sum(by_id.values()) == result.quota
    assert all(0 < w <= 1 for w in by_id.values())


# -- tie-break orderings ------------------------------------------------------------


def dated_cell(*specs):
    """specs: (pid, count, online, pub_month) with month as (y, m) or None."""
    journals = [Journal("jf", {"f": ("fict",)}, {}), Journal("jx", {}, {})]
    papers, edges, citers = [], [], []
    for pid, count, online, month in specs:
        papers.append(
            Paper(
                pid, "jf", 2011, "article",
                online_date=online,
                pub_date=date(*month, 1) if month else None,
                pub_date_precision="month" if month else "day",
            )
        )
        for i in range(count):
            citer = f"x-{pid}-{i}"
            citers.append(Paper(citer, "jx", 2012, "article"))
            edges.append(CitationEdge(citer, pid, date(2012, 6, 1)))
    return Corpus([SchemaInfo("f", True)], journals, papers + citers, edges)


def test_chronology_orders_by_online_date():
    corpus = dated_cell(
        ("n3", 3, date(2011, 7, 13), None),
        ("n6", 3, date(2011, 3, 22), None),
    )
    ordering = tiebreak_chronology([corpus.papers["n6"], corpus.papers["n3"]])
    assert ordering.groups == (("n3",), ("n6",))
    assert ordering.evidence["n3"] == "online:2011-07-13"
    assert ordering.flags == ()


def test_chronology_issue_month_fallback_and_flagged_ties():
    corpus = dated_cell(
        ("a", 1, None, (2011, 5)),
        ("b", 1, None, (2011, 5)),
        ("c", 1, date(2011, 5, 20), None),
    )
    papers = [corpus.papers[p] for p in "abc"]
    ordering = tiebreak_chronology(papers)
    # Day-level 2011-05-20 beats the month-level pair stored at day 01.
    assert ordering.groups == (("c",), ("a", "b"))
    assert ordering.evidence["a"] == "issue:2011-05"
    assert ordering.evidence["c"] == "online:2011-05-20"
    assert len(ordering.flags) == 1 and "a, b" in ordering.flags[0]


def test_chronology_requires_some_date():
    corpus = dated_cell(("a", 1, None, None))
    with pytest.raises(MissingDateError):
        tiebreak_chronology([corpus.papers["a"]])


def trajectory_corpus():
    journals = [Journal("jf", {"f": ("fict",)}, {}), Journal("jx", {}, {})]
    papers = [Paper(p, "jf", 2011, "article") for p in ("P1", "P2", "P3", "P4")]
    schedule = {
        "P1": (1, 3),   # ratio 3
        "P2": (2, 1),   # ratio 1/2
        "P3": (0, 2),   # infinite: ahead of all finite ratios
        "P4": (0, 0),   # 0/0: behind everything
    }
    edges, citers = [], []
    for pid, (early, late) in schedule.items():
        for i, when in enumerate([date(2012, 6, 1)] * early + [date(2017, 6, 1)] * late):
            citer = f"x-{pid}-{i}"
            citers.append(Paper(citer, "jx", when.year, "article"))
            edges.append(CitationEdge(citer, pid, when))
    return Corpus([SchemaInfo("f", True)], journals, papers + citers, edges)


def test_trajectory_extended_ratio_order():
    corpus = trajectory_corpus()
    papers = [corpus.papers[p] for p in ("P1", "P2", "P3", "P4")]
    ordering = tiebreak_trajectory(corpus, papers)
    assert ordering.groups == (("P3",), ("P1",), ("P2",), ("P4",))
    assert ordering.evidence["P1"] == "late/early=3/1"
    assert ordering.evidence["P4"] == "late/early=0/0"


def test_trajectory_windows_are_years_0_to_4_and_5_to_9():
    journals = [Journal("jf", {"f": ("fict",)}, {}), Journal("jx", {}, {})]
    papers = [Paper("P1", "jf", 2011, "article")]
    edges = []
    for offset in (-1, 4, 5, 10):  # only the edges at offsets 4 and 5 count
        citer = f"x{offset}"
        papers.append(Paper(citer, "jx", 2011 + offset, "article"))
        edges.append(CitationEdge(citer, "P1", date(2011 + offset, 6, 1)))
    corpus = Corpus([SchemaInfo("f", True)], journals, papers, edges)
    ordering = tiebreak_trajectory(corpus, [corpus.papers["P1"]])
    assert ordering.evidence["P1"] == "late/early=1/1"


def test_trajectory_requires_dated_edges():
    journals = [Journal("jf", {"f": ("fict",)}, {}), Journal("jx", {}, {})]
    papers = [
        Paper("P1", "jf", 2011, "article"),
        Paper("x1", "jx", 2012, "article"),
    ]
    corpus = Corpus(
        [SchemaInfo("f", True)], journals, papers, [CitationEdge("x1", "P1")]
    )
    with pytest.raises(MissingDateError):
        tiebreak_trajectory(corpus, [corpus.papers["P1"]])


def test_trajectory_names_the_same_undated_edge_in_any_edge_order():
    journals = [Journal("jf", {"f": ("fict",)}, {}), Journal("jx", {}, {})]
    papers = [Paper("P1", "jf", 2011, "article")]
    papers += [Paper(x, "jx", 2012, "article") for x in ("x1", "x2", "x3")]
    edges = [CitationEdge("x3", "P1"), CitationEdge("x1", "P1", date(2012, 6, 1)),
             CitationEdge("x2", "P1")]
    for ordered in (edges, edges[::-1]):
        corpus = Corpus([SchemaInfo("f", True)], journals, papers, ordered)
        with pytest.raises(MissingDateError, match="^edge 'x2'->'P1' is undated"):
            tiebreak_trajectory(corpus, [corpus.papers["P1"]])


def test_tiebreak_chain_names_are_checked():
    assert parse_tiebreak_chain(iter(["citing-excellence", "trajectory"])) \
        == ("citing_excellence", "trajectory")
    assert parse_tiebreak_chain(["chronology", "citing_excellence"]) \
        == ("chronology", "citing_excellence")
    with pytest.raises(ComputationError, match=UNKNOWN_SORTITION):
        parse_tiebreak_chain(["chronology", "sortition"])


def test_hcp_run_takes_a_chain_in_either_spelling(math2011):
    names = ["citing-excellence", "chronology"]
    options = dict(method="quota", years=[2011])
    assert hcp_run(math2011, "esi", tiebreak_chain=names, **options) == hcp_run(
        math2011, "esi", tiebreak_chain=parse_tiebreak_chain(names), **options)


@pytest.fixture
def no_cells(monkeypatch):
    """Any ranked cell fails the test: a check must come before the first cell."""
    def no_cells(*args, **kwargs):
        raise AssertionError("a cell was ranked")

    monkeypatch.setattr(Corpus, "ranked_cells", no_cells)


def test_unknown_tiebreak_method_fails_before_any_cell(hundred, no_cells):
    with pytest.raises(ComputationError, match=UNKNOWN_SORTITION):
        hcp_run(hundred, "f", method="quota", tiebreak_chain=["chronology", "sortition"])


@pytest.mark.parametrize("names", [["chronology", "chronology"],
                                   ["citing-excellence", "trajectory", "citing_excellence"]])
def test_a_chain_that_names_a_method_twice_fails_before_any_cell(hundred, no_cells, names):
    # a repeated method orders the same tier by the same keys again: it breaks no tie
    message = f"the tie-break chain names the method {names[-1]!r} twice"
    with pytest.raises(ComputationError, match=f"^{re.escape(message)}$"):
        parse_tiebreak_chain(names)
    with pytest.raises(ComputationError, match=f"^{re.escape(message)}$"):
        hcp_run(hundred, "f", method="quota", tiebreak_chain=names)


@pytest.mark.parametrize("method", ["inclusive", "exclusive", "fractional_ws"])
def test_a_chain_outside_quota_fails_before_any_cell(hundred, no_cells, method):
    with pytest.raises(ComputationError, match=re.escape(
            f"only quota selection takes a tie-break chain, not {method!r}")):
        hcp_run(hundred, "f", method=method, tiebreak_chain=["chronology"])


ORDERINGS = [
    ("chronology", lambda corpus, papers, hcp: tiebreak_chronology(papers)),
    ("trajectory", lambda corpus, papers, hcp: tiebreak_trajectory(corpus, papers)),
    ("citing_excellence", tiebreak_citing_excellence),
]


@pytest.mark.parametrize("method, order", ORDERINGS, ids=[m for m, _ in ORDERINGS])
def test_every_tiebreak_keeps_the_ordering_contract(math2011, method, order):
    # t0-t2 and t3-t4 tie under every method: equal dates, trajectories and citing counts.
    tied = dated_cell(*[(f"t{i}", 2, date(2011, 5, 1), None) for i in range(3)],
                      *[(f"t{i}", 0, date(2011, 4, 1), None) for i in (3, 4)])
    cases = [
        (math2011, [p for p in math2011.cells("esi")[MATH11] if p.id.startswith("b")],
         provisional_hcp_ids(math2011, "esi")),
        (tied, [tied.papers[f"t{i}"] for i in range(5)], frozenset(tied.papers)),
    ]
    for corpus, papers, hcp in cases:
        ordering = order(corpus, papers, hcp)
        ids = sorted(p.id for p in papers)
        assert ordering.method == method
        assert sorted(i for group in ordering.groups for i in group) == ids
        assert all(list(group) == sorted(group) for group in ordering.groups)
        assert sorted(ordering.evidence) == ids
        several = [group for group in ordering.groups if len(group) > 1]
        assert len(ordering.flags) == len(several)
        for flag, group in zip(ordering.flags, several):
            assert flag.startswith(f"{method}: ") and flag.endswith(f" for {', '.join(group)}")
        for seed in range(3):
            assert order(corpus, random.Random(seed).sample(papers, len(papers)), hcp) == ordering
    assert several == [("t0", "t1", "t2"), ("t3", "t4")]


def test_citing_excellence_counts_provisional_citers_only():
    corpus = trajectory_corpus()
    papers = [corpus.papers[p] for p in ("P1", "P2")]
    provisional = frozenset({"x-P1-0", "x-P1-1", "x-P2-0"})
    ordering = tiebreak_citing_excellence(corpus, papers, provisional)
    assert ordering.groups == (("P1",), ("P2",))
    assert ordering.evidence == {"P1": "citing_hcp=2", "P2": "citing_hcp=1"}


# -- quota selection on the dated mathematics cell -------------------------------------


def border_ids(decisions):
    return sorted(d.paper_id for d in decisions if d.paper_id.startswith("b"))


def test_math_cell_structure(math2011):
    assert len(math2011.cells("esi")[MATH11]) == 38048
    result, _ = cell_selection(math2011, cell=MATH11, schema="esi")
    assert (result.quota, result.threshold) == (380, 88)
    assert (result.above_count, result.tie_count) == (376, 9)


def test_chronology_orders_all_nine_strictly(math2011):
    border = [p for p in math2011.cells("esi")[MATH11] if p.id.startswith("b")]
    ordering = tiebreak_chronology(border)
    assert ordering.groups == tuple((f"b{i}",) for i in range(1, 10))
    assert ordering.flags == ()


def test_quota_chronology_takes_latest_online(math2011):
    decisions = hcp_run(
        math2011, "esi", method="quota",
        tiebreak_chain=parse_tiebreak_chain(["chronology"]), years=[2011],
    )
    assert len(decisions) == 380
    assert border_ids(decisions) == ["b1", "b2", "b3", "b4"]
    picked = {d.paper_id: d for d in decisions}
    assert picked["b1"].trace == (
        {"method": "chronology", "evidence": "online:2011-11-01", "tied": False},
    )
    assert picked["a000"].trace is None  # above threshold: no tie-break fired


def test_quota_trajectory_prefers_late_bloomers(math2011):
    border = [p for p in math2011.cells("esi")[MATH11] if p.id.startswith("b")]
    ordering = tiebreak_trajectory(math2011, border)
    assert ordering.groups[0] == ("b2",)
    assert ordering.groups[-1] == ("b5",)
    assert ordering.evidence["b2"] == "late/early=57/22"
    assert ordering.evidence["b5"] == "late/early=42/44"

    decisions = hcp_run(
        math2011, "esi", method="quota",
        tiebreak_chain=parse_tiebreak_chain(["trajectory"]), years=[2011],
    )
    assert border_ids(decisions) == ["b1", "b2", "b6", "b7"]


def test_provisional_set_respects_low_threshold_rule(math2011):
    provisional = provisional_hcp_ids(math2011, "esi")
    assert len(provisional) == 385  # 376 above + 9 borderline; citer cell killed
    assert "y00" not in provisional
    without_rule = provisional_hcp_ids(math2011, "esi", esi_low_threshold=False)
    assert len(without_rule) == 385 + 89


def test_citing_excellence_three_way_tie_and_hybrid_chain(math2011):
    border = [p for p in math2011.cells("esi")[MATH11] if p.id.startswith("b")]
    provisional = provisional_hcp_ids(math2011, "esi")
    ordering = tiebreak_citing_excellence(math2011, border, provisional)
    assert ordering.groups[:3] == (("b2",), ("b4",), ("b7", "b8", "b9"))
    assert ordering.evidence["b2"] == "citing_hcp=11"
    assert any("b7, b8, b9" in f for f in ordering.flags)

    decisions = hcp_run(
        math2011, "esi", method="quota",
        tiebreak_chain=parse_tiebreak_chain(["citing-excellence", "chronology"]),
        years=[2011],
    )
    assert border_ids(decisions) == ["b2", "b4", "b7", "b8"]
    b7 = next(d for d in decisions if d.paper_id == "b7")
    assert b7.trace == (
        {"method": "citing_excellence", "evidence": "citing_hcp=3", "tied": True},
        {"method": "chronology", "evidence": "online:2011-02-01", "tied": False},
    )


def test_exhausted_chain_falls_back_to_id_order(math2011, caplog):
    with caplog.at_level(logging.WARNING, logger="biblio.excellence"):
        decisions = hcp_run(
            math2011, "esi", method="quota",
            tiebreak_chain=parse_tiebreak_chain(["citing-excellence"]),
            years=[2011],
        )
    assert border_ids(decisions) == ["b2", "b4", "b7", "b8"]
    b8 = next(d for d in decisions if d.paper_id == "b8")
    assert b8.trace[-1] == {
        "method": "id_order", "evidence": "b8", "tied": False, "chain_exhausted": True,
    }
    assert [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING] == [
        "tie-break chain exhausted in cell field=math year=2011 doc_type=article; "
        "falling back to paper-id order for b7, b8, b9"
    ]


def test_quota_needs_a_chain_and_citing_needs_provisional(math2011, hundred):
    with pytest.raises(ComputationError):
        hcp_run(math2011, "esi", method="quota", years=[2011])
    # The run builds the provisional set a citing-excellence link counts against.
    chain = parse_tiebreak_chain(["citing-excellence"])
    result, decisions = cell_selection(
        math2011, cell=MATH11, schema="esi", method="quota", tiebreak_chain=chain)
    assert len(decisions) == result.quota


def test_select_quota_is_order_insensitive(math2011):
    reverse = Corpus(
        math2011.schemas.values(), math2011.journals.values(),
        reversed(list(math2011.papers.values())), reversed(math2011.edges),
    )
    options = dict(method="quota", tiebreak_chain=parse_tiebreak_chain(["chronology"]),
                   years=[2011])
    forward = hcp_run(math2011, "esi", **options)
    assert hcp_run(reverse, "esi", **options) == forward
    assert oracles.hcp_run(math2011, "esi", **options) == forward
    assert len(forward) == 380


def test_borderline_that_fits_needs_no_tiebreak():
    # Quota 3 over 1 above + 2 tied: every borderline paper fits, so no
    # method fires and no trace is recorded.
    corpus = dated_cell(
        ("q1", 9, date(2011, 1, 1), None),
        ("t1", 5, date(2011, 3, 1), None),
        ("t2", 5, date(2011, 2, 1), None),
        *[(f"u{i}", 0, None, None) for i in range(27)],
    )
    result, decisions = cell_selection(
        corpus, 10, CellKey("fict", 2011, "article"),
        method="quota", tiebreak_chain=parse_tiebreak_chain(["chronology"]),
    )
    assert (result.quota, result.above_count, result.tie_count) == (3, 1, 2)
    assert [d.paper_id for d in decisions] == ["q1", "t1", "t2"]
    assert all(d.trace is None for d in decisions)


def test_date_tied_group_consumed_whole():
    # Need 2 from three borderline papers; the two latest share a date, so
    # chronology hands over its first group whole, traced but unflagged as
    # resolved (tied=False applies to the consumed group's members).
    corpus = dated_cell(
        ("q1", 9, date(2011, 1, 1), None),
        ("t1", 5, date(2011, 3, 1), None),
        ("t2", 5, date(2011, 3, 1), None),
        ("t3", 5, date(2011, 2, 1), None),
        *[(f"u{i}", 0, None, None) for i in range(26)],
    )
    result, decisions = cell_selection(
        corpus, 10, CellKey("fict", 2011, "article"),
        method="quota", tiebreak_chain=parse_tiebreak_chain(["chronology"]),
    )
    assert (result.quota, result.above_count, result.tie_count) == (3, 1, 3)
    assert [d.paper_id for d in decisions] == ["q1", "t1", "t2"]
    traced = {d.paper_id: d.trace for d in decisions}
    assert traced["q1"] is None
    assert traced["t1"] == (
        {"method": "chronology", "evidence": "online:2011-03-01", "tied": False},
    )
    assert traced["t2"] == (
        {"method": "chronology", "evidence": "online:2011-03-01", "tied": False},
    )


# -- ranked kernels against the per-paper oracle ------------------------------------

METHODS = ("inclusive", "exclusive", "fractional_ws", "quota", "bogus")
GRID_DATES = (date(2010, 3, 1), date(2010, 3, 15), date(2011, 3, 1))
GRID_MONTHS = (date(2010, 3, 1), date(2011, 3, 1))  # issue months are stored as day 01
shares = st.fractions(min_value=0, max_value=100, max_denominator=8).filter(lambda f: f > 0)
# Repeats allowed, as on the CLI: a method may run again on its own straddling tier.
chains = st.lists(  # a chain names each method at most once
    st.sampled_from(["chronology", "trajectory", "citing-excellence"]), max_size=3, unique=True
).map(parse_tiebreak_chain)
slices = st.tuples(
    st.none() | st.lists(st.sampled_from([2010, 2011]), min_size=1, unique=True),
    st.none() | st.lists(st.sampled_from(["article", "review"]), min_size=1, unique=True),
)


@st.composite
def hcp_worlds(draw):
    """A builder of small dated corpora with edges: 1-3 fields, a journal in
    two of them, one or two years and document types, in-degrees of 0-3 (so
    ties everywhere), dates on a coarse grid and a few undated papers and
    edges. Each call builds a fresh corpus with empty caches."""
    fields = ("c0", "c1", "c2")[: draw(st.integers(1, 3))]
    years = draw(st.sampled_from([(2010,), (2010, 2011)]))
    doc_types = draw(st.sampled_from([("article",), ("article", "review")]))
    journals = [Journal(f"j{i}", {"f": (f,)}, {}) for i, f in enumerate(fields)]
    if len(fields) > 1:
        journals.append(Journal("jm", {"f": fields[:2]}, {}))
    categorized = [j.id for j in journals]
    journals.append(Journal("jx", {}, {}))
    papers = []
    for i in range(draw(st.integers(1, 24))):
        month = draw(st.none() | st.sampled_from(GRID_MONTHS))
        papers.append(Paper(
            f"p{i:02d}", draw(st.sampled_from(categorized)), draw(st.sampled_from(years)),
            draw(st.sampled_from(doc_types)),
            online_date=draw(st.none() | st.sampled_from(GRID_DATES)),
            pub_date=month, pub_date_precision="month",
        ))
    papers += [Paper(f"x{i}", "jx", 2012, "article") for i in range(4)]
    edges = []
    for p in papers:
        if p.journal_id == "jx":
            continue
        citers = draw(st.permutations([q.id for q in papers if q.id != p.id]))
        for citer in citers[: draw(st.integers(0, 3))]:
            offset = draw(st.sampled_from([None, *range(10)]))
            when = None if offset is None else date(p.year + offset, 6, 1)
            edges.append(CitationEdge(citer, p.id, when))
    return lambda: Corpus([SchemaInfo("f")], journals, papers, edges)


@given(hcp_worlds(), st.lists(shares, min_size=1, max_size=3), chains, slices)
def test_hcp_run_matches_the_per_paper_oracle(world, tops, chain, cut):
    years, doc_types = cut
    corpus = world()  # queried again and again: no call may leak into the next
    for top in tops:
        for method in METHODS:
            for esi in (True, False):
                options = dict(top_percent=top, method=method, esi_low_threshold=esi,
                               tiebreak_chain=chain if method == "quota" else (),
                               years=years, doc_types=doc_types)
                got = oracles.outcome(lambda: hcp_run(corpus, "f", **options))
                want = oracles.outcome(lambda: oracles.hcp_run(world(), "f", **options))
                assert got == want, options


@given(hcp_worlds(), shares, chains, st.booleans(), st.randoms(use_true_random=False))
def test_public_kernels_match_the_oracle_on_shuffled_papers(world, top, chain, esi, rnd):
    fresh = world()
    papers, edges = list(fresh.papers.values()), list(fresh.edges)
    rnd.shuffle(papers)
    rnd.shuffle(edges)
    shuffled = Corpus(fresh.schemas.values(), fresh.journals.values(), papers, edges)
    provisional = provisional_hcp_ids(shuffled, "f", top, esi)
    assert provisional == oracles.provisional_hcp_ids(fresh, "f", top, esi)
    thresholds = [oracles.compute_threshold(fresh, cell, cell_papers, top)
                  for cell, cell_papers in fresh.cells("f").items()]
    for method in METHODS:
        options = dict(top_percent=top, method=method, esi_low_threshold=esi,
                       tiebreak_chain=chain if method == "quota" else ())
        got = oracles.outcome(lambda: hcp_selection(shuffled, "f", **options))
        want = oracles.outcome(lambda: (thresholds, oracles.hcp_run(fresh, "f", **options)))
        assert got == want, options


special_shares = st.sampled_from([Fraction(1, 3), "12.5", 100])


@given(
    st.lists(st.integers(min_value=0, max_value=40), min_size=1, max_size=300),
    special_shares | shares,
    st.booleans(),
)
def test_integer_quota_matches_the_rational_rounding(counts, top, esi):
    (result,), _ = hcp_selection(one_cell(counts), "f", top_percent=top, esi_low_threshold=esi)
    assert result.quota == oracles.rational_quota(top, len(counts))


@given(hcp_worlds(), special_shares | shares, st.booleans())
def test_provisional_ids_are_the_ids_of_an_inclusive_run(world, top, esi):
    want = oracles.provisional_from_hcp_run(world(), "f", top, esi)
    assert provisional_hcp_ids(world(), "f", top, esi) == want


def test_provisional_ids_reject_a_bad_share(hundred):
    for bad in (0, 101):
        got = oracles.outcome(lambda: provisional_hcp_ids(hundred, "f", bad))
        assert got == oracles.outcome(lambda: oracles.provisional_from_hcp_run(hundred, "f", bad))
        assert got[0] is ComputationError


def test_methods_are_checked_when_every_cell_has_quota_zero():
    corpus = one_cell([5] * 10)  # top 1 % of 10 papers rounds to nothing
    for percent in (1, 10):
        with pytest.raises(ComputationError, match="unknown classification method"):
            hcp_run(corpus, "f", top_percent=percent, method="bogus")
        with pytest.raises(ComputationError, match="needs a tie-break chain"):
            hcp_run(corpus, "f", top_percent=percent, method="quota")


def test_quota_decisions_list_the_chosen_borderline_in_id_order():
    # Chronology takes t3 (latest) before t2; the decisions still list t2 first.
    corpus = dated_cell(
        ("q1", 9, date(2011, 1, 1), None),
        ("t1", 5, date(2011, 1, 1), None),
        ("t2", 5, date(2011, 2, 1), None),
        ("t3", 5, date(2011, 3, 1), None),
        *[(f"u{i}", 0, None, None) for i in range(26)],
    )
    decisions = hcp_run(corpus, "f", top_percent=10, method="quota",
                        tiebreak_chain=parse_tiebreak_chain(["chronology"]))
    assert [d.paper_id for d in decisions] == ["q1", "t2", "t3"]


# -- selections on one corpus ------------------------------------------------------------

# Every quota chain: each ordered selection of one to three distinct methods.
ALL_CHAINS = [chain for n in (1, 2, 3) for chain in
              itertools.permutations(("chronology", "trajectory", "citing_excellence"), n)]


def assert_runs_do_not_depend_on_earlier_runs(build, schema, tops):
    """Every quota chain x share x low-threshold rule, run on one corpus forward
    and on another backward, gives what the same run gives on a fresh corpus."""
    grid = [dict(method="quota", tiebreak_chain=chain, top_percent=top, esi_low_threshold=esi)
            for chain in ALL_CHAINS for top in tops for esi in (True, False)]
    want = [oracles.outcome(lambda: hcp_run(build(), schema, **options)) for options in grid]
    for order in (range(len(grid)), range(len(grid) - 1, -1, -1)):
        corpus = build()
        for i in order:
            assert oracles.outcome(lambda: hcp_run(corpus, schema, **grid[i])) == want[i], grid[i]


@settings(max_examples=40)
@given(hcp_worlds(), st.lists(shares, min_size=1, max_size=3, unique=True))
def test_a_quota_run_does_not_depend_on_earlier_runs(world, tops):
    assert_runs_do_not_depend_on_earlier_runs(world, "f", tops)


def test_a_quota_run_does_not_depend_on_earlier_runs_on_the_fixtures(math2011):
    def rebuilt(corpus):  # a fresh corpus of the same records, with nothing built yet
        return lambda: Corpus(corpus.schemas.values(), corpus.journals.values(),
                              corpus.papers.values(), corpus.edges)

    assert_runs_do_not_depend_on_earlier_runs(rebuilt(math2011), "esi", [1])
    assert_runs_do_not_depend_on_earlier_runs(corpora.make_quota_mini, "f", [30, 10, "12.5", 100])


def test_citing_excellence_reads_a_plain_set_as_its_frozenset():
    corpus = trajectory_corpus()
    papers = [corpus.papers[p] for p in ("P1", "P2")]
    for citers, best in (({"x-P1-0", "x-P2-0", "x-P2-1"}, "P2"),
                         ({"x-P1-0", "x-P1-1", "x-P2-0"}, "P1")):
        ordering = tiebreak_citing_excellence(corpus, papers, citers)
        assert ordering.groups[0] == (best,)
        assert ordering == tiebreak_citing_excellence(corpus, papers, frozenset(citers))


def test_provisional_ids_build_no_decisions(math2011, monkeypatch):
    want = frozenset(d.paper_id for d in hcp_run(math2011, "esi"))
    built = []
    monkeypatch.setattr(excellence, "HcpDecision", lambda *a, **k: built.append(a))
    assert provisional_hcp_ids(math2011, "esi") == want
    assert built == []


def test_a_citing_excellence_quota_run_walks_the_cells_once(quota_mini):
    ranked_cells, calls = quota_mini.ranked_cells, []
    quota_mini.ranked_cells = lambda *args: calls.append(args) or ranked_cells(*args)
    decisions = hcp_run(quota_mini, "f", method="quota", top_percent=40,
                        tiebreak_chain=["citing_excellence", "trajectory", "chronology"])
    assert any(d.trace for d in decisions)
    assert len(calls) == 1  # the provisional set and the selection share one walk


# -- entity shares ------------------------------------------------------------------


def entity_corpus():
    journals = [Journal("jf", {"f": ("fict",)}, {})]
    hcp_authors = tuple(
        AuthorCredit(f"a{i}", ("E",) if i < 3 else ("F",)) for i in range(10)
    )
    papers = [
        Paper("h1", "jf", 2019, "article", authors=hcp_authors),
        Paper("o1", "jf", 2019, "article", authors=(AuthorCredit("b1", ("E",)),)),
        Paper("o2", "jf", 2019, "article", authors=(AuthorCredit("b2", ("E",)),)),
    ]
    counts = {"h1": 50, "o1": 0, "o2": 0}
    return Corpus([SchemaInfo("f", True)], journals, papers, citation_counts=counts)


def test_entity_share_whole_vs_fractional():
    corpus = entity_corpus()
    decisions = [HcpDecision("h1", FICT, "FULL", Fraction(1), "inclusive")]
    whole = entity_hcp_share(corpus, "E", decisions, "whole")
    assert (whole.hcp_weight, whole.output_weight) == (1, 3)
    assert whole.share == Fraction(1, 3)

    fractional = entity_hcp_share(corpus, "E", decisions, "fractional")
    assert fractional.hcp_weight == Fraction(3, 10)
    assert fractional.output_weight == Fraction(3, 10) + 2
    assert fractional.share == Fraction(3, 23)


def test_entity_share_uses_decision_weights():
    corpus = entity_corpus()
    decisions = [HcpDecision("h1", FICT, "PARTIAL", Fraction(6, 10), "fractional_ws")]
    share = entity_hcp_share(corpus, "E", decisions, "whole")
    assert share.hcp_weight == Fraction(6, 10)
    fractional = entity_hcp_share(corpus, "E", decisions, "fractional")
    assert fractional.hcp_weight == Fraction(6, 10) * Fraction(3, 10)


def test_fractional_entity_share_repeats_exactly():
    corpus = entity_corpus()
    decisions = [HcpDecision("h1", FICT, "PARTIAL", Fraction(6, 10), "fractional_ws")]
    first = entity_hcp_share(corpus, "E", decisions, "fractional")
    attribution = corpus.entity_attribution
    calls = []
    corpus.entity_attribution = lambda p, e: calls.append(p.id) or attribution(p, e)
    assert entity_hcp_share(corpus, "E", decisions, "fractional") == first
    assert calls == ["h1"]  # the output weight comes from the cache
    assert entity_hcp_share(entity_corpus(), "E", decisions, "fractional") == first
    fresh = entity_corpus()
    assert fresh.entity_output_weight("E") == sum(
        fresh.entity_attribution(p, "E") for p in fresh.papers_of_entity("E")
    ) == first.output_weight


def test_entity_share_sums_a_paper_once_per_cell_it_is_selected_in():
    journals = [Journal("j", {"f": ("A", "B")}, {}), Journal("ja", {"f": ("A",)}, {})]
    papers = [Paper("p0", "j", 2019, "article", authors=(AuthorCredit("a0", ("org",)),)),
              *(Paper(f"p{i}", "ja", 2019, "article") for i in (1, 2, 3))]
    counts = {"p0": 50, "p1": 1, "p2": 1, "p3": 1}
    corpus = Corpus([SchemaInfo("f")], journals, papers, citation_counts=counts)
    decisions = hcp_run(corpus, "f", top_percent=50, esi_low_threshold=False)
    assert [(d.paper_id, d.cell.field) for d in decisions if d.paper_id == "p0"] == [
        ("p0", "A"), ("p0", "B")]
    for counting in ("whole", "fractional"):
        share = entity_hcp_share(corpus, "org", decisions, counting)
        assert (share.hcp_weight, share.output_weight, share.share) == (2, 1, 2), counting


def test_entity_share_errors():
    corpus = entity_corpus()
    with pytest.raises(EmptyInputError):
        entity_hcp_share(corpus, "nobody", [], "whole")
    with pytest.raises(ComputationError):
        entity_hcp_share(corpus, "E", [], "hybrid")


@given(st.integers(min_value=0, max_value=10_000))
def test_fully_affiliated_attribution_conserves_mass(seed):
    import random as random_mod

    rng = random_mod.Random(seed)
    entities = ["E1", "E2", "E3"]
    papers = []
    for i in range(rng.randint(1, 8)):
        authors = tuple(
            AuthorCredit(f"a{i}-{j}", tuple(rng.sample(entities, rng.randint(1, 3))))
            for j in range(rng.randint(1, 5))
        )
        papers.append(Paper(f"p{i}", "jf", 2019, "article", authors=authors))
    corpus = Corpus(
        [SchemaInfo("f", True)],
        [Journal("jf", {"f": ("fict",)}, {})],
        papers,
        citation_counts={},
    )
    for p in papers:
        total = sum(
            (corpus.entity_attribution(p, e) for e in entities), Fraction(0)
        )
        assert total == 1


def test_unaffiliated_author_share_leaks():
    p = Paper(
        "p", "jf", 2019, "article",
        authors=(AuthorCredit("a1", ("E1",)), AuthorCredit("a2", ())),
    )
    corpus = Corpus(
        [SchemaInfo("f", True)],
        [Journal("jf", {"f": ("fict",)}, {})],
        [p],
        citation_counts={},
    )
    assert corpus.entity_attribution(p, "E1") == Fraction(1, 2)


# -- rendering and reports -----------------------------------------------------------


def test_decision_json_renders_every_whole_weight_alike():
    rendered = [
        HcpDecision("p", FICT, "full", weight, "inclusive").to_json_dict()
        for weight in (_ONE, Fraction(1), Fraction(2, 2))
    ]
    assert rendered[0] == rendered[1] == rendered[2]
    assert (rendered[0]["weight"], rendered[0]["weight_decimal"]) == ("1", "1.00")


@given(st.fractions(min_value=0, max_value=3))
def test_decision_json_renders_other_weights_exactly(weight):
    body = HcpDecision("p", FICT, "fractional", weight, "fractional_ws").to_json_dict()
    assert (body["weight"], body["weight_decimal"]) == (rational_str(weight), decimal_str(weight, 2))


weights = st.sampled_from([_ONE, Fraction(1), Fraction(2, 2), Fraction(3)]) | st.fractions(
    min_value=0, max_value=1
)


@given(hcp_worlds(), st.data())
def test_report_sums_mixed_weights_exactly(world, data):
    corpus = world()
    cells = [*corpus.cells("f"), CellKey("elsewhere", 2010, "article")]
    decisions = data.draw(st.lists(st.builds(
        lambda cell, weight: HcpDecision("p", cell, "full", weight, "inclusive"),
        st.sampled_from(cells), weights,
    ), max_size=30))
    inside = [d for d in decisions if d.cell.field != "elsewhere"]
    if inside != decisions:
        with pytest.raises(ComputationError, match="decided outside the slice"):
            hcp_report(corpus, "f", decisions, top_percent=10)
    report = hcp_report(corpus, "f", inside, top_percent=10)
    for row in report.rows:
        want = sum((d.weight for d in inside if d.cell.field == row.field), Fraction(0))
        assert row.actual == want and type(row.actual) is Fraction


def test_hundred_cell_report_without_low_threshold_rule(hundred):
    decisions = hcp_run(hundred, "f", esi_low_threshold=False)
    report = hcp_report(hundred, "f", decisions)
    assert report.to_csv_text().splitlines() == [
        "field,total,expected,actual,surplus,real_pct",
        "fict,100,1,90,89,90.000",
    ]


def test_hundred_cell_report_with_low_threshold_rule(hundred):
    decisions = hcp_run(hundred, "f")  # rule on by default: nothing selected
    assert decisions == []
    report = hcp_report(hundred, "f", decisions)
    row = report.rows[0]
    assert (row.expected, row.actual, row.surplus) == (1, 0, -1)
    assert report.to_csv_text().splitlines()[1] == "fict,100,1,0,-1,0.000"


def test_ws_report_hits_quota_exactly(ws105):
    decisions = hcp_run(ws105, "f", top_percent=10, method="fractional_ws")
    report = hcp_report(ws105, "f", decisions, top_percent=10)
    row = report.rows[0]
    assert (row.total, row.expected, row.actual, row.surplus) == (105, 11, 11, 0)
    assert report.to_csv_text().splitlines()[1] == "fict,105,11,11,0,10.476"


def test_math_report_with_quota_selection(math2011):
    decisions = hcp_run(
        math2011, "esi", method="quota",
        tiebreak_chain=parse_tiebreak_chain(["chronology"]), years=[2011],
    )
    report = hcp_report(math2011, "esi", decisions, years=[2011])
    assert report.to_csv_text().splitlines() == [
        "field,total,expected,actual,surplus,real_pct",
        "math,38048,380,380,0,0.999",
    ]
    d = report.to_json_dict()
    assert d["rows"][0]["real_pct"]["decimal"] == "0.999"


@given(st.integers(min_value=1, max_value=400), shares)
def test_report_expected_is_the_rational_quota(total, share):
    report = hcp_report(one_cell([0] * total), "f", [], top_percent=share)
    assert [row.expected for row in report.rows] == [oracles.rational_quota(share, total)]


def test_report_refuses_a_decision_outside_its_slice():
    slices = corpora.make_slices()
    options = dict(method="inclusive", esi_low_threshold=False, top_percent=50)
    decisions = hcp_run(slices, "f", **options)
    with pytest.raises(ComputationError, match=re.escape(
            "paper 's22' was decided outside the slice: field=alpha year=2019 doc_type=article")):
        hcp_report(slices, "f", decisions, top_percent=50, years=[2020])
    sliced = hcp_run(slices, "f", years=[2020], **options)
    report = hcp_report(slices, "f", sliced, top_percent=50, years=[2020])
    assert [(r.field, r.total, r.expected) for r in report.rows] == [
        ("alpha", 12, 6), ("beta", 12, 6)]
    assert all(r.actual <= r.total for r in report.rows)


def test_report_requires_a_populated_slice(hundred):
    with pytest.raises(EmptyInputError):
        hcp_report(hundred, "f", [], years=[1900])
    for bad in (0, 150):
        with pytest.raises(ComputationError, match="top_percent must be in"):
            hcp_report(hundred, "f", [], top_percent=bad)


def test_hcp_run_slices_by_year(math2011):
    full = hcp_run(math2011, "esi")
    only_2011 = hcp_run(math2011, "esi", years=[2011])
    assert {d.paper_id for d in full} == {d.paper_id for d in only_2011}
    assert len(only_2011) == 385  # inclusive method keeps all nine borderline
