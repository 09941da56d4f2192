import logging
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import corpora
from biblio import (
    CnciConfig,
    ComputationError,
    Corpus,
    EmptyInputError,
    Journal,
    Paper,
    SchemaInfo,
    ZeroBaselineError,
    cnci_paper,
    cnci_set,
    compute_baselines,
    global_cnci,
    relative_cnci,
)
from biblio import normalization
from biblio.corpus import CellKey

S = corpora.SCHEMA
A2020 = CellKey("A", 2020, "article")
B2020 = CellKey("B", 2020, "article")


def two_paper_world(x: int, y: int) -> Corpus:
    """pa (field A) with x citations, pab (fields A+B) with y."""
    c = corpora.make_two_papers()
    return Corpus(
        c.schemas.values(), c.journals.values(), c.papers.values(),
        citation_counts={"pa": x, "pab": y},
    )


# -- baselines -------------------------------------------------------------------


def test_whole_baselines(two_papers):
    table = compute_baselines(two_papers, S, "whole")
    assert table.expected(A2020) == Fraction(3, 2)
    assert table.expected(B2020) == 2
    assert table.cells[A2020].weight == 2
    assert table.cells[A2020].papers == 2
    assert table.cells[B2020].weight == 1


def test_fractional_baselines(two_papers):
    table = compute_baselines(two_papers, S, "fractional")
    assert table.expected(A2020) == Fraction(4, 3)
    assert table.expected(B2020) == 2
    assert table.cells[A2020].weight == Fraction(3, 2)
    assert table.cells[B2020].weight == Fraction(1, 2)


def test_split_baselines(two_papers):
    table = compute_baselines(two_papers, S, "whole", split_citations=True)
    assert table.counting_label == "whole_split"
    assert table.expected(A2020) == 1
    assert table.expected(B2020) == 1
    assert table.cells[A2020].weight == 2


def test_baseline_csv_rendering(two_papers):
    text = compute_baselines(two_papers, S, "whole").to_csv_text()
    assert text.splitlines() == [
        "schema,field,year,doc_type,counting,expected,weight",
        "subjects,A,2020,article,whole,3/2,2",
        "subjects,B,2020,article,whole,2,1",
    ]


def test_baselines_from_subset(simpson):
    reference = [simpson.papers[p] for p in ("RC1", "RC2", "RM")]
    table = compute_baselines(simpson, S, "whole", papers=reference)
    assert table.expected(CellKey("chem", 2020, "article")) == 3
    assert table.expected(CellKey("med", 2020, "article")) == 18


def test_missing_cell_raises(two_papers):
    table = compute_baselines(two_papers, S)
    with pytest.raises(ComputationError) as raised:
        table.expected(CellKey("A", 1999, "article"))
    assert str(raised.value) == "no baseline for cell field=A year=1999 doc_type=article"


def test_baselines_reject_bad_scheme(two_papers):
    with pytest.raises(ComputationError):
        compute_baselines(two_papers, S, "hybrid")
    with pytest.raises(ComputationError):
        compute_baselines(two_papers, S, "fractional", split_citations=True)


# -- per-paper and per-set CNCI -----------------------------------------------------


def test_cnci_paper_whole(two_papers):
    table = compute_baselines(two_papers, S, "whole")
    assert cnci_paper(two_papers, two_papers.papers["pa"], table) == Fraction(2, 3)
    assert cnci_paper(two_papers, two_papers.papers["pab"], table) == Fraction(7, 6)


def test_cnci_paper_fractional(two_papers):
    table = compute_baselines(two_papers, S, "fractional")
    assert cnci_paper(two_papers, two_papers.papers["pa"], table) == Fraction(3, 4)
    assert cnci_paper(two_papers, two_papers.papers["pab"], table) == Fraction(5, 4)


def test_uncited_paper_in_uncited_cell_scores_zero():
    c = two_paper_world(0, 0)
    table = compute_baselines(c, S, "whole")
    assert cnci_paper(c, c.papers["pa"], table) == 0
    assert cnci_paper(c, c.papers["pab"], table) == 0


def test_cited_paper_over_zero_baseline_is_an_error(simpson):
    # Baselines from a reference whose only medicine paper is uncited; the
    # cited medicine paper RM then has no meaningful normalization.
    ghost = Paper("ghost", "JM", 2020, "article")
    extended = Corpus(
        simpson.schemas.values(),
        simpson.journals.values(),
        [*simpson.papers.values(), ghost],
        citation_counts={**simpson.explicit_counts, "ghost": 0},
    )
    table = compute_baselines(
        extended, S, "whole",
        papers=[extended.papers["W1"], extended.papers["RC1"], ghost],
    )
    with pytest.raises(ZeroBaselineError):
        cnci_paper(extended, extended.papers["RM"], table)


def test_cnci_set_sums_uncited_cells_without_a_per_paper_walk(monkeypatch):
    c = corpora.make_two_papers()
    letter = Paper("pl", "JA", 2020, "letter")  # alone in an uncited cell
    corpus = Corpus(c.schemas.values(), c.journals.values(), [*c.papers.values(), letter],
                    citation_counts={"pa": 1, "pab": 2, "pl": 0})
    table = compute_baselines(corpus, S, "whole")
    assert table.expected(CellKey("A", 2020, "letter")) == 0
    papers = list(corpus.papers.values())
    want = sum(cnci_paper(corpus, p, table) for p in papers) / len(papers)

    def no_walk(*args):
        raise AssertionError("walked the papers one by one")

    monkeypatch.setattr(normalization, "cnci_paper", no_walk)
    assert cnci_set(corpus, papers, table) == want


def test_cnci_set_requires_papers(two_papers):
    with pytest.raises(EmptyInputError):
        cnci_set(two_papers, [], compute_baselines(two_papers, S))


# -- the whole-counting anomaly and its dual routes -----------------------------------


def test_global_whole_aor_is_eleven_twelfths(two_papers):
    value = global_cnci(two_papers, S, CnciConfig("whole", "aor"))
    assert value == Fraction(11, 12)


def test_swapping_counts_flips_the_anomaly(two_papers_swapped):
    value = global_cnci(two_papers_swapped, S, CnciConfig("whole", "aor"))
    assert value == Fraction(13, 12)


def test_fractional_aor_restores_unity(two_papers, two_papers_swapped):
    for c in (two_papers, two_papers_swapped):
        assert global_cnci(c, S, CnciConfig("fractional", "aor")) == 1


def test_every_roa_regime_is_exactly_one(two_papers):
    assert global_cnci(two_papers, S, CnciConfig("whole", "roa")) == 1
    assert global_cnci(two_papers, S, CnciConfig("whole", "roa", split_citations=True)) == 1
    assert global_cnci(two_papers, S, CnciConfig("fractional", "roa")) == 1


def test_edge_based_variant_matches_count_based(two_papers, two_papers_edges):
    for config in (CnciConfig("whole", "aor"), CnciConfig("fractional", "aor")):
        assert global_cnci(two_papers_edges, S, config) == global_cnci(two_papers, S, config)


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=1, max_value=80))
def test_whole_aor_drifts_toward_the_heavier_side(x, y):
    """Shifting citations onto the multi-field paper drags the mean below 1."""
    value = global_cnci(two_paper_world(x, y), S, CnciConfig("whole", "aor"))
    if x < y:
        assert value < 1
    elif x == y:
        assert value == 1
    else:
        assert value > 1


@given(st.integers(min_value=0, max_value=80), st.integers(min_value=1, max_value=80))
def test_dual_routes_stay_pinned_for_any_counts(x, y):
    c = two_paper_world(x, y)
    assert global_cnci(c, S, CnciConfig("fractional", "aor")) == 1
    assert global_cnci(c, S, CnciConfig("whole", "roa")) == 1
    assert global_cnci(c, S, CnciConfig("whole", "roa", split_citations=True)) == 1
    assert global_cnci(c, S, CnciConfig("fractional", "roa")) == 1


def test_config_validation():
    with pytest.raises(ComputationError):
        CnciConfig("whole", "median")
    with pytest.raises(ComputationError):
        CnciConfig("percentile", "aor")
    with pytest.raises(ComputationError):
        CnciConfig("whole", "aor", split_citations=True)
    with pytest.raises(ComputationError):
        CnciConfig("fractional", "roa", split_citations=True)


def test_global_cnci_slice_selects_whole_cells(two_papers_edges):
    # The 2021 citing papers are uncategorized, so the 2020 slice is the
    # whole categorized corpus and stays closed under its own baselines.
    assert global_cnci(two_papers_edges, S, CnciConfig("fractional", "aor"), years=[2020]) == 1
    with pytest.raises(EmptyInputError):
        global_cnci(two_papers_edges, S, CnciConfig("whole", "aor"), years=[1999])


# -- invariance properties -----------------------------------------------------------


def random_multifield_corpus(seed: int, min_count: int = 0) -> Corpus:
    rng = random.Random(seed)
    journals = []
    for i in range(rng.randint(2, 5)):
        cats = tuple(sorted(rng.sample(["A", "B", "C"], rng.randint(1, 3))))
        journals.append(Journal(f"j{i}", {S: cats}, {}))
    papers = []
    counts = {}
    for i in range(rng.randint(3, 14)):
        pid = f"p{i}"
        papers.append(Paper(pid, rng.choice(journals).id, 2020, "article"))
        counts[pid] = rng.randint(min_count, 9)
    return Corpus([SchemaInfo(S)], journals, papers, citation_counts=counts)


@given(st.integers(min_value=0, max_value=10_000), st.integers(min_value=2, max_value=7))
def test_uniform_scaling_leaves_cnci_unchanged(seed, m):
    plain = random_multifield_corpus(seed)
    scaled = Corpus(
        plain.schemas.values(), plain.journals.values(), plain.papers.values(),
        citation_counts={pid: m * c for pid, c in plain.explicit_counts.items()},
    )
    for counting, split in (("whole", False), ("fractional", False), ("whole", True)):
        t1 = compute_baselines(plain, S, counting, split_citations=split)
        t2 = compute_baselines(scaled, S, counting, split_citations=split)
        for key, cell in t1.cells.items():
            assert t2.cells[key].expected == m * cell.expected
            assert t2.cells[key].weight == cell.weight
        for pid in plain.papers:
            assert cnci_paper(plain, plain.papers[pid], t1) == cnci_paper(
                scaled, scaled.papers[pid], t2
            )


@given(st.integers(min_value=0, max_value=10_000))
def test_closed_corpus_theorem_on_random_corpora(seed):
    c = random_multifield_corpus(seed, min_count=1)
    assert global_cnci(c, S, CnciConfig("fractional", "aor")) == 1
    assert global_cnci(c, S, CnciConfig("whole", "roa")) == 1
    assert global_cnci(c, S, CnciConfig("whole", "roa", split_citations=True)) == 1
    assert global_cnci(c, S, CnciConfig("fractional", "roa")) == 1


# -- relative CNCI -------------------------------------------------------------------


def test_relative_cnci_reverses_the_naive_ratio(simpson):
    world = compute_baselines(simpson, S, "whole")
    assert world.expected(CellKey("chem", 2020, "article")) == Fraction(13, 2)
    assert world.expected(CellKey("med", 2020, "article")) == 19

    subunit = [simpson.papers["RC1"]]
    reference = [simpson.papers[p] for p in ("RC1", "RC2", "RM")]
    sub_cnci = cnci_set(simpson, subunit, world)
    ref_cnci = cnci_set(simpson, reference, world)
    assert sub_cnci == Fraction(8, 13)
    assert ref_cnci == Fraction(154, 247)
    assert sub_cnci / ref_cnci == Fraction(76, 77)  # naive ratio says "below"

    relative = relative_cnci(simpson, subunit, reference, S)
    assert relative == Fraction(4, 3)  # reference-normalized says "above"
    assert (sub_cnci / ref_cnci < 1) and (relative > 1)


def test_relative_cnci_self_is_one_under_fractional(two_papers):
    papers = list(two_papers.papers.values())
    assert relative_cnci(two_papers, papers, papers, S, counting="fractional") == 1


def test_relative_cnci_self_under_whole_keeps_the_drift(two_papers):
    papers = list(two_papers.papers.values())
    assert relative_cnci(two_papers, papers, papers, S, counting="whole") == Fraction(11, 12)


def test_relative_cnci_self_is_one_for_single_field_sets(simpson):
    papers = list(simpson.papers.values())
    assert relative_cnci(simpson, papers, papers, S, counting="whole") == 1


def test_relative_cnci_warns_when_subunit_leaves_reference(simpson, caplog):
    subunit = [simpson.papers["W1"]]
    reference = [simpson.papers[p] for p in ("RC1", "RC2", "RM")]
    with caplog.at_level(logging.WARNING, logger="biblio.normalization"):
        relative_cnci(simpson, subunit, reference, S)
    assert any("outside the reference set" in r.message for r in caplog.records)


def test_relative_cnci_zero_reference_baseline_is_an_error(simpson):
    subunit = [simpson.papers["RM"]]
    reference = [Paper("ghostM", "JM", 2020, "article"), simpson.papers["RC1"]]
    with_ghost = Corpus(
        simpson.schemas.values(),
        simpson.journals.values(),
        [*simpson.papers.values(), reference[0]],
        citation_counts={**simpson.explicit_counts, "ghostM": 0},
    )
    with pytest.raises(ZeroBaselineError):
        relative_cnci(with_ghost, subunit, reference, S)


def test_relative_cnci_rejects_empty_sets(simpson):
    with pytest.raises(EmptyInputError):
        relative_cnci(simpson, [], list(simpson.papers.values()), S)
    with pytest.raises(EmptyInputError):
        relative_cnci(simpson, list(simpson.papers.values()), [], S)


OUTSIDE = Paper("zz", "jf", 2019, "article")


@pytest.mark.parametrize("indicator", [
    lambda c, own: cnci_paper(c, OUTSIDE, compute_baselines(c, "f")),
    lambda c, own: cnci_paper(c, OUTSIDE, compute_baselines(c, "f", papers=own)),
    lambda c, own: cnci_set(c, [*own, OUTSIDE], compute_baselines(c, "f")),
    lambda c, own: relative_cnci(c, [OUTSIDE], own, "f"),
    lambda c, own: relative_cnci(c, own, [*own, OUTSIDE], "f"),
    lambda c, own: compute_baselines(c, "f", papers=[OUTSIDE, *own]),
], ids=["cnci_paper", "cnci_paper_pool_table", "cnci_set", "relative_cnci_subunit",
        "relative_cnci_reference", "compute_baselines_pool"])
def test_a_paper_outside_the_corpus_is_named(hundred, indicator):
    with pytest.raises(ComputationError) as err:
        indicator(hundred, list(hundred.papers.values())[:5])
    assert str(err.value) == "paper 'zz' is not in the corpus"
