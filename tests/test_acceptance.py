"""End-to-end acceptance checks, one test per shipping criterion.

Each test is self-contained and prints the measured values it verified, so a
verbose run reads as a pass/fail line per criterion.
"""
import json
import random
import time
from fractions import Fraction

import pytest

import cli_cases
import corpora
from biblio import (
    CnciConfig,
    GenConfig,
    SizeDist,
    CitationModel,
    cnci_paper,
    compute_baselines,
    decimal_str,
    global_cnci,
    hcp_report,
    hcp_run,
    hcp_selection,
    monte_carlo_global_cnci,
    monte_carlo_surplus,
    percentile,
    provisional_hcp_ids,
    quartile_partition,
    relative_cnci,
    cnci_set,
    surplus_analytic,
    tiebreak_chronology,
    tiebreak_citing_excellence,
    tiebreak_trajectory,
)
from biblio.cli import main

SCHEMA = corpora.SCHEMA


def expected_by_field(corpus, counting):
    table = compute_baselines(corpus, SCHEMA, counting)
    return {key.field: cell.expected for key, cell in table.cells.items()}


def test_criterion_1_two_paper_fixture_exact_values():
    started = time.perf_counter()
    corpus = corpora.make_two_papers()

    assert expected_by_field(corpus, "whole") == {"A": Fraction(3, 2), "B": Fraction(2)}
    assert expected_by_field(corpus, "fractional") == {"A": Fraction(4, 3), "B": Fraction(2)}

    whole = compute_baselines(corpus, SCHEMA, "whole")
    fractional = compute_baselines(corpus, SCHEMA, "fractional")
    pa, pab = corpus.papers["pa"], corpus.papers["pab"]
    assert cnci_paper(corpus, pa, whole) == Fraction(2, 3)
    assert cnci_paper(corpus, pab, whole) == Fraction(7, 6)
    assert cnci_paper(corpus, pa, fractional) == Fraction(3, 4)
    assert cnci_paper(corpus, pab, fractional) == Fraction(5, 4)

    whole_aor = CnciConfig(counting="whole", aggregation="aor")
    assert global_cnci(corpus, SCHEMA, whole_aor) == Fraction(11, 12)
    assert global_cnci(corpora.make_two_papers(swapped=True), SCHEMA, whole_aor) == Fraction(13, 12)
    assert global_cnci(
        corpus, SCHEMA, CnciConfig(counting="fractional", aggregation="aor")
    ) == 1
    assert global_cnci(
        corpus, SCHEMA, CnciConfig(counting="whole", aggregation="roa", split_citations=True)
    ) == 1

    elapsed = time.perf_counter() - started
    print(f"two-paper fixture: global means 11/12, 13/12, 1, 1 in {elapsed:.3f}s")
    assert elapsed < 1.0


def test_criterion_2_quartile_partitions():
    started = time.perf_counter()
    for n, counts in ((16, (4, 4, 4, 4)), (17, (4, 4, 4, 5)),
                      (18, (4, 5, 4, 5)), (19, (4, 5, 5, 5))):
        assert quartile_partition(n).counts == counts

    extras_by_residue = {0: (0, 0, 0), 1: (0, 0, 1), 2: (1, 0, 1), 3: (1, 1, 1)}
    for n in range(1, 10_001):
        counts = quartile_partition(n).counts
        base = n // 4
        e = extras_by_residue[n % 4]
        assert sum(counts) == n
        assert counts[0] == min(counts) == base
        assert counts == (base, base + e[0], base + e[1], base + e[2])

    elapsed = time.perf_counter() - started
    print(f"partitions exhaustive over N in [1, 10000] in {elapsed:.3f}s")
    assert elapsed < 5.0


def test_criterion_3_percentile_rendering_and_symmetry():
    value = percentile(18, 86)
    assert decimal_str(value, 1) == "79.7"

    rng = random.Random(940)
    for _ in range(10_000):
        n = rng.randint(1, 5000)
        r = rng.randint(1, n)
        assert percentile(r, n) + percentile(n + 1 - r, n) == 100

    print("percentile(18, 86) renders 79.7; symmetry exact on 10000 samples")


def test_criterion_4_quartile_surplus_analytic_and_monte_carlo():
    started = time.perf_counter()
    est = surplus_analytic(236, 12_100)
    assert est.extras == (118, 59, 177)
    assert est.totals == (2937, 3054, 2996, 3113)
    assert decimal_str(est.max_relative_deviation * 100, 1) == "2.9"

    config = GenConfig(
        seed=42,
        num_categories=236,
        journals_per_category=SizeDist.uniform(13, 20),
        papers_per_journal=SizeDist.fixed(1),
    )
    mc = monte_carlo_surplus(config, trials=10_000)
    assert mc.analytic_extras == (118, 59, 177)
    assert mc.agrees, mc.flagged

    elapsed = time.perf_counter() - started
    means = [f"{float(m):.3f}" for m in mc.mean_extras]
    print(f"extras (118, 59, 177); 10000-trial means {means} within 3 SE in {elapsed:.1f}s")
    assert elapsed < 60.0


def test_criterion_5_hcp_fixtures_and_ws_weights():
    hundred = corpora.make_hundred()
    ws105 = corpora.make_ws105()

    inclusive = hcp_run(hundred, "f", method="inclusive", esi_low_threshold=False)
    assert len(inclusive) == 90
    report = hcp_report(hundred, "f", inclusive)
    (row,) = report.rows
    assert row.real_percent == Fraction(90)
    assert decimal_str(row.real_percent, 3) == "90.000"

    assert hcp_run(hundred, "f", method="inclusive", esi_low_threshold=True) == []
    assert hcp_run(hundred, "f", method="exclusive", esi_low_threshold=False) == []

    ws_small = hcp_run(hundred, "f", method="fractional_ws", esi_low_threshold=False)
    assert sum((d.weight for d in ws_small), Fraction(0)) == 1
    ws_large = hcp_run(ws105, "f", top_percent=10, method="fractional_ws")
    assert sum((d.weight for d in ws_large), Fraction(0)) == 11

    print("100-paper fixture: 90 / 0 / 0 selections; tie weights sum to quotas 1 and 11")


def test_criterion_6_math_2011_borderline_tiebreaks():
    started = time.perf_counter()
    corpus = corpora.make_math2011()

    (papers,) = corpus.cells("esi", years=[2011]).values()
    (result,), _ = hcp_selection(corpus, "esi", top_percent=Fraction(1), years=[2011])
    assert len(papers) == 38_048
    assert (result.quota, result.threshold) == (380, 88)
    assert (result.above_count, result.tie_count) == (376, 9)

    ties = sorted(
        (p for p in papers if corpus.citation_counts[p.id] == 88), key=lambda p: p.id
    )
    assert [p.id for p in ties] == [f"b{i}" for i in range(1, 10)]

    chrono = tiebreak_chronology(ties)
    assert chrono.groups[:4] == (("b1",), ("b2",), ("b3",), ("b4",))

    trajectory = tiebreak_trajectory(corpus, ties)
    first_four = {pid for group in trajectory.groups[:4] for pid in group}
    assert all(len(g) == 1 for g in trajectory.groups[:4])
    assert first_four == {"b1", "b2", "b6", "b7"}

    provisional = provisional_hcp_ids(corpus, "esi")
    citing = tiebreak_citing_excellence(corpus, ties, provisional)
    assert citing.groups[:3] == (("b2",), ("b4",), ("b7", "b8", "b9"))
    assert citing.evidence["b2"] == "citing_hcp=11"
    assert citing.evidence["b4"] == "citing_hcp=7"
    assert citing.evidence["b7"] == "citing_hcp=3"
    assert any("b7, b8, b9" in flag for flag in citing.flags)

    from biblio import parse_tiebreak_chain

    for chain, expected in (
        (("chronology",), {"b1", "b2", "b3", "b4"}),
        (("trajectory",), {"b1", "b2", "b6", "b7"}),
    ):
        decisions = hcp_run(
            corpus, "esi", method="quota",
            tiebreak_chain=parse_tiebreak_chain(chain), years=[2011],
        )
        assert len(decisions) == 380
        chosen = {d.paper_id for d in decisions if d.paper_id.startswith("b")}
        assert chosen == expected

    elapsed = time.perf_counter() - started
    print(f"38048-paper cell: quota 380 at 88 citations, all tie-breaks match in {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_7_global_mean_pins_on_randomized_corpora():
    multi = GenConfig(
        seed=7,
        num_categories=3,
        journals_per_category=SizeDist.uniform(2, 4),
        papers_per_journal=SizeDist.uniform(1, 4),
        multi_attribution_prob=0.6,
        max_categories_per_journal=3,
        citation_model=CitationModel(kind="yule", rho=2.0),
    )
    mc = monte_carlo_global_cnci(multi, trials=1000)
    assert mc.trials == 1000
    for name in ("fractional_aor", "whole_roa_split"):
        stats = mc.regimes[name]
        assert stats.minimum == 1 and stats.maximum == 1
        assert stats.violations == 0
    assert mc.all_pins_hold

    single = monte_carlo_global_cnci(
        GenConfig(
            seed=8,
            num_categories=3,
            journals_per_category=SizeDist.uniform(2, 4),
            papers_per_journal=SizeDist.uniform(1, 4),
            multi_attribution_prob=0.0,
            citation_model=CitationModel(kind="yule", rho=2.0),
        ),
        trials=200,
    )
    for name, stats in single.regimes.items():
        assert stats.minimum == 1 and stats.maximum == 1, name

    print("1200 corpora: fractional mean and split ratio-of-averages pinned at 1, zero failures")


def test_criterion_8_relative_cnci_reversal():
    corpus = corpora.make_simpson()
    subunit = list(corpus.papers_of_entity("team-s"))
    reference = list(corpus.papers_of_entity("unit-r"))
    baselines = compute_baselines(corpus, SCHEMA, "whole")

    ratio = cnci_set(corpus, subunit, baselines) / cnci_set(corpus, reference, baselines)
    relative = relative_cnci(corpus, subunit, reference, SCHEMA, "whole")
    assert ratio == Fraction(76, 77) < 1
    assert relative == Fraction(4, 3) > 1

    print(f"naive CNCI ratio {ratio} < 1 but reference-baseline value {relative} > 1")


def test_criterion_9_cli_determinism(capsys, tmp_path):
    invocations = cli_cases.invocations(tmp_path)
    subcommands = {argv[0] for _, argv in invocations}
    assert len(subcommands) == 11  # every subcommand is exercised

    for name, argv in invocations:
        runs = []
        for _ in range(2):
            code = main(list(argv))
            captured = capsys.readouterr()
            runs.append((code, captured.out.encode(), captured.err.encode()))
            assert code == cli_cases.exit_code(name), (name, captured.err)
        assert runs[0] == runs[1], f"{argv[0]} output varied between runs"

    print("all 11 subcommands byte-identical across reruns")
