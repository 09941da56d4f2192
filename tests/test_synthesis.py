import concurrent.futures
import logging
import multiprocessing
import os
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import corpora
import oracles
from biblio import (
    CitationModel,
    CnciConfig,
    ComputationError,
    GenConfig,
    SizeDist,
    decimal_str,
    dump_corpus,
    generate_corpus,
    global_cnci,
    monte_carlo_global_cnci,
    monte_carlo_surplus,
    surplus_analytic,
    validate,
)
from biblio import normalization
from biblio.synthesis import REGIMES, _expected_extras


def small_config(**overrides) -> GenConfig:
    base = dict(
        seed=1,
        num_categories=3,
        journals_per_category=SizeDist.uniform(2, 4),
        papers_per_journal=SizeDist.uniform(1, 4),
        multi_attribution_prob=0.5,
        citation_model=CitationModel(kind="yule", rho=2.0),
    )
    base.update(overrides)
    return GenConfig(**base)


# -- size distributions -------------------------------------------------------------


def test_size_dist_sampling_bounds():
    rng = random.Random(0)
    fixed = SizeDist.fixed(17)
    assert fixed.draws(rng, 5) == [17] * 5
    uni = SizeDist.uniform(3, 6)
    assert set(uni.draws(rng, 200)) == {3, 4, 5, 6}


def test_size_dist_config_round_trip():
    for dist in (SizeDist.fixed(20), SizeDist.uniform(13, 19)):
        assert SizeDist.from_config(dist.to_config()) == dist
    assert SizeDist.from_config(17) == SizeDist.fixed(17)
    with pytest.raises(ComputationError):
        SizeDist.from_config({"gaussian": [1, 2]})
    with pytest.raises(ComputationError, match="unknown size distribution 'normal'"):
        SizeDist("normal")
    with pytest.raises(ComputationError):
        SizeDist.uniform(5, 4)
    for negative in (SizeDist.fixed, lambda low: SizeDist.uniform(low, 2)):
        with pytest.raises(ComputationError, match="sizes must be integers >= 0"):
            negative(-1)
    assert SizeDist.fixed(0).draws(random.Random(0), 2) == [0, 0]


def test_remainder_weights():
    assert SizeDist.fixed(20).remainder_weights() == (1, 0, 0, 0)
    assert SizeDist.fixed(18).remainder_weights() == (0, 0, 1, 0)
    assert SizeDist.uniform(13, 19).remainder_weights() == (
        Fraction(1, 7), Fraction(2, 7), Fraction(2, 7), Fraction(2, 7),
    )
    assert SizeDist.uniform(1, 4).remainder_weights() == (Fraction(1, 4),) * 4
    for value in range(8):
        assert SizeDist.fixed(value).remainder_weights() == oracles.uniform_remainder_weights(
            value, value)


@given(st.integers(min_value=0, max_value=60), st.integers(min_value=0, max_value=40))
def test_remainder_weights_match_enumeration(low, span):
    dist = SizeDist.uniform(low, low + span)
    assert dist.remainder_weights() == oracles.uniform_remainder_weights(low, low + span)


# -- citation models ----------------------------------------------------------------


def test_citation_model_support():
    rng = random.Random(7)
    yule = CitationModel(kind="yule", rho=1.5, shift=0)
    draws = [yule.sampler(rng)() for _ in range(500)]
    assert min(draws) >= 1
    assert max(draws) > 5  # heavy tail actually reaches out

    shifted = CitationModel(kind="lognormal", mu=0.0, sigma=1.0, shift=2)
    assert min(shifted.sampler(rng)() for _ in range(500)) >= 2

    class ZeroExponential(random.Random):
        """A stream whose exponential is 0.0, as ``expovariate`` draws when
        ``random()`` is 0.0: the geometric then succeeds at once, with p = 1."""

        def expovariate(self, lambd):
            return 0.0

    assert CitationModel(kind="yule", rho=1.5, shift=2).sampler(ZeroExponential(0))() == 3


@pytest.mark.parametrize("model", [
    CitationModel(kind="lognormal", mu=0.5, sigma=1.0),
    CitationModel(kind="lognormal", mu=-1.0, sigma=2.5, shift=3),
    CitationModel(kind="lognormal", mu=700.0, sigma=5.0),  # some draws overflow
    CitationModel(kind="yule", rho=2.0),
    CitationModel(kind="yule", rho=0.1, shift=1),  # some draws take the log1p fallback
    CitationModel(kind="yule", rho=1.0e-300),  # every draw overflows
], ids=["lognormal", "lognormal-shifted", "lognormal-overflow", "yule", "yule-log1p",
        "yule-overflow"])
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sampler_draws_as_the_one_call_oracle(model, seed):
    ours, single, theirs = random.Random(seed), random.Random(seed), random.Random(seed)
    draw = model.sampler(ours)
    for _ in range(400):
        expected = oracles.outcome(lambda: oracles.citation_draw(model, theirs))
        assert oracles.outcome(draw) == expected
        assert oracles.outcome(lambda: model.sampler(single)()) == expected
    assert ours.getstate() == single.getstate() == theirs.getstate()


def test_citation_model_config_round_trip():
    for model in (
        CitationModel(kind="lognormal", mu=0.3, sigma=0.8, shift=1),
        CitationModel(kind="yule", rho=2.5, shift=0),
    ):
        assert CitationModel.from_config(model.to_config()) == model
    with pytest.raises(ComputationError):
        CitationModel(kind="zipf")
    assert repr(CitationModel(mu=1).mu) == "1.0"  # stored as the reader stores it


@pytest.mark.parametrize("build, message", [
    (lambda: CitationModel(shift=0.5), "shift must be an integer, got 0.5"),
    (lambda: small_config(years=(2020.5,)), "years must be an integer, got 2020.5"),
    (lambda: small_config(multi_attribution_prob=True),
     "multi_attribution_prob must be a finite number, got True"),
    (lambda: SizeDist.fixed(2.5), "fixed size must be an integer, got 2.5"),
    (lambda: SizeDist.uniform(1, 2.0), "uniform bound must be an integer, got 2.0"),
], ids=["shift", "years", "multi_attribution_prob", "fixed", "uniform"])
def test_library_built_configs_check_types_as_the_reader_does(build, message):
    with pytest.raises(ComputationError) as err:
        build()
    assert str(err.value) == message


# -- generator ----------------------------------------------------------------------


def test_generator_is_deterministic():
    config = small_config()
    assert generate_corpus(config) == generate_corpus(config)
    assert generate_corpus(config, trial=3) == generate_corpus(config, trial=3)
    assert generate_corpus(config) != generate_corpus(config, trial=0)
    assert generate_corpus(config) != generate_corpus(small_config(seed=2))


def test_generator_bytes_are_identical(tmp_path):
    config = small_config()
    texts = []
    for run in ("a", "b"):
        j, p = tmp_path / f"j-{run}.jsonl", tmp_path / f"p-{run}.jsonl"
        dump_corpus(generate_corpus(config), j, p)
        texts.append(j.read_bytes() + p.read_bytes())
    assert texts[0] == texts[1]


def test_fixed_shape_counts():
    config = GenConfig(
        seed=1,
        num_categories=4,
        journals_per_category=SizeDist.fixed(17),
        papers_per_journal=SizeDist.fixed(5),
    )
    corpus = generate_corpus(config)
    assert len(corpus.journals) == 68
    assert len(corpus.papers) == 4 * 17 * 5
    assert corpus.schemas["synthetic"].single_attribution is True
    for cat in {c for j in corpus.journals.values() for c in j.categories["synthetic"]}:
        assert len([j for j in corpus.journals.values() if cat in j.categories["synthetic"]]) == 17
    assert "cat01-j000" in corpus.journals
    assert "p000000" in corpus.papers


def test_full_multi_attribution_caps_at_available_categories():
    config = small_config(
        num_categories=2, multi_attribution_prob=1.0, max_categories_per_journal=3
    )
    corpus = generate_corpus(config)
    assert corpus.schemas["synthetic"].single_attribution is False
    for j in corpus.journals.values():
        assert len(j.categories["synthetic"]) == 2


def test_doc_type_mix_and_years():
    config = small_config(
        years=(2019, 2020),
        doc_type_mix=(("article", 0.7), ("review", 0.3)),
        journals_per_category=SizeDist.fixed(2),
        papers_per_journal=SizeDist.fixed(30),
    )
    corpus = generate_corpus(config)
    assert {p.year for p in corpus.papers.values()} == {2019, 2020}
    assert {p.doc_type for p in corpus.papers.values()} == {"article", "review"}


def test_volume_metric_coupling():
    config = small_config(
        multi_attribution_prob=0.0,
        journals_per_category=SizeDist.fixed(5),
        papers_per_journal=SizeDist.uniform(1, 30),
        correlate_volume_with_metric=True,
    )
    corpus = generate_corpus(config)
    year = config.years[0]
    for cat in {c for j in corpus.journals.values() for c in j.categories["synthetic"]}:
        members = [j for j in corpus.journals.values() if cat in j.categories["synthetic"]]
        volumes = {j.id: 0 for j in members}
        for p in corpus.papers.values():
            if p.journal_id in volumes:
                volumes[p.journal_id] += 1
        ordered = sorted(members, key=lambda j: (-j.metric_by_year[year], j.id))
        drawn = sorted((volumes[j.id] for j in members), reverse=True)
        assert [volumes[j.id] for j in ordered] == drawn


def test_uncorrelated_volumes_are_the_same_draws_in_journal_order():
    def volumes(correlate):
        config = small_config(
            multi_attribution_prob=0.0,
            journals_per_category=SizeDist.fixed(5),
            papers_per_journal=SizeDist.uniform(1, 30),
            correlate_volume_with_metric=correlate,
        )
        return Counter(p.journal_id for p in generate_corpus(config).papers.values())

    paired, drawn = volumes(True), volumes(False)
    assert paired != drawn
    for cat in ("cat01", "cat02", "cat03"):
        ids = [f"{cat}-j{i:03d}" for i in range(5)]
        assert sorted(paired[j] for j in ids) == sorted(drawn[j] for j in ids)


def test_multi_field_boost_inflates_multi_journal_counts():
    config = small_config(
        seed=9, multi_attribution_prob=1.0, num_categories=3,
        citation_model=CitationModel(kind="yule", rho=2.0, shift=3),
        multi_field_citation_boost=4.0,
    )
    corpus = generate_corpus(config)
    counts = [corpus.citation_counts[p] for p in corpus.papers]
    assert min(counts) >= 16  # every journal is multi-field: (1+3) * 4


def test_config_validation_errors():
    with pytest.raises(ComputationError):
        small_config(num_categories=0)
    with pytest.raises(ComputationError):
        small_config(multi_attribution_prob=1.5)
    with pytest.raises(ComputationError):
        small_config(max_categories_per_journal=5)
    with pytest.raises(ComputationError):
        small_config(years=())
    with pytest.raises(ComputationError):
        small_config(doc_type_mix=())
    with pytest.raises(ComputationError, match="finite total"):
        small_config(doc_type_mix=(("article", 1.0e308), ("review", 1.0e308)))


def test_a_config_refuses_a_repeated_year():
    with pytest.raises(ComputationError) as err:
        small_config(years=(2020, 2021, 2020))
    assert str(err.value) == "years [2020, 2021, 2020] names a year more than once"


def test_config_dict_round_trip():
    config = small_config(
        years=(2019, 2020), doc_type_mix=(("article", 0.8), ("review", 0.2))
    )
    assert GenConfig.from_dict(config.to_dict()) == config


@settings(max_examples=40)
@given(
    st.integers(min_value=0, max_value=10**6),
    st.integers(min_value=1, max_value=4),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_generated_corpora_always_validate_clean(seed, cats, prob):
    config = small_config(seed=seed, num_categories=cats, multi_attribution_prob=prob)
    corpus = generate_corpus(config)
    report = validate(corpus)
    assert report.ok and not report.warnings
    assert all(c >= 1 for c in corpus.citation_counts.values())


# -- analytic quartile surplus --------------------------------------------------------


def test_surplus_example_236_categories():
    est = surplus_analytic(236, 12100)
    assert est.extras == (118, 59, 177)
    assert est.totals == (2937, 3054, 2996, 3113)
    assert sum(est.totals) == 12100
    assert est.max_relative_deviation == Fraction(8, 275)
    assert decimal_str(est.max_relative_deviation * 100, 3) == "2.909"


def test_surplus_example_8_categories():
    est = surplus_analytic(8, 100)
    assert est.extras == (4, 2, 6)
    assert est.totals == (22, 26, 24, 28)


def test_surplus_with_explicit_weights():
    weights = SizeDist.fixed(20).remainder_weights()
    est = surplus_analytic(5, 100, remainder_weights=weights)
    assert est.extras == (0, 0, 0)
    assert est.totals == (25, 25, 25, 25)


@given(
    st.integers(min_value=1, max_value=400),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=40),
)
def test_surplus_matches_enumeration_oracle(nc, low, span):
    weights = oracles.uniform_remainder_weights(low, low + span)
    total = nc * (low + span) + 40
    extras, totals = oracles.surplus_by_enumeration(nc, total, weights)
    est = surplus_analytic(nc, total, remainder_weights=weights)
    assert est.extras == extras
    assert est.totals == totals
    assert sum(est.totals) == total


@pytest.mark.parametrize("low", range(6))
def test_expected_extras_match_the_support_and_the_gains_table(low):
    # Two independent routes to the exact expectation: the mean surplus over
    # every size of the spec's support, each size cut position by position (a
    # size-0 category places nothing), and the hand-written table of which
    # quartiles gain a unit at each remainder.
    for span in range(13):
        sizes = range(low, low + span + 1)
        cuts = [oracles.positional_quartiles(n) for n in sizes]
        by_support = tuple(
            Fraction(sum(q.count(b) - q.count(1) for q in cuts), len(sizes)) for b in (2, 3, 4))
        weights = SizeDist.uniform(low, low + span).remainder_weights()
        assert _expected_extras(1, weights) == by_support
        assert _expected_extras(5, weights) == oracles.exact_extras(5, weights)


def test_surplus_validation():
    with pytest.raises(ComputationError):
        surplus_analytic(0, 100)
    with pytest.raises(ComputationError):
        surplus_analytic(10, 5)
    with pytest.raises(ComputationError):
        surplus_analytic(4, 4)  # expected extras exceed the journal pool
    with pytest.raises(ComputationError):
        surplus_analytic(8, 100, remainder_weights=(Fraction(1, 2),) * 4)


# -- Monte Carlo: surplus -------------------------------------------------------------


def mc_config(**overrides) -> GenConfig:
    # 13..20 spans every remainder mod 4 twice, so the expected extras per
    # category are exactly (1/2, 1/4, 3/4) and the analytic figure is integral.
    base = dict(
        seed=11,
        num_categories=8,
        journals_per_category=SizeDist.uniform(13, 20),
        papers_per_journal=SizeDist.fixed(1),
    )
    base.update(overrides)
    return GenConfig(**base)


def test_monte_carlo_surplus_agrees_with_analytic():
    mc = monte_carlo_surplus(mc_config(), trials=300)
    assert mc.trials == 300
    assert mc.agrees and mc.flagged == ()
    assert mc.analytic_extras == (4, 2, 6)
    assert len(mc.per_trial_totals) == 300


@pytest.mark.parametrize("overrides,trials,analytic", [
    # remainder weights (1/7, 2/7, 2/7, 2/7): exact extras 32/7, 16/7, 48/7
    ({"journals_per_category": SizeDist.uniform(13, 19)}, 300, (5, 2, 7)),
    # remainder weights (2/9, 3/9, 2/9, 2/9): exact extras 16/3, 8/3, 28/3
    ({"seed": 7, "num_categories": 12, "journals_per_category": SizeDist.uniform(1, 9)},
     10_000, (5, 3, 9)),
], ids=["uniform-13-19", "uniform-1-9"])
def test_skewed_remainders_agree_with_the_exact_expectation(overrides, trials, analytic):
    # The expectation is not an integer, so the flag compares the mean against
    # the exact Fraction; analytic_extras only shows it rounded half-up.
    mc = monte_carlo_surplus(mc_config(**overrides), trials=trials)
    assert mc.analytic_extras == analytic
    assert mc.agrees


def test_monte_carlo_surplus_fixed_sizes_have_zero_variance():
    mc = monte_carlo_surplus(mc_config(journals_per_category=SizeDist.fixed(20)), trials=5)
    assert mc.analytic_extras == (0, 0, 0)
    assert mc.mean_extras == (0, 0, 0)
    assert set(mc.per_trial_totals) == {(40, 40, 40, 40)}
    assert mc.agrees


def test_a_zero_variance_mean_off_the_exact_expectation_is_flagged():
    # Sizes 1 and 2 give Q2 extras 0 and 1, so the expectation is 1/2; at this
    # seed every trial draws 2.
    config = mc_config(seed=3, num_categories=1, journals_per_category=SizeDist.uniform(1, 2))
    mc = monte_carlo_surplus(config, trials=3)
    assert set(mc.per_trial_totals) == {(0, 1, 0, 1)}
    assert mc.se_extras == (0.0, 0.0, 0.0)
    assert mc.flagged == ("Q2",) and not mc.agrees


def test_monte_carlo_surplus_single_trial_has_no_se():
    mc = monte_carlo_surplus(mc_config(), trials=1)
    assert mc.se_totals == (None,) * 4
    assert mc.se_extras == (None,) * 3
    assert mc.agrees


def test_monte_carlo_surplus_is_deterministic_and_trialwise():
    a = monte_carlo_surplus(mc_config(), trials=40)
    b = monte_carlo_surplus(mc_config(), trials=40)
    assert a.per_trial_totals == b.per_trial_totals
    wider = monte_carlo_surplus(mc_config(), trials=60)
    assert wider.per_trial_totals[:40] == a.per_trial_totals


def test_monte_carlo_surplus_rejects_zero_trials():
    with pytest.raises(ComputationError):
        monte_carlo_surplus(mc_config(), trials=0)


def test_thread_env_var_changes_nothing(monkeypatch):
    serial = monte_carlo_surplus(mc_config(), trials=12, workers=1)
    monkeypatch.setenv("BIBLIO_THREADS", "3")
    parallel = monte_carlo_surplus(mc_config(), trials=12)
    assert parallel.per_trial_totals == serial.per_trial_totals
    assert parallel.mean_extras == serial.mean_extras


class RecordingPool:
    """Stands in for ``ProcessPoolExecutor``: records ``max_workers`` and maps
    in this process, so no worker is ever started."""

    max_workers: list[int] = []

    def __init__(self, max_workers):
        RecordingPool.max_workers.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


def test_thread_env_var_is_capped_at_the_cpu_count(monkeypatch):
    serial = monte_carlo_surplus(mc_config(), trials=1000, workers=1)
    monkeypatch.setattr(RecordingPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setenv("BIBLIO_THREADS", "500")
    capped = monte_carlo_surplus(mc_config(), trials=1000)
    assert RecordingPool.max_workers == [2]
    assert capped.per_trial_totals == serial.per_trial_totals
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("value", ["two", "1.5", "+2", "2_0", "\u0662"])
def test_thread_env_var_that_is_not_an_integer_warns_and_runs_serially(
        monkeypatch, caplog, value):
    serial = monte_carlo_surplus(mc_config(), trials=12, workers=1)
    monkeypatch.setenv("BIBLIO_THREADS", value)
    with caplog.at_level(logging.WARNING, logger="biblio.synthesis"):
        result = monte_carlo_surplus(mc_config(), trials=12)
    assert result.per_trial_totals == serial.per_trial_totals
    assert [(r.levelno, r.getMessage()) for r in caplog.records] == [
        (logging.WARNING, f"BIBLIO_THREADS={value!r} is not an integer; running trials serially")]


@pytest.mark.parametrize("value", [None, "", " "])
def test_unset_or_empty_thread_env_var_is_silent_and_serial(monkeypatch, caplog, value):
    if value is None:
        monkeypatch.delenv("BIBLIO_THREADS", raising=False)
    else:
        monkeypatch.setenv("BIBLIO_THREADS", value)
    monkeypatch.setattr(RecordingPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    with caplog.at_level(logging.DEBUG, logger="biblio.synthesis"):
        monte_carlo_surplus(mc_config(), trials=12)
    assert caplog.records == []
    assert RecordingPool.max_workers == []


# -- Monte Carlo: global CNCI ---------------------------------------------------------


def test_cnci_regimes_multi_attribution():
    mc = monte_carlo_global_cnci(small_config(), trials=40)
    assert mc.trials == 40
    regimes = mc.regimes
    assert set(regimes) == {
        "whole_aor", "fractional_aor", "whole_roa", "whole_roa_split", "fractional_roa",
    }
    # The anomaly: whole counting with average-of-ratios drifts both ways.
    assert regimes["whole_aor"].minimum < 1 < regimes["whole_aor"].maximum
    # The dual routes stay glued to 1 on every closed corpus.
    for name in ("fractional_aor", "whole_roa", "whole_roa_split", "fractional_roa"):
        assert regimes[name].minimum == 1
        assert regimes[name].maximum == 1
    assert regimes["fractional_aor"].pinned
    assert regimes["whole_roa_split"].pinned
    assert not regimes["whole_aor"].pinned
    assert mc.all_pins_hold


def test_cnci_regimes_single_attribution_all_one():
    mc = monte_carlo_global_cnci(small_config(multi_attribution_prob=0.0), trials=10)
    for stats in mc.regimes.values():
        assert stats.minimum == 1 and stats.maximum == 1
    assert mc.all_pins_hold


def test_boost_drags_the_whole_aor_mean_down():
    config = small_config(
        seed=23, num_categories=4,
        journals_per_category=SizeDist.fixed(3),
        papers_per_journal=SizeDist.fixed(4),
        multi_attribution_prob=0.6,
        multi_field_citation_boost=5.0,
    )
    mc = monte_carlo_global_cnci(config, trials=30)
    assert mc.regimes["whole_aor"].mean < 1
    assert mc.all_pins_hold


def test_cnci_monte_carlo_parallel_equals_serial(monkeypatch):
    config = small_config(num_categories=2)
    serial = monte_carlo_global_cnci(config, trials=8, workers=1)
    monkeypatch.setenv("BIBLIO_THREADS", "2")
    parallel = monte_carlo_global_cnci(config, trials=8)
    assert serial.regimes == parallel.regimes


def test_global_cnci_builds_no_baseline_table(monkeypatch, two_papers):
    def values():
        return (monte_carlo_global_cnci(small_config(), trials=12, workers=1).regimes,
                [global_cnci(two_papers, corpora.SCHEMA, config, years)
                 for config in REGIMES.values() for years in (None, [2020])])

    def no_table(*args):
        raise AssertionError("a baseline table was built")

    want = values()
    monkeypatch.setattr(normalization, "BaselineTable", no_table)
    with pytest.raises(AssertionError, match="baseline table"):
        normalization.compute_baselines(two_papers, corpora.SCHEMA)
    assert values() == want


def test_single_trial_regime_stats_collapse():
    mc = monte_carlo_global_cnci(small_config(), trials=1)
    for stats in mc.regimes.values():
        assert stats.minimum == stats.mean == stats.maximum
