import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repfit.urn

from repfit.corpus import RepeatStatistics, build_corpus, compute_statistics
from repfit.errors import ModelError, ValidationError
from repfit.rng import _SAMPLE_CHUNK, _fill_categorical
from repfit.urn import (
    UrnModel,
    exact_completion_probability,
    hatted_urn,
    sample_figures,
    urn_from_json,
    urn_from_stats,
    urn_to_json,
)

from oracles import (
    acceptance_proportion,
    block_probability,
    completing_figures,
    figures_from_draws,
    hatted_apparent,
    sample_figures_oracle,
)

# Twelve card kinds: no-repeat plus r = 1..11.
TWELVE_CARD_URN = UrnModel(
    alpha={r: 0.4 * 0.5 ** r for r in range(1, 12)},
    no_repeat=1.0 - sum(0.4 * 0.5 ** r for r in range(1, 12)),
    alphabet_size=12,
)

# 1,201 card kinds, with a cdf entry below 1.0 for every one but the last:
# the sampler searches the cdf for each card (rng._SEARCH_FROM).
_LONG_CARDS = {r: 1e-6 for r in range(12, 1_201)}
MANY_KIND_URN = UrnModel(
    alpha={**TWELVE_CARD_URN.alpha, **_LONG_CARDS},
    no_repeat=TWELVE_CARD_URN.no_repeat - sum(_LONG_CARDS.values()),
    alphabet_size=12,
)


def codes(text):
    return [ord(ch) - ord("A") for ch in text]


def test_urn_from_abcab_stats():
    stats = compute_statistics(build_corpus([codes("ABCAB")], 26), 4)
    urn = urn_from_stats(stats)
    assert urn.alpha == {2: 0.125}
    assert urn.no_repeat == 0.875


def test_urn_from_stats_without_repeats():
    stats = compute_statistics(build_corpus([codes("ABCDE")], 26), 3)
    urn = urn_from_stats(stats)
    assert urn.alpha == {}
    assert urn.no_repeat == 1.0


def test_urn_from_stats_rejects_zero_cards():
    stats = RepeatStatistics(n_letters=1, alphabet_size=26, apparent=(0,))
    assert stats.total_cards == 0
    with pytest.raises(ModelError, match="degenerate"):
        urn_from_stats(stats)


def test_urn_from_stats_rejects_zero_no_repeat_cards():
    # All five cards are repeat cards: the drawing process could never
    # terminate a run.
    stats = RepeatStatistics(n_letters=5, alphabet_size=26, apparent=(5, 0, 0))
    with pytest.raises((ModelError, ValidationError)):
        urn_from_stats(stats)


def test_proportions_account_for_the_whole_urn():
    import random

    rng = random.Random(6)
    urns = [hatted_urn(c) for c in (2, 3, 26)]
    urns.append(urn_from_stats(compute_statistics(build_corpus([codes("ABCAB")], 26), 4)))
    for _ in range(50):
        total = rng.uniform(0.01, 0.9)
        parts = [rng.random() for _ in range(rng.randrange(1, 6))]
        alpha = {r + 1: x * total / sum(parts) for r, x in enumerate(parts)}
        urns.append(UrnModel(alpha=alpha, no_repeat=1 - sum(alpha.values()), alphabet_size=26))
    for urn in urns:
        assert abs(urn.no_repeat + sum(urn.alpha.values()) - 1.0) <= 1e-12


def test_urn_validation():
    with pytest.raises(ValidationError):
        UrnModel(alpha={1: 0.5}, no_repeat=0.0, alphabet_size=26)
    with pytest.raises(ValidationError):
        UrnModel(alpha={1: 0.5}, no_repeat=0.6, alphabet_size=26)
    with pytest.raises(ValidationError):
        UrnModel(alpha={-1: 0.1}, no_repeat=0.9, alphabet_size=26)


@pytest.mark.parametrize("alpha, message", [
    ({math.nan: 0.1}, "card run length must be a positive integer, got nan"),
    ({"x": 0.1}, "card run length must be a positive integer, got 'x'"),
    ({math.inf: 0.1}, "card run length must be a positive integer, got inf"),
    ({2: "0.1"}, "card proportion for r=2 must be finite and >= 0, got 0.1"),
])
def test_urn_alphas_of_other_kinds_raise_validation_errors(alpha, message):
    # These used to escape as ValueError, OverflowError and TypeError.
    with pytest.raises(ValidationError, match=message):
        UrnModel(alpha=alpha, no_repeat=0.9, alphabet_size=26)
    # Bool and numpy-integer run lengths are whole numbers, as before.
    for r in (True, np.int64(1)):
        assert UrnModel(alpha={r: 0.1}, no_repeat=0.9, alphabet_size=26).alpha == {1: 0.1}


def test_hatted_proportions_c26():
    urn = hatted_urn(26)
    assert urn.alpha[1] == pytest.approx(25 / 676, rel=1e-15)
    assert urn.alpha[2] == pytest.approx(25 / 17576, rel=1e-15)
    assert urn.no_repeat == pytest.approx(25 / 26, abs=1e-15)


def test_hatted_proportions_c2_truncated():
    urn = hatted_urn(2, r_max=3)
    assert urn.alpha == {1: 0.25, 2: 0.125, 3: 0.0625}
    assert urn.no_repeat == pytest.approx(9 / 16, abs=1e-15)
    assert urn.no_repeat + sum(urn.alpha.values()) == pytest.approx(1.0, abs=1e-12)


def test_hatted_rejects_tiny_alphabet():
    with pytest.raises(ValidationError):
        hatted_urn(1)


def test_hatted_default_depth_grows_for_small_alphabets():
    assert max(hatted_urn(26).alpha) == 25
    assert max(hatted_urn(2).alpha) > 40


def test_hatted_apparent():
    assert hatted_apparent(26, 1, 26) == pytest.approx(12.5)
    assert hatted_apparent(26, 0, 26) == 325
    with pytest.raises(ValidationError):
        hatted_apparent(1, 1, 26)


def test_hatted_apparent_monte_carlo():
    # Random uniform circle: apparent trigramme count near (N(N-1)/2)/c^3.
    rng = np.random.default_rng(42)
    n, c = 10_000, 4
    corpus = build_corpus([rng.integers(0, c, size=n)], c)
    m3 = compute_statistics(corpus, 5).apparent[2]
    expected = hatted_apparent(c, 3, n)
    sigma = math.sqrt(expected)  # pair indicators are nearly independent here
    assert abs(m3 - expected) < 3 * sigma


def test_acceptance_proportion():
    assert acceptance_proportion(hatted_urn(26)) == pytest.approx(25 / 26, abs=1e-12)
    assert acceptance_proportion(UrnModel(alpha={}, no_repeat=1.0, alphabet_size=2)) == 1.0
    urn = UrnModel(alpha={1: 0.5}, no_repeat=0.5, alphabet_size=2)
    assert acceptance_proportion(urn) == pytest.approx(2 / 3, rel=1e-15)


def test_completion_probability_small_cases():
    urn = hatted_urn(26)
    a = urn.no_repeat
    assert exact_completion_probability(urn, 0) == 1.0
    assert exact_completion_probability(urn, 1) == a
    assert exact_completion_probability(urn, 2) == pytest.approx(a * a + urn.alpha[1], rel=1e-15)


def test_completion_probability_renewal_limit():
    urn = hatted_urn(26)
    f = exact_completion_probability(urn, 500)
    assert abs(f * (1.0 + urn.mean_extra_cells) - 1.0) < 1e-6
    # The same limit is the acceptance proportion.
    assert f == pytest.approx(acceptance_proportion(urn), rel=1e-6)


def test_completion_probability_matches_enumeration():
    urns = [
        hatted_urn(4, r_max=3),
        UrnModel(alpha={1: 0.2, 3: 0.1}, no_repeat=0.7, alphabet_size=5),
    ]
    for urn in urns:
        for overlap in range(0, 9):
            total = sum(
                block_probability(figure, dict(urn.alpha), urn.no_repeat)
                for figure in completing_figures(overlap)
            )
            assert abs(total - exact_completion_probability(urn, overlap)) < 1e-12


def test_sampler_replays_worked_example():
    draws = [4, 0, 0, 0, 2, 0, 3, 13] + [0] * 13
    figures, scrapped = figures_from_draws(draws, overlap=12, count=2)
    assert [f.cells for f in figures] == ["XXXXOOOOXXOO", "OOOOOOOOOOOO"]
    assert scrapped == 1


def test_sampler_replay_strips_final_o_on_request():
    figures, _ = figures_from_draws([4, 0, 0, 0, 2, 0], 12, 1, keep_trailing_o=False)
    assert figures[0].cells == "XXXXOOOOXXO"


def test_sampler_replay_errors():
    with pytest.raises(ValidationError, match="exhausted"):
        figures_from_draws([0, 0], overlap=3, count=1)
    with pytest.raises(ValidationError, match="invalid draw"):
        figures_from_draws([-2], overlap=3, count=1)


def test_sampler_empty_alpha_gives_all_o_figures():
    urn = UrnModel(alpha={}, no_repeat=1.0, alphabet_size=26)
    figures, scrapped = sample_figures(urn, overlap=5, count=2, seed=3)
    assert [f.cells for f in figures] == ["OOOOO", "OOOOO"]
    assert scrapped == 0


def test_sampler_is_deterministic_for_a_seed():
    urn = hatted_urn(4)
    first = sample_figures(urn, overlap=30, count=200, seed=99)
    second = sample_figures(urn, overlap=30, count=200, seed=99)
    assert [f.cells for f in first[0]] == [f.cells for f in second[0]]
    assert first[1] == second[1]


def test_sampler_figures_have_requested_overlap_and_end_in_o():
    urn = hatted_urn(3)
    figures, _ = sample_figures(urn, overlap=17, count=50, seed=5)
    for figure in figures:
        assert figure.length == 17
        assert figure.cells.endswith("O")
    stripped, _ = sample_figures(urn, overlap=17, count=10, seed=5, keep_trailing_o=False)
    for figure in stripped:
        assert figure.length == 16


def test_sampler_completion_rate_matches_exact_probability():
    # Session outcomes are i.i.d., so the completed fraction is binomial
    # around the dynamic-programming value.
    urn = UrnModel(alpha={1: 0.15, 2: 0.08, 4: 0.02}, no_repeat=0.75, alphabet_size=6)
    for overlap in (5, 12, 50):
        count = 100_000
        _, scrapped = sample_figures(urn, overlap=overlap, count=count, seed=overlap)
        sessions = count + scrapped
        observed = count / sessions
        expected = exact_completion_probability(urn, overlap)
        sigma = math.sqrt(expected * (1 - expected) / sessions)
        assert abs(observed - expected) < 3 * sigma


def test_sampler_figure_distribution_matches_block_probabilities():
    # At a small overlap every completed figure's frequency should sit near
    # its conditional probability block_prob / f(L).
    urn = hatted_urn(4, r_max=3)
    overlap, count = 6, 100_000
    figures, _ = sample_figures(urn, overlap=overlap, count=count, seed=1234)
    freq: dict[str, int] = {}
    for figure in figures:
        freq[figure.cells] = freq.get(figure.cells, 0) + 1
    f_l = exact_completion_probability(urn, overlap)
    for cells in completing_figures(overlap):
        p = block_probability(cells, dict(urn.alpha), urn.no_repeat) / f_l
        expected = count * p
        if expected < 5:
            continue
        sigma = math.sqrt(count * p * (1 - p))
        assert abs(freq.get(cells, 0) - expected) < 4 * sigma, cells


def test_sampler_card_frequencies_match_proportions():
    # Unconditioned card draws of the sampler's fill follow the urn proportions.
    urn = hatted_urn(4)
    rng = np.random.default_rng(77)
    lengths = np.array([1] + [r + 1 for r in sorted(urn.alpha)])
    probs = np.array([urn.no_repeat] + [urn.alpha[r] for r in sorted(urn.alpha)])
    draws = np.empty(1_000_000, dtype=np.uint8)
    _fill_categorical(draws, probs, rng, _SAMPLE_CHUNK)
    for idx in range(lengths.size):
        p = probs[idx]
        expected = draws.size * p
        if expected < 10:
            continue
        sigma = math.sqrt(draws.size * p * (1 - p))
        assert abs((draws == idx).sum() - expected) < 3 * sigma


@settings(max_examples=60, deadline=None)
@given(
    # The 1,001-kind urn draws uint16 cards, and all but 53 of its cdf
    # entries are 1.0; the 1,201-kind urn has 1,200 below 1.0.
    st.sampled_from([hatted_urn(2), TWELVE_CARD_URN, hatted_urn(2, r_max=1000), MANY_KIND_URN]),
    st.sampled_from([1, 2, 37]),
    st.integers(min_value=1, max_value=150),
    st.integers(min_value=0, max_value=2**32),
    st.booleans(),
    st.sampled_from([1, 37, 100, 1 << 16]),
)
def test_sampler_equals_the_batched_oracle(urn, overlap, count, seed, keep_trailing_o, chunk):
    # Small chunks put figures and scrapped rows on both sides of chunk
    # boundaries; the draw stream, and so every figure, must not move.
    with mock.patch.object(repfit.urn, "_SAMPLE_CHUNK", chunk):
        figures, scrapped = sample_figures(urn, overlap, count, seed, keep_trailing_o)
    expected, expected_scrapped = sample_figures_oracle(urn, overlap, count, seed, keep_trailing_o)
    assert [f.cells for f in figures] == expected
    assert scrapped == expected_scrapped


def test_sampler_input_validation():
    urn = hatted_urn(4)
    with pytest.raises(ValidationError):
        sample_figures(urn, overlap=0, count=1, seed=0)
    with pytest.raises(ValidationError):
        sample_figures(urn, overlap=5, count=0, seed=0)
    with pytest.raises(ValidationError, match="seed"):
        sample_figures(urn, overlap=5, count=1, seed=-1)


def test_urn_artifact_round_trip():
    urn = UrnModel(alpha={1: 0.1, 3: 0.05}, no_repeat=0.85, alphabet_size=12)
    again = urn_from_json(urn_to_json(urn))
    assert again == urn


def test_urn_artifact_errors():
    with pytest.raises(ValidationError, match="missing field"):
        urn_from_json('{"alpha": {}}')
    with pytest.raises(ValidationError, match="invalid urn artifact"):
        urn_from_json("not json")
    with pytest.raises(ValidationError):
        urn_from_json('{"c": 26, "A": 0.5, "alpha": {"1": 0.9}}')
