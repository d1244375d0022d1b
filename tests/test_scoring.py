import dataclasses
import itertools
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repfit.corpus import build_corpus, compute_statistics
from repfit.errors import ModelError, ValidationError
from repfit.figures import figure_from_comparison, parse_figure
from repfit.scoring import (
    FitScore,
    ScoreWeights,
    odds_of_fit,
    right_relevant_proportion,
    score_to_json,
    weights,
    wrong_relevant_proportion,
)
from repfit.urn import (
    UrnModel,
    exact_completion_probability,
    hatted_urn,
    sample_figures,
    urn_from_stats,
)

from oracles import (
    cells_with_terminators,
    completing_figures,
    figure_of,
    repeated_letters,
    scan_run_spectrum,
    score_with_weights_oracle,
    weights_oracle,
    wrong_relevance_ratio,
)


def random_urn(
    rng: random.Random,
    c: int = 26,
    min_total: float = 0.05,
    max_total: float = 0.6,
) -> UrnModel:
    r_count = rng.randrange(1, 7)
    raw = [rng.random() + 1e-3 for _ in range(r_count)]
    total = rng.uniform(min_total, max_total)
    scale = total / sum(raw)
    alpha = {r + 1: x * scale for r, x in enumerate(raw)}
    return UrnModel(alpha=alpha, no_repeat=1.0 - total, alphabet_size=c)


def random_spectrum(rng: random.Random, urn: UrnModel) -> tuple[dict[int, int], int]:
    spectrum = {r: rng.randrange(0, 4) for r in urn.alpha if rng.random() < 0.7}
    overlap = cells_with_terminators(spectrum) - 1 + rng.randrange(0, 80)
    return spectrum, max(overlap, 0)


def test_hatted_weights_vanish():
    for c in (2, 3, 5, 26, 30):
        w = weights(hatted_urn(c))
        assert abs(w.nu) < 1e-12
        assert abs(w.correction) < 1e-12
        assert all(abs(m) < 1e-12 for m in w.mu.values())


def test_mu_plug_in_example():
    urn = UrnModel(alpha={2: 0.125}, no_repeat=0.875, alphabet_size=26)
    w = weights(urn)
    expected = math.log(0.125 * 26**3 / 25) - 3 * math.log(26 * 0.875 / 25)
    assert w.mu[2] == pytest.approx(expected, rel=1e-12)
    # Cross-check: the log form reproduces the explicit odds product.
    spectrum = {2: 2}
    overlap = 9
    score = odds_of_fit(urn, figure=figure_of(spectrum, overlap), prior_log_odds=math.log(3.0))
    direct = (
        3.0
        * right_relevant_proportion(urn, spectrum, overlap)
        / wrong_relevant_proportion(26, spectrum, overlap)
    )
    assert math.exp(score.log_odds) == pytest.approx(direct, rel=1e-9)


def test_nu_matches_small_alpha_approximation_in_its_valid_region():
    rng = random.Random(2024)
    for _ in range(100):
        urn = random_urn(rng, min_total=0.002, max_total=0.044)
        w = weights(urn)
        assert abs(w.nu - (sum(urn.alpha.values()) - 2 / 51)) < 1e-3


def test_nu_approximation_error_at_the_domain_edge():
    # At a 0.05 repeat-card share the quadratic remainder of -log(1 - x)
    # already exceeds the 1e-3 budget; the approximation is first-order only.
    urn = UrnModel(alpha={1: 0.05}, no_repeat=0.95, alphabet_size=26)
    err = abs(weights(urn).nu - (sum(urn.alpha.values()) - 2 / 51))
    assert err == pytest.approx(0.0012882675, abs=1e-9)
    assert err > 1e-3


def test_right_relevant_proportion_empty_spectrum():
    urn = hatted_urn(26)
    value = right_relevant_proportion(urn, {}, 25)
    expected = (1.0 + urn.mean_extra_cells) * urn.no_repeat**26
    assert value == pytest.approx(expected, rel=1e-12)
    assert value == pytest.approx((26 / 25) * (25 / 26) ** 26, rel=1e-9)


def test_right_relevant_proportion_symbolic_example():
    q2, q4 = 0.06, 0.01
    urn = UrnModel(alpha={2: q2, 4: q4}, no_repeat=1 - q2 - q4, alphabet_size=26)
    value = right_relevant_proportion(urn, {4: 1, 2: 1}, 12)
    expected = (1 + 2 * q2 + 4 * q4) * (1 - q2 - q4) ** 5 * q2 * q4
    assert value == pytest.approx(expected, rel=1e-12)


def test_right_relevant_prefactor_is_the_renewal_normalization():
    # Summing the raw products over every completing figure of length L
    # gives exactly the completion probability; the prefactor rescales that
    # to its large-overlap limit.
    urn = UrnModel(alpha={1: 0.2, 2: 0.1, 3: 0.05}, no_repeat=0.65, alphabet_size=4)
    overlap = 8
    total = 0.0
    for cells in completing_figures(overlap):
        spectrum = scan_run_spectrum(cells)
        # The drawn figure carries its trailing O; the genuine figure is one
        # cell shorter.
        total += right_relevant_proportion(urn, spectrum, overlap - 1) / (1 + urn.mean_extra_cells)
    assert abs(total - exact_completion_probability(urn, overlap)) < 1e-12


def test_right_relevant_proportion_rejects_oversized_spectrum():
    # Two tetragrammes and their terminators fill 10 cells; overlap 8 admits 9.
    spectrum = {4: 2}
    with pytest.raises(ValidationError, match="needs 10 cells .* admits only 9"):
        right_relevant_proportion(hatted_urn(26), spectrum, 8)
    with pytest.raises(ValidationError, match="needs 10 cells .* admits only 9"):
        wrong_relevant_proportion(26, spectrum, 8)
    assert right_relevant_proportion(hatted_urn(26), spectrum, 9) > 0
    assert wrong_relevant_proportion(26, spectrum, 9) > 0
    # No figure has a negative overlap, not even one without runs.
    with pytest.raises(ValidationError, match="overlap must be >= 0, got -1"):
        right_relevant_proportion(hatted_urn(26), {}, -1)
    with pytest.raises(ValidationError, match="overlap must be >= 0, got -1"):
        wrong_relevant_proportion(26, {}, -1)


@pytest.mark.parametrize("spectrum, message", [
    ({"2": 1}, "run length must be a positive integer, got '2'"),
    ({math.nan: 1}, "run length must be a positive integer, got nan"),
    ({math.inf: 1}, "run length must be a positive integer, got inf"),
    ({2: "1"}, "run count for length 2 must be a non-negative integer, got '1'"),
    ({2: math.nan}, "run count for length 2 must be a non-negative integer, got nan"),
    ({2: math.inf}, "run count for length 2 must be a non-negative integer, got inf"),
])
def test_spectra_of_other_kinds_raise_validation_errors(spectrum, message):
    # Strings, NaN and infinities used to escape as TypeError, ValueError
    # and OverflowError.
    with pytest.raises(ValidationError, match=message):
        right_relevant_proportion(hatted_urn(26), spectrum, 10)
    with pytest.raises(ValidationError, match=message):
        wrong_relevant_proportion(26, spectrum, 10)
    # Bool and numpy integers are whole numbers, as before.
    for kind in (bool, np.int64):
        assert right_relevant_proportion(hatted_urn(26), {kind(1): kind(1)}, 10) > 0
        assert wrong_relevant_proportion(26, {kind(1): kind(1)}, 10) > 0


def test_wrong_relevant_proportion_is_the_iid_figure_probability():
    # Exhaustive check against uniform independent letter pairs, c = 2.
    c, overlap = 2, 4
    for cells in itertools.product("XO", repeat=overlap):
        figure = "".join(cells)
        spectrum = scan_run_spectrum(figure)
        matches = 0
        for a in itertools.product(range(c), repeat=overlap):
            for b in itertools.product(range(c), repeat=overlap):
                observed = "".join("X" if x == y else "O" for x, y in zip(a, b))
                matches += observed == figure
        direct = matches / c ** (2 * overlap)
        assert wrong_relevant_proportion(c, spectrum, overlap) == pytest.approx(direct, rel=1e-12)


def test_wrong_relevant_proportion_examples():
    assert wrong_relevant_proportion(5, {}, 0) == pytest.approx(1.0, rel=1e-15)
    # Single coincidence in an overlap of two, c = 2: figures XO and OX each
    # carry probability 1/4.
    assert wrong_relevant_proportion(2, {1: 1}, 2) == pytest.approx(0.25, rel=1e-12)
    # One bigramme in an overlap of three, c = 2: XXO, OXX at 1/8 each.
    assert wrong_relevant_proportion(2, {2: 1}, 3) == pytest.approx(0.125, rel=1e-12)


def test_wrong_relevant_equals_relevance_ratio():
    rng = random.Random(5)
    for _ in range(200):
        overlap = rng.randrange(0, 40)
        spectrum = scan_run_spectrum("".join(rng.choice("XO") for _ in range(overlap)))
        for c in (2, 4, 26):
            assert wrong_relevant_proportion(c, spectrum, overlap) == pytest.approx(
                wrong_relevance_ratio(overlap, repeated_letters(spectrum), c), rel=1e-12
            )


def test_wrong_relevance_ratio_examples_and_brute_force():
    assert wrong_relevance_ratio(0, 0, 26) == 1.0
    assert wrong_relevance_ratio(7, 7, 26) == pytest.approx((1 / 26) ** 7, rel=1e-12)
    # c=2, L=3, R=1 with the fixed pattern XOO: exhaustive 2^3 * 2^3 grids.
    matches = sum(
        a[0] == b[0] and a[1] != b[1] and a[2] != b[2]
        for a in itertools.product(range(2), repeat=3)
        for b in itertools.product(range(2), repeat=3)
    )
    assert matches / 64 == pytest.approx(1 / 8)
    assert wrong_relevance_ratio(3, 1, 2) == pytest.approx(1 / 8, rel=1e-12)
    with pytest.raises(ValidationError):
        wrong_relevance_ratio(3, 4, 2)


def test_hatted_urn_scores_everything_at_the_prior():
    urn = hatted_urn(26)
    rng = random.Random(31)
    for _ in range(50):
        cells = "".join(rng.choice("XXOOO") for _ in range(rng.randrange(1, 120)))
        prior = rng.uniform(-4, 4)
        score = odds_of_fit(urn, figure=parse_figure(cells), prior_log_odds=prior)
        assert math.exp(score.log_odds) == pytest.approx(math.exp(prior), rel=1e-9)


def test_zero_overlap_discrepancy_is_the_correction_term():
    urn = UrnModel(alpha={1: 0.1, 2: 0.03}, no_repeat=0.87, alphabet_size=26)
    score = odds_of_fit(urn, figure=figure_of({}, 0), prior_log_odds=0.7)
    w = weights(urn)
    assert score.log_odds == pytest.approx(0.7 + w.correction, rel=1e-12)
    assert score.evidence == 0.0


def test_headline_fit_scores_finitely_and_consistently():
    # A tetragramme, two bigrammes and fifteen single letters over an
    # overlap of 105, under an urn fitted from a sampled corpus.
    rng = random.Random(8)
    corpus = build_corpus([[rng.randrange(26) for _ in range(30_000)]], 26)
    urn = urn_from_stats(compute_statistics(corpus, 9))
    spectrum = {4: 1, 2: 2, 1: 15}
    assert all(urn.alpha.get(r, 0) > 0 for r in spectrum)
    prior = math.log(1 / 400)
    score = odds_of_fit(urn, figure=figure_of(spectrum, 105), prior_log_odds=prior)
    assert math.isfinite(score.log_odds)
    direct = (
        math.log(right_relevant_proportion(urn, spectrum, 105))
        - math.log(wrong_relevant_proportion(26, spectrum, 105))
    )
    assert score.log_odds - prior == pytest.approx(direct, rel=1e-9)


def test_consistency_identity_on_random_inputs():
    rng = random.Random(99)
    for _ in range(500):
        urn = random_urn(rng, c=rng.choice([2, 4, 26]))
        spectrum, overlap = random_spectrum(rng, urn)
        prior = rng.uniform(-3, 3)
        score = odds_of_fit(urn, figure=figure_of(spectrum, overlap), prior_log_odds=prior)
        direct = math.log(
            right_relevant_proportion(urn, spectrum, overlap)
            / wrong_relevant_proportion(urn.alphabet_size, spectrum, overlap)
        )
        assert math.isclose(score.log_odds - prior, direct, rel_tol=1e-9, abs_tol=1e-12)


def _whole_number_forms(n: int):
    """n as an int, an int-valued float, numpy integers and, for 1, True."""
    forms = [n, float(n), np.int64(n), np.uint8(n)]
    return st.sampled_from(forms + [True] * (n == 1))


@given(
    st.dictionaries(st.integers(1, 8).flatmap(_whole_number_forms),
                    st.integers(0, 3).flatmap(_whole_number_forms), max_size=6),
    st.sampled_from([hatted_urn(2), hatted_urn(26),
                     UrnModel(alpha={1: 0.1, 2: 0.03, 3: 0.01, 5: 1e-3}, no_repeat=0.859,
                              alphabet_size=4)]),
    st.integers(0, 30),
)
def test_proportions_read_a_spectrum_as_its_cleaned_form(spectrum, urn, spare):
    cleaned = {int(r): int(k) for r, k in spectrum.items() if k}
    overlap = max(cells_with_terminators(cleaned) - 1 + spare, 0)
    c = urn.alphabet_size
    assert float.hex(right_relevant_proportion(urn, spectrum, overlap)) == \
        float.hex(right_relevant_proportion(urn, cleaned, overlap))
    assert float.hex(wrong_relevant_proportion(c, spectrum, overlap)) == \
        float.hex(wrong_relevant_proportion(c, cleaned, overlap))


def test_log_odds_is_affine_in_counts_and_overlap():
    urn = UrnModel(alpha={1: 0.12, 2: 0.05, 3: 0.02}, no_repeat=0.81, alphabet_size=26)
    w = weights(urn)
    base = odds_of_fit(urn, figure=figure_of({1: 2, 2: 1}, 40)).log_odds
    bumped_k = odds_of_fit(urn, figure=figure_of({1: 3, 2: 1}, 40)).log_odds
    assert bumped_k - base == pytest.approx(w.mu[1], rel=1e-9)
    bumped_l = odds_of_fit(urn, figure=figure_of({1: 2, 2: 1}, 41)).log_odds
    assert bumped_l - base == pytest.approx(-w.nu, rel=1e-9)


def test_deciban_weights_are_scaled_natural_weights():
    urn = UrnModel(alpha={1: 0.1, 4: 0.01}, no_repeat=0.89, alphabet_size=26)
    nat = weights(urn, log_base="nat")
    db = weights(urn, log_base="db")
    scale = 10 / math.log(10)
    assert db.nu == pytest.approx(nat.nu * scale, rel=1e-12)
    assert db.correction == pytest.approx(nat.correction * scale, rel=1e-12)
    for r in nat.mu:
        assert db.mu[r] == pytest.approx(nat.mu[r] * scale, rel=1e-12)
    spectrum, overlap = {1: 3, 4: 1}, 30
    p_nat = odds_of_fit(urn, figure=figure_of(spectrum, overlap), prior_log_odds=0.5).posterior
    p_db = odds_of_fit(urn, figure=figure_of(spectrum, overlap), prior_log_odds=0.5 * scale,
                       log_base="db").posterior
    assert p_nat == pytest.approx(p_db, rel=1e-12)


def test_posterior_definition():
    urn = UrnModel(alpha={1: 0.1}, no_repeat=0.9, alphabet_size=26)
    score = odds_of_fit(urn, figure=figure_of({1: 1}, 5), prior_log_odds=0.3)
    q = math.exp(score.log_odds)
    assert score.posterior == pytest.approx(q / (1 + q), rel=1e-12)
    assert 0.0 < score.posterior < 1.0
    assert score.log_odds == score.prior_log_odds + score.evidence + score.correction


def test_unknown_run_length_is_an_error_without_smoothing():
    urn = UrnModel(alpha={1: 0.1}, no_repeat=0.9, alphabet_size=26)
    with pytest.raises(ModelError, match="3-gramme"):
        odds_of_fit(urn, figure=figure_of({3: 1}, 10))


def test_smoothing_floor_fills_missing_weights():
    urn = UrnModel(alpha={1: 0.1}, no_repeat=0.9, alphabet_size=26)
    floor = 1e-6
    score = odds_of_fit(urn, figure=figure_of({3: 1}, 10), floor=floor)
    w = weights(urn, floor=floor)
    expected_mu = math.log(floor * 26**4 / 25) + 4 * w.nu
    assert w.mu_for(3) == pytest.approx(expected_mu, rel=1e-12)
    assert math.isfinite(score.log_odds)
    # Present run lengths keep their fitted weights.
    assert w.mu_for(1) == w.mu[1]


def test_score_input_validation():
    urn = hatted_urn(26)
    with pytest.raises(ValidationError, match="finite"):
        odds_of_fit(urn, figure=figure_of({}, 5), prior_log_odds=math.inf)
    with pytest.raises(ValidationError):
        weights(urn, log_base="bits")


@given(
    st.integers(min_value=0, max_value=2**32),
    st.sampled_from([2, 4, 26]),
    st.sampled_from(["nat", "db"]),
    st.sampled_from([None, 1e-9, 0.5]),
    st.lists(st.text(alphabet="XO", max_size=60), min_size=1, max_size=5),
    st.floats(min_value=-20, max_value=20),
)
def test_odds_are_bit_equal_to_weights_recomputed_per_call(seed, c, unit, floor, texts, prior):
    # One urn scores several fits, so later calls use the per-urn weights
    # kept by the first.
    urn = random_urn(random.Random(seed), c=c)
    mu, nu, correction = weights_oracle(urn, unit)
    expected = ScoreWeights(alphabet_size=c, log_base=unit, mu=mu, nu=nu,
                            correction=correction, floor=floor)
    for text in texts:
        assert weights(urn, unit, floor) == expected
        figure = parse_figure(text)
        try:
            want = score_with_weights_oracle(expected, scan_run_spectrum(text),
                                             figure.length, prior)
        except ModelError:
            with pytest.raises(ModelError):
                odds_of_fit(urn, figure=figure, prior_log_odds=prior, log_base=unit, floor=floor)
            continue
        got = odds_of_fit(urn, figure=figure, prior_log_odds=prior, log_base=unit, floor=floor)
        assert got == want
        assert got.log_odds == want.log_odds and got.posterior == want.posterior


def _bits(score: FitScore) -> list:
    return [value.hex() if isinstance(value, float) else value
            for value in dataclasses.astuple(score)]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32),
    c=st.sampled_from([2, 4, 26]),
    unit=st.sampled_from(["nat", "db"]),
    floor=st.sampled_from([None, 1e-9, 1e-3, 0.5]),
    prior=st.floats(min_value=-20, max_value=20),
    overlap=st.integers(min_value=1, max_value=1000),
    source=st.sampled_from(["comparison", "sampler"]),
)
def test_odds_of_long_figures_equal_the_weights_oracle_field_for_field(
    seed, c, unit, floor, prior, overlap, source
):
    urn = random_urn(random.Random(seed), c=c)
    mu, nu, correction = weights_oracle(urn, unit)
    expected = ScoreWeights(alphabet_size=c, log_base=unit, mu=mu, nu=nu,
                            correction=correction, floor=floor)
    if source == "sampler":
        figures = sample_figures(urn, overlap=overlap, count=3, seed=seed)[0]
    else:
        rng = np.random.default_rng(seed)
        a, b = rng.integers(0, c, size=overlap + 7), rng.integers(0, c, size=overlap)
        # Each shift in 0..7 aligns all of b.
        figures = [figure_from_comparison(a, b, shift) for shift in (0, 3, 7)]
    for figure in figures:
        spectrum = scan_run_spectrum(figure.cells)
        try:
            want = score_with_weights_oracle(expected, spectrum, figure.length, prior)
        except ModelError:
            with pytest.raises(ModelError):
                odds_of_fit(urn, figure=figure, prior_log_odds=prior, log_base=unit, floor=floor)
            continue
        got = odds_of_fit(urn, figure=figure, prior_log_odds=prior, log_base=unit, floor=floor)
        assert _bits(got) == _bits(want)


def test_slotted_fit_scores_replace_pickle_compare_and_hash():
    score = odds_of_fit(hatted_urn(4), figure=parse_figure("XXOXO"), prior_log_odds=0.25)
    assert not hasattr(score, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        score.log_odds = 1.0
    moved = dataclasses.replace(score, log_odds=2.0)
    assert moved.log_odds == 2.0 and moved.posterior == score.posterior and moved != score
    assert dataclasses.replace(score) == score
    clone = pickle.loads(pickle.dumps(score))
    assert clone == score and clone is not score and _bits(clone) == _bits(score)
    assert hash(clone) == hash(score)
    assert len({score, clone, moved}) == 2


def test_weights_checks_its_arguments_on_every_call():
    urn = UrnModel(alpha={1: 0.07, 2: 0.02}, no_repeat=0.91, alphabet_size=26)
    for _ in range(3):
        for floor in (0.0, -1e-9, 1.0, 1.5, math.inf, math.nan):
            with pytest.raises(ValidationError, match="floor"):
                weights(urn, floor=floor)
            with pytest.raises(ValidationError, match="floor"):
                odds_of_fit(urn, figure=parse_figure("XO"), floor=floor)
        assert weights(urn, floor=1e-9).floor == 1e-9
        assert weights(urn).floor is None
    tiny = UrnModel(alpha={1: 0.5}, no_repeat=0.5, alphabet_size=1)
    for _ in range(3):
        with pytest.raises(ValidationError, match="at least 2 symbols"):
            weights(tiny)


def test_score_report_keys():
    import json

    urn = hatted_urn(26)
    score = odds_of_fit(urn, figure=parse_figure("XXO"), prior_log_odds=0.2)
    doc = json.loads(score_to_json(score))
    for key in ("log_odds", "posterior", "evidence", "prior_log_odds"):
        assert key in doc
