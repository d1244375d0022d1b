import json
import math
import sys
import threading
import tracemalloc
from contextlib import ExitStack
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repfit.rng
from repfit import simlab
from repfit.errors import ModelError, ValidationError
from repfit.figures import figure_from_comparison
from repfit.rng import _in_threads
from repfit.scoring import odds_of_fit
from repfit.simlab import (
    ExperimentConfig,
    LanguageModel,
    calibration_experiment,
    run_length_table,
)

from oracles import (
    bins_oracle,
    cipher_coincidences,
    generate_traffic,
    markov_sample_oracle,
    report_text_oracle,
    run_evidence_oracle,
    scan_run_spectrum,
    traffic_oracle,
)

SKEWED4 = LanguageModel(alphabet_size=4, letter_probs=np.array([0.55, 0.25, 0.15, 0.05]))
UNIFORM4 = LanguageModel(alphabet_size=4)


def _markov(c):
    transition = np.random.default_rng(2).random((c, c))
    transition /= transition.sum(axis=1, keepdims=True)
    return LanguageModel(alphabet_size=c, kind="markov-1", transition=transition)


def test_language_model_validation():
    with pytest.raises(ValidationError, match="sum to 1"):
        LanguageModel(alphabet_size=3, letter_probs=np.array([0.5, 0.4, 0.2]))
    with pytest.raises(ValidationError, match="transition"):
        LanguageModel(alphabet_size=3, kind="markov-1")
    with pytest.raises(ValidationError, match="kind"):
        LanguageModel(alphabet_size=3, kind="bigram-table")
    uniform = LanguageModel(alphabet_size=4)
    assert np.allclose(uniform.letter_probs, 0.25)


def test_alphabet_above_256_symbols_is_rejected():
    # Traffic letters are uint8; a larger alphabet would wrap its codes.
    with pytest.raises(ValidationError, match="language.c"):
        LanguageModel(alphabet_size=300)
    lm = LanguageModel(alphabet_size=256)
    assert lm.sample((5_000,), np.random.default_rng(0)).max() == 255


@st.composite
def _letter_probs(draw):
    c = draw(st.sampled_from([2, 3, 4, 26, 64, 65, 200, 256]))
    # Small integer weights give zeros anywhere, leading and trailing included.
    w = np.array(draw(st.lists(st.integers(0, 4), min_size=c, max_size=c)), dtype=float)
    if not w.any():
        w[draw(st.integers(0, c - 1))] = 1.0
    return w / w.sum()


@given(
    probs=_letter_probs(),
    shape=st.sampled_from([(1,), (7,), (25, 3), (3, 40), (96,)]),
    chunk=st.sampled_from([16, 1 << 20]),
    seed=st.integers(0, 2**32),
)
def test_iid_sample_equals_rng_choice_on_a_twin_generator(probs, shape, chunk, seed):
    lm = LanguageModel(alphabet_size=probs.size, letter_probs=probs)
    rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
    with pytest.MonkeyPatch.context() as patch:
        # A small chunk makes these shapes cross several chunk boundaries.
        patch.setattr(simlab, "_SAMPLE_CHUNK", chunk)
        got = lm.sample(shape, rng)
    expected = twin.choice(probs.size, size=shape, p=lm.letter_probs).astype(np.uint8)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)
    assert rng.random() == twin.random()


class _FixedDraws:
    """Stands in for a generator: start states 0, then the given uniforms in
    order.  Tests that sample from it patch simlab._split with _unsplit."""

    def __init__(self, uniforms):
        self.uniforms = np.asarray(uniforms, dtype=float)
        self.used = 0

    def integers(self, low, high, size):
        return np.zeros(size, dtype=np.int64)

    def random(self, size=None, out=None):
        n = size if out is None else out.size
        draws = self.uniforms[self.used : self.used + n]
        self.used += n
        if out is None:
            return draws.copy()
        out[...] = draws
        return out


def _unsplit(rng, sizes):
    """Stands in for rng._split: every part draws from the one stand-in, in turn."""
    return [rng] * len(sizes)


@pytest.mark.parametrize("c", [4, 256])
def test_iid_sample_ties_and_zero_probabilities_follow_rng_choice(c, monkeypatch):
    # rng.choice returns cdf.searchsorted(u, side="right"): a uniform equal to
    # a cumulative sum goes right, and a zero-probability letter never shows.
    probs = np.zeros(c)
    probs[[0, 1, -1]] = [0.25, 0.25, 0.5]
    lm = LanguageModel(alphabet_size=c, letter_probs=probs)
    u = np.array([0.0, 0.25, 0.25 - 2**-54, 0.5, 0.5 - 2**-54, 0.75, 1.0 - 2**-53])
    monkeypatch.setattr(simlab, "_split", _unsplit)
    got = lm.sample((u.size,), _FixedDraws(u))
    assert got.tolist() == probs.cumsum().searchsorted(u, side="right").tolist()
    assert got.tolist() == [0, 1, 0, c - 1, 1, c - 1, c - 1]


@pytest.mark.parametrize("c", [4, 200])
def test_iid_sample_across_the_real_chunk_boundary(c):
    probs = np.arange(c, dtype=float)
    probs /= probs.sum()
    lm = LanguageModel(alphabet_size=c, letter_probs=probs)
    shape = (3, simlab._SAMPLE_CHUNK // 2 + 5)
    rng, twin = np.random.default_rng(c), np.random.default_rng(c)
    got = lm.sample(shape, rng)
    assert np.array_equal(got, twin.choice(c, size=shape, p=probs).astype(np.uint8))
    assert rng.random() == twin.random()


def test_iid_sampling_frequencies():
    rng = np.random.default_rng(0)
    sample = SKEWED4.sample((200_000,), rng)
    for letter, p in enumerate([0.55, 0.25, 0.15, 0.05]):
        observed = (sample == letter).mean()
        assert abs(observed - p) < 3 * math.sqrt(p * (1 - p) / sample.size)


def test_markov_sampling_tracks_transition_rows():
    t = np.array([[0.9, 0.1], [0.4, 0.6]])
    lm = LanguageModel(alphabet_size=2, kind="markov-1", transition=t)
    rng = np.random.default_rng(1)
    text = lm.sample((100_000,), rng)
    from_zero = text[1:][text[:-1] == 0]
    observed = (from_zero == 0).mean()
    assert abs(observed - 0.9) < 3 * math.sqrt(0.9 * 0.1 / from_zero.size)


@pytest.mark.parametrize("c, shape", [(2, (40,)), (3, (7, 13)), (5, (12, 9))])
def test_markov_sample_matches_the_letter_by_letter_oracle(c, shape):
    transition = np.random.default_rng(c).random((c, c))
    transition[0, -1] = 0.0
    transition /= transition.sum(axis=1, keepdims=True)
    lm = LanguageModel(alphabet_size=c, kind="markov-1", transition=transition)
    rows, cols = (1, shape[0]) if len(shape) == 1 else shape
    got = lm.sample(shape, np.random.default_rng(99))
    expected = markov_sample_oracle(transition, rows, cols, np.random.default_rng(99))
    assert np.array_equal(got, expected.reshape(shape))


@pytest.mark.parametrize("c, shape", [(3, (3, 13)), (5, (12, 9)), (26, (301, 41))],
                         ids=["c3-3x13", "c5-12x9", "c26-301x41"])
@pytest.mark.parametrize("block_rows", [None, 1, 4])
def test_markov_sample_in_row_parts_matches_the_letter_by_letter_oracle(c, shape, block_rows,
                                                                        monkeypatch):
    # On 1, 2 or 4 CPUs the rows are cut into as many parts (3 rows on 4
    # CPUs leave one empty), each a job of its own, stepped at most 1 or 4
    # rows, or a whole chunk's, at a time from a copy of the generator at
    # its first row; the generator ends where the oracle's does.
    lm = _markov(c)
    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    if block_rows is not None:
        monkeypatch.setattr(simlab, "_SAMPLE_CHUNK", 2 * c * block_rows)
    jobs = []

    def spy(fills):
        jobs.append(len(fills))
        return _in_threads(fills)

    monkeypatch.setattr(simlab, "_in_threads", spy)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
        rng, twin = np.random.default_rng(99), np.random.default_rng(99)
        got = lm.sample(shape, rng)
        assert np.array_equal(got, markov_sample_oracle(lm.transition, *shape, twin)), cpus
        assert rng.random() == twin.random()
    assert jobs == [1, 2, 4]


def test_markov_draw_past_a_row_summing_below_one_is_the_last_state(monkeypatch):
    # Each row sums to 1 - 3e-13, inside the validation tolerance, so a
    # uniform can land past the last cumulative sum.
    short = 1.0 - 3e-13
    transition = np.array([[0.5, 0.2, short - 0.7], [0.1, 0.1, short - 0.2], [0.3, 0.3, short - 0.6]])
    lm = LanguageModel(alphabet_size=3, kind="markov-1", transition=transition)
    cum = np.cumsum(transition, axis=1)
    # The last two uniforms tie with a cumulative sum and go right.
    draws = [1.0 - 1e-14, 0.25, 0.65, 0.95, cum[2, 1], cum[2, 0]]
    monkeypatch.setattr(simlab, "_split", _unsplit)
    text = lm.sample((7,), _FixedDraws(draws))
    assert text.tolist() == [0, 2, 0, 1, 2, 2, 1]


def test_traffic_bookkeeping():
    traffic = generate_traffic(UNIFORM4, n_pairs=10_000, msg_len=20, overlap=20,
                               fraction_right=0.5, seed=4)
    assert traffic.cipher_a.shape == traffic.cipher_b.shape == (10_000, 20)
    assert traffic.is_right.sum() == 5_000
    assert traffic.prior_log_odds == pytest.approx(0.0)


@pytest.mark.parametrize("lm", [
    SKEWED4,
    LanguageModel(alphabet_size=200),
    LanguageModel(alphabet_size=256),
    LanguageModel(alphabet_size=3, kind="markov-1",
                  transition=np.array([[0.6, 0.4, 0.0], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]])),
    LanguageModel(alphabet_size=4, kind="markov-1",
                  transition=np.array([[0.6, 0.4, 0.0, 0.0], [0.1, 0.1, 0.7, 0.1],
                                       [0.3, 0.3, 0.2, 0.2], [0.0, 0.0, 0.5, 0.5]])),
    LanguageModel(alphabet_size=241),
], ids=["skewed4", "uniform200", "uniform256", "markov3", "markov4", "uniform241"])
def test_traffic_equals_the_reference_draws(lm, monkeypatch):
    # Ciphertexts are written over the plaintexts, in whole-batch blocks or
    # in blocks of 1 or 7 rows.  On 2 or 4 CPUs the texts fill on threads
    # that interleave between most bytecodes, each iid text in 1 or 2
    # parts, and the pairs are enciphered in 1, 2 or 4 row parts, whose
    # keys start inside blocks of 7 counted outputs; every thread has ended
    # on return.  A's 301 x 57 keys take an odd count of 32-bit draws at
    # c = 2**b, so B's start from the half of a 64-bit output that the
    # generator buffers; at c = 200 and 241 halves are dropped.
    expected = traffic_oracle(lm, 301, 41, 25, 0.4, 2718)[2:]
    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    monkeypatch.setattr(repfit.rng, "_KEY_BLOCK", 7)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 4):
            monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
            for block_rows in (None, 1, 7):
                with pytest.MonkeyPatch.context() as patch:
                    if block_rows is not None:
                        patch.setattr(simlab, "_SAMPLE_CHUNK", block_rows * 41)
                    traffic = generate_traffic(lm, n_pairs=301, msg_len=41, overlap=25,
                                               fraction_right=0.4, seed=2718)
                assert threading.active_count() == threads
                got = (traffic.cipher_a, traffic.cipher_b, traffic.is_right)
                for array, reference in zip(got, expected):
                    assert np.array_equal(array, reference), (cpus, block_rows)
                assert traffic.cipher_a.dtype == traffic.cipher_b.dtype == np.uint8
    finally:
        sys.setswitchinterval(interval)


def _skewed(c):
    raw = np.random.default_rng(c).random(c) + 0.05
    return LanguageModel(alphabet_size=c, letter_probs=raw / raw.sum())


@pytest.mark.parametrize("lm", [
    SKEWED4,
    _skewed(26),
    _skewed(256),
    LanguageModel(alphabet_size=3, kind="markov-1",
                  transition=np.array([[0.6, 0.4, 0.0], [0.1, 0.1, 0.8], [0.3, 0.3, 0.4]])),
    LanguageModel(alphabet_size=241),
], ids=["skewed4", "skewed26", "skewed256", "markov3", "uniform241"])
def test_lab_blocks_equal_the_reference_draws(lm, monkeypatch):
    # The lab reads its pairs from the stream on 1, 2 or 4 row parts, each
    # 1 or 7 rows at a time or in one block, on threads that interleave
    # between most bytecodes, with keys counted in blocks of 7 outputs, so
    # that parts start inside them; laid end to end, the enciphered blocks
    # it scores are the reference traffic, and the stream's labels its
    # labels.
    config = ExperimentConfig(lm, corpus_size=0, n_pairs=301, overlap=25, msg_len=41,
                              fraction_right=0.4, seed=2718, urn="hatted")
    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    monkeypatch.setattr(repfit.rng, "_KEY_BLOCK", 7)
    threads = threading.active_count()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 4):
            monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
            for block_rows in (None, 1, 7):
                calls, blocks = {}, _Blocks()
                with ExitStack() as stack:
                    if block_rows is not None:
                        stack.enter_context(patch.object(simlab, "_SAMPLE_CHUNK", block_rows * 41))
                    stack.enter_context(patch.object(simlab, "_PairStream",
                                                     _spy(calls, "stream", simlab._PairStream)))
                    blocks.install(stack)
                    calibration_experiment(config)
                assert threading.active_count() == threads
                args, _, stream = calls["stream"]
                expected = traffic_oracle(*args)[2:]
                got = [*blocks.whole(blocks.read, 301), stream.is_right]
                for array, reference in zip(got, expected):
                    assert np.array_equal(array, reference), (cpus, block_rows)
                if block_rows == 1:
                    assert len(blocks.read) == 301
    finally:
        sys.setswitchinterval(interval)


def test_parts_without_pairs_read_none(monkeypatch):
    # Cut by cells, 3 pairs of 5 letters make 4 row parts on 4 CPUs, one of
    # them empty (as 1 pair of 3x10^6 letters would on 2 CPUs).
    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    monkeypatch.setattr(simlab, "_cpus", lambda: 4)
    assert (0, 0) in repfit.rng._parts(3, 15, 4)
    traffic = generate_traffic(SKEWED4, n_pairs=3, msg_len=5, overlap=4, fraction_right=0.4,
                               seed=1)
    for array, reference in zip((traffic.cipher_a, traffic.cipher_b, traffic.is_right),
                                traffic_oracle(SKEWED4, 3, 5, 4, 0.4, 1)[2:]):
        assert np.array_equal(array, reference)
    report = calibration_experiment(ExperimentConfig(
        SKEWED4, corpus_size=0, n_pairs=3, overlap=4, msg_len=5, fraction_right=0.4, seed=1,
        urn="hatted"))
    assert report.totals["n_pairs"] == 3


@pytest.mark.parametrize("c", [4, 128, 129, 256])
@pytest.mark.parametrize("block_rows", [1, 7])
def test_traffic_enciphered_in_blocks_equals_the_reference_draws(c, block_rows):
    # _encipher works _SAMPLE_CHUNK cells at a time: here 1 or 7 rows of a
    # message, its sums in uint8 up to c = 128 and in uint16 above.
    lm = LanguageModel(alphabet_size=c)
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(simlab, "_SAMPLE_CHUNK", block_rows * 12)
        traffic = generate_traffic(lm, n_pairs=30, msg_len=12, overlap=9,
                                   fraction_right=0.4, seed=31)
    expected = traffic_oracle(lm, 30, 12, 9, 0.4, 31)[2:]
    got = (traffic.cipher_a, traffic.cipher_b, traffic.is_right)
    for array, reference in zip(got, expected):
        assert np.array_equal(array, reference)


@pytest.mark.parametrize("c", [2, 3, 4, 26, 127, 128, 129, 200, 255, 256])
def test_encipher_is_the_modular_sum_of_every_letter_pair(c):
    # The sum is taken in uint8 up to c = 128 and in uint16 above.
    plain, key = (grid.astype(np.uint8) for grid in np.meshgrid(np.arange(c), np.arange(c)))
    cipher = plain.copy()
    simlab._encipher(cipher, key, c)
    assert cipher.dtype == np.uint8
    assert np.array_equal(cipher, (plain.astype(int) + key) % c)


def test_right_pairs_coincide_exactly_where_plaintexts_do():
    traffic = generate_traffic(SKEWED4, n_pairs=500, msg_len=40, overlap=25,
                               fraction_right=0.4, seed=9)
    plain_a, plain_b, *_ = traffic_oracle(SKEWED4, 500, 40, 25, 0.4, 9)
    cipher = cipher_coincidences(traffic)
    plain = plain_a[:, traffic.shift :] == plain_b[:, : traffic.overlap]
    right = traffic.is_right
    assert np.array_equal(cipher[right], plain[right])
    # And the figure module agrees with the matrix route on a few pairs.
    rows = np.flatnonzero(right)[:5]
    for row in rows:
        figure = figure_from_comparison(
            traffic.cipher_a[row].tolist(), traffic.cipher_b[row].tolist(), traffic.shift
        )
        cells = "".join("X" if hit else "O" for hit in cipher[row])
        assert figure.cells == cells


def test_wrong_pairs_coincide_at_the_hatted_rate():
    traffic = generate_traffic(SKEWED4, n_pairs=80_000, msg_len=25, overlap=25,
                               fraction_right=0.5, seed=12)
    wrong = cipher_coincidences(traffic)[~traffic.is_right]
    n = wrong.size
    observed = wrong.mean()
    assert n >= 1_000_000
    assert abs(observed - 0.25) < 3 * math.sqrt(0.25 * 0.75 / n)


def test_traffic_validation():
    with pytest.raises(ValidationError):
        generate_traffic(UNIFORM4, 100, msg_len=10, overlap=11, fraction_right=0.5, seed=0)
    with pytest.raises(ValidationError):
        generate_traffic(UNIFORM4, 100, msg_len=10, overlap=5, fraction_right=1.0, seed=0)
    with pytest.raises(ValidationError):
        generate_traffic(UNIFORM4, 0, msg_len=10, overlap=5, fraction_right=0.5, seed=0)


def test_run_length_table_matches_scan():
    rng = np.random.default_rng(3)
    matrices = [
        rng.random((200, 30)) < 0.4,
        np.ones((6, 9), dtype=bool),  # a run leaking past a row end shows here
        np.zeros((6, 9), dtype=bool),
        rng.random((50, 1)) < 0.5,
        np.ones((4, 1), dtype=bool),
        np.zeros((4, 0), dtype=bool),
        rng.random((1, 64)) < 0.6,
    ]
    for matrix in matrices:
        rows, lengths = run_length_table(matrix)
        assert rows.dtype == lengths.dtype == np.intp
        assert np.all(np.diff(rows) >= 0)
        for row in range(matrix.shape[0]):
            cells = "".join("X" if hit else "O" for hit in matrix[row])
            expected = scan_run_spectrum(cells)
            observed: dict[int, int] = {}
            for length in lengths[rows == row]:
                observed[int(length)] = observed.get(int(length), 0) + 1
            assert observed == expected


def test_uniform_language_with_hatted_urn_collapses_to_the_prior():
    report = calibration_experiment(ExperimentConfig(
        UNIFORM4, corpus_size=0, n_pairs=5_000, overlap=30,
        fraction_right=0.3, seed=21, urn="hatted",
    ))
    assert len(report.bins) == 1
    bin_ = report.bins[0]
    prior_posterior = 0.3
    assert bin_.mean_posterior == pytest.approx(prior_posterior, abs=1e-12)
    assert abs(bin_.empirical_right_fraction - 0.3) < 3 * bin_.binomial_se + 1e-9
    assert bin_.n_total == 5_000


def test_experiment_is_reproducible_byte_for_byte():
    kwargs = dict(corpus_size=20_000, n_pairs=3_000, overlap=30,
                  fraction_right=0.5, seed=77, r_max=12)
    first = calibration_experiment(ExperimentConfig(SKEWED4, **kwargs))
    second = calibration_experiment(ExperimentConfig(SKEWED4, **kwargs))
    assert first.to_json() == second.to_json()


def test_skewed_experiment_is_roughly_calibrated_and_separates_classes():
    # Full-strength calibration runs in the acceptance suite; this is the
    # same pipeline at a tenth of the size with a loosened gate.
    report = calibration_experiment(ExperimentConfig(
        SKEWED4, corpus_size=40_000, n_pairs=20_000, overlap=50,
        fraction_right=0.5, seed=2025,
    ))
    totals = report.totals
    assert totals["n_pairs"] == 20_000
    assert totals["mean_log_odds_right"] > totals["mean_log_odds_wrong"] + 1.0
    for bin_ in report.bins:
        if bin_.n_total >= 2_000:
            tolerance = max(0.08, 4 * bin_.binomial_se)
            assert abs(bin_.empirical_right_fraction - bin_.mean_posterior) <= tolerance
    assert sum(b.n_total for b in report.bins) == 20_000


def test_markov_language_runs_through_the_pipeline():
    # First-order dependence breaks the renewal idealization; the experiment
    # still runs and must keep the direction of the evidence.  No calibration
    # threshold is asserted for this language kind.
    sticky = np.array([
        [0.7, 0.1, 0.1, 0.1],
        [0.1, 0.7, 0.1, 0.1],
        [0.1, 0.1, 0.7, 0.1],
        [0.25, 0.25, 0.25, 0.25],
    ])
    lm = LanguageModel(alphabet_size=4, kind="markov-1", transition=sticky)
    report = calibration_experiment(ExperimentConfig(
        lm, corpus_size=30_000, n_pairs=10_000, overlap=40,
        fraction_right=0.5, seed=606,
    ))
    assert sum(b.n_total for b in report.bins) == 10_000
    assert report.totals["mean_log_odds_right"] > report.totals["mean_log_odds_wrong"]


def test_markov_config_through_calibration_experiment():
    doc = {
        "language": {
            "c": 2,
            "kind": "markov-1",
            "transition": [[0.8, 0.2], [0.3, 0.7]],
        },
        "corpus_size": 10_000, "n_pairs": 2_000, "overlap": 20,
        "fraction_right": 0.5, "seed": 13,
    }
    report = calibration_experiment(ExperimentConfig.from_dict(doc))
    assert report.config == doc
    assert report.totals["n_pairs"] == 2_000


def test_report_totals_and_csv_shape():
    report = calibration_experiment(ExperimentConfig(
        SKEWED4, corpus_size=10_000, n_pairs=2_000, overlap=20,
        fraction_right=0.25, seed=5,
    ))
    assert report.totals["n_right"] == 500
    rows = report.csv_rows()
    assert rows[0].startswith("lo,hi,n_total")
    assert len(rows) == len(report.bins) + 1
    doc = json.loads(report.to_json())
    assert {"config", "bins", "totals"} <= doc.keys()
    assert (report.to_json(), rows) == report_text_oracle(report)


@pytest.mark.parametrize("bin_width", [1.0, 0.137, 1e-9])
def test_bins_equal_the_unique_inverse_oracle(bin_width):
    # Bin ids spanning at most a bin a pair are looked up in a table, wider
    # spans (1e-9 here) are searched for; both count and sum in pair order.
    config = ExperimentConfig(SKEWED4, corpus_size=2_000, n_pairs=3_000, overlap=20,
                              fraction_right=0.3, seed=5, bin_width=bin_width)
    calls, blocks = {}, _Blocks()
    with ExitStack() as stack:
        stack.enter_context(patch.object(simlab, "_PairStream",
                                         _spy(calls, "stream", simlab._PairStream)))
        blocks.install(stack)
        report = calibration_experiment(config)
    _, log_odds, posterior = blocks.scores(3_000)
    expected = bins_oracle(log_odds, posterior, calls["stream"][2].is_right, bin_width)
    assert [(round(b.lo / bin_width), b.n_total, b.n_right, b.mean_posterior)
            for b in report.bins] == expected
    assert [b.lo for b in report.bins] == [i * bin_width for i, *_ in expected]
    assert (expected[-1][0] - expected[0][0] >= 3_000) == (bin_width == 1e-9)


def test_unscorable_run_without_smoothing_propagates():
    # Tiny corpus, long overlap: traffic will contain runs the corpus never
    # produced; with smoothing disabled the scorer's error surfaces.
    with pytest.raises(ModelError, match="gramme"):
        calibration_experiment(ExperimentConfig(
            SKEWED4, corpus_size=400, n_pairs=4_000, overlap=50,
            fraction_right=0.5, seed=3, r_max=5, smoothing=None,
        ))


def _spy(calls, name, fn):
    def spy(*args, **kwargs):
        calls[name] = (args, kwargs, fn(*args, **kwargs))
        return calls[name][2]
    return spy


class _Blocks:
    """Spies on the lab's blocks: the pairs each _PairStream.blocks step
    yields, and the _combine call that then scores them on the same thread."""

    stream_class = simlab._PairStream

    def __init__(self):
        self.read, self.combined, self.last = [], [], {}

    def install(self, stack):
        real_blocks, real_combine = self.stream_class.blocks, simlab._combine

        def blocks(stream, *args):
            for pairs, a, b in real_blocks(stream, *args):
                self.last[threading.get_ident()] = pairs
                self.read.append((pairs, a.copy(), b.copy()))
                yield pairs, a, b

        def combine(w, prior, run_evidence, overlap):
            result = real_combine(w, prior, run_evidence, overlap)
            self.combined.append((self.last[threading.get_ident()], run_evidence, result))
            return result

        stack.enter_context(patch.object(self.stream_class, "blocks", blocks))
        stack.enter_context(patch.object(simlab, "_combine", combine))

    def whole(self, arrays, n):
        """Per-pair arrays laid out from (pairs, *arrays) blocks, every pair once."""
        arrays = sorted(arrays, key=lambda block: block[0].start)
        bounds = [(pairs.start, pairs.stop) for pairs, *_ in arrays]
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == n
        return [np.concatenate(column) for column in zip(*(blocks for _, *blocks in arrays))]

    def scores(self, n):
        """The lab's per-pair (run evidence, log-odds, posterior)."""
        return self.whole([(pairs, run_evidence, log_odds, posterior)
                           for pairs, run_evidence, (_, log_odds, posterior) in self.combined], n)


@given(
    c=st.sampled_from([2, 4, 26]),
    urn=st.sampled_from(["from-corpus", "hatted"]),
    smoothing=st.sampled_from([None, "auto", 1e-4]),
    overlap=st.integers(1, 60),
    shift=st.integers(0, 5),
    fraction_right=st.floats(0.05, 0.95),
    seed=st.integers(0, 2**32),
)
def test_experiment_log_odds_match_odds_of_fit_row_by_row(
    c, urn, smoothing, overlap, shift, fraction_right, seed
):
    # The experiment sums each row's weights run by run, odds_of_fit sums
    # mu_r * k_r by run length, so the two agree to rounding, not bit for bit.
    raw = np.random.default_rng(seed).random(c) + 0.05
    config = ExperimentConfig(
        LanguageModel(alphabet_size=c, letter_probs=raw / raw.sum()),
        corpus_size=3_000, n_pairs=200, overlap=overlap, fraction_right=fraction_right,
        seed=seed, msg_len=overlap + shift, r_max=6, urn=urn, smoothing=smoothing,
    )
    calls, blocks, raised = {}, _Blocks(), False
    with ExitStack() as stack:
        stack.enter_context(patch.object(simlab, "weights", _spy(calls, "weights", simlab.weights)))
        stack.enter_context(patch.object(simlab, "_PairStream",
                                         _spy(calls, "stream", simlab._PairStream)))
        blocks.install(stack)
        try:
            calibration_experiment(config)
        except ModelError:
            raised = True
    (model,), weight_kwargs, _ = calls["weights"]
    # The lab's stream, drawn whole from its arguments.
    traffic = generate_traffic(*calls["stream"][0])
    scored = []
    for row in range(len(traffic.is_right)):
        figure = figure_from_comparison(traffic.cipher_a[row], traffic.cipher_b[row], traffic.shift)
        try:
            scored.append(odds_of_fit(model, figure=figure, prior_log_odds=traffic.prior_log_odds,
                                      floor=weight_kwargs["floor"]))
        except ModelError:
            assert raised
            return
    assert not raised
    _, log_odds, posterior = blocks.scores(len(scored))
    for row, score in enumerate(scored):
        assert abs(log_odds[row] - score.log_odds) <= 1e-12
        assert abs(posterior[row] - score.posterior) <= 1e-12


@given(
    c=st.sampled_from([2, 4, 26, 256]),
    overlap=st.integers(1, 60),
    shift=st.integers(0, 5),
    smoothing=st.sampled_from([None, "auto", 1e-4]),
    block_rows=st.sampled_from([1, 2, 7, None]),
    seed=st.integers(0, 2**32),
)
def test_blocked_scoring_equals_the_whole_matrix_oracle(
    c, overlap, shift, smoothing, block_rows, seed
):
    # Pairs are drawn and scored in one row part per CPU, 1, 2 or 4 with
    # _MIN_PART patched to one cell, each part _SAMPLE_CHUNK // msg_len rows
    # at a time: here 1, 2 or 7 rows, or the real size, which holds a part
    # in one block.  The longest run scored is the longest of any part, and
    # an unscorable run fails every part that meets one at the shortest.  An
    # i.i.d. corpus is the same in one text as in 50 (see the test below),
    # and one is faster.
    raw = np.random.default_rng(seed).random(c) + 0.05
    config = ExperimentConfig(
        LanguageModel(alphabet_size=c, letter_probs=raw / raw.sum()),
        corpus_size=500, n_pairs=20, overlap=overlap, fraction_right=0.5,
        seed=seed, msg_len=overlap + shift, r_max=6, smoothing=smoothing, n_decodes=1,
    )

    def experiment(chunk, cpus):
        calls, blocks = {}, _Blocks()
        with ExitStack() as stack:
            stack.enter_context(patch.object(simlab, "_SAMPLE_CHUNK", chunk))
            stack.enter_context(patch.object(repfit.rng, "_MIN_PART", 1))
            stack.enter_context(patch.object(simlab, "_cpus", lambda: cpus))
            stack.enter_context(patch.object(simlab, "weights",
                                             _spy(calls, "weights", simlab.weights)))
            stack.enter_context(patch.object(simlab, "_PairStream",
                                             _spy(calls, "stream", simlab._PairStream)))
            blocks.install(stack)
            try:
                return calibration_experiment(config).to_json(), calls, blocks
            except ModelError as exc:
                return str(exc), calls, blocks

    real = simlab._SAMPLE_CHUNK
    whole, _, _ = experiment(real, 1)
    for cpus in (1, 2, 4):
        chunk = real if block_rows is None else block_rows * (overlap + shift)
        blocked, calls, blocks = experiment(chunk, cpus)
        assert blocked == whole, cpus
        w, stream = calls["weights"][2], calls["stream"][2]
        traffic = generate_traffic(*calls["stream"][0])
        try:
            evidence, lengths = run_evidence_oracle(w, cipher_coincidences(traffic))
        except ModelError as exc:
            assert blocked == str(exc)
            continue
        run_evidence, log_odds, posterior = blocks.scores(config.n_pairs)
        _, expected_log_odds, expected_posterior = simlab._combine(
            w, stream.prior_log_odds, evidence, overlap)
        assert (run_evidence == evidence).all()
        assert (log_odds == expected_log_odds).all()
        assert (posterior == expected_posterior).all()
        max_run = int(lengths.max()) if lengths.size else 0
        assert json.loads(blocked)["totals"]["max_run_scored"] == max_run


@pytest.mark.parametrize("c, corpus_size", [(2, 50), (4, 2_000), (26, 2_049), (256, 5_000)])
def test_iid_report_is_the_same_at_any_number_of_corpus_texts(c, corpus_size):
    # The texts of an i.i.d. corpus are consecutive draws of one stream, so
    # one text of corpus_size letters is the corpus of 50 texts.
    raw = np.random.default_rng(c).random(c) + 0.05
    reports = [calibration_experiment(ExperimentConfig(
        LanguageModel(alphabet_size=c, letter_probs=raw / raw.sum()), corpus_size=corpus_size,
        n_pairs=50, overlap=20, fraction_right=0.5, seed=c, r_max=6, n_decodes=n_decodes,
    )).to_json() for n_decodes in (1, 50)]
    assert reports[0] == reports[1]


class _Stop(Exception):
    pass


@pytest.mark.parametrize("c", [2, 4, 26, 256])
@pytest.mark.parametrize("corpus_size", [101, 2_049])
@pytest.mark.parametrize("n_decodes", [1, 7, 50, 3_000])
def test_iid_corpus_is_its_texts_drawn_as_one(c, corpus_size, n_decodes):
    # The lab draws an i.i.d. corpus in one call; its letters, and the
    # stream seed master draws next, are those of n_decodes texts of near-
    # equal length (the last takes the remainder), drawn one after another.
    lm = _skewed(c)
    rng = np.random.default_rng(c + n_decodes)
    texts = max(1, min(n_decodes, corpus_size))
    lengths = [corpus_size // texts] * texts
    lengths[-1] += corpus_size % texts
    expected = np.concatenate([rng.choice(c, size=n, p=lm.letter_probs) for n in lengths])
    expected_seed = int(rng.integers(0, 2**63))

    seen, real_census = {}, simlab.compute_statistics

    def census(corpus, r_max):
        seen["codes"] = corpus.codes.copy()
        return real_census(corpus, r_max)

    def stream(*args):
        seen["seed"] = args[-1]
        raise _Stop

    config = ExperimentConfig(lm, corpus_size=corpus_size, n_pairs=10, overlap=5,
                              fraction_right=0.5, seed=c + n_decodes, n_decodes=n_decodes)
    with patch.object(simlab, "compute_statistics", census), \
            patch.object(simlab, "_PairStream", stream), pytest.raises(_Stop):
        calibration_experiment(config)
    assert np.array_equal(seen["codes"], expected)
    assert seen["seed"] == expected_seed


def test_experiment_peaks_below_seven_bytes_per_cell():
    # The pairs' scores and their binning, under 28 B a pair, and a block of
    # pairs read and scored: about 1.4 B per cell.
    config = ExperimentConfig(SKEWED4, corpus_size=20_000, n_pairs=20_000, overlap=50,
                              fraction_right=0.5, seed=8)
    tracemalloc.start()
    try:
        calibration_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (20_000 * 50) < 7.0


def test_threaded_experiment_peaks_below_seven_bytes_per_cell(monkeypatch):
    # Just past the size where pairs are read in two row parts, each
    # part's block sits beside the other's.
    monkeypatch.setattr(simlab, "_cpus", lambda: 2)
    assert 21_000 * 50 >= repfit.rng._MIN_PART
    config = ExperimentConfig(SKEWED4, corpus_size=20_000, n_pairs=21_000, overlap=50,
                              fraction_right=0.5, seed=8)
    tracemalloc.start()
    try:
        calibration_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (21_000 * 50) < 7.0


@pytest.mark.parametrize("lm, n_pairs, cpus, bound", [
    (SKEWED4, 20_000, 1, 3.5),
    (SKEWED4, 21_000, 2, 3.5),
    (LanguageModel(alphabet_size=26), 21_000, 2, 2.0),
    (LanguageModel(alphabet_size=241), 21_000, 2, 2.0),
], ids=["skewed4-1cpu", "skewed4-2cpus", "uniform26-2cpus", "uniform241-2cpus"])
def test_experiment_reads_every_alphabets_keys_a_block_at_a_time(
        monkeypatch, lm, n_pairs, cpus, bound):
    # The pairs of every alphabet are drawn, enciphered and scored a block
    # at a time, so the peak is the scores and a block a row part: 1.2 to
    # 1.4 B a cell.  No key stream is held whole, not even where c is not a
    # power of two and numpy's draw drops some halves.
    monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
    config = ExperimentConfig(lm, corpus_size=20_000, n_pairs=n_pairs, overlap=50,
                              fraction_right=0.5, seed=8)
    tracemalloc.start()
    try:
        calibration_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / (n_pairs * 50) < bound


@pytest.mark.parametrize("lm", [LanguageModel(alphabet_size=4), LanguageModel(alphabet_size=26),
                                LanguageModel(alphabet_size=241), _markov(4), _markov(26)],
                         ids=["4", "26", "241", "markov4", "markov26"])
@pytest.mark.parametrize("n_pairs, overlap", [(40_000, 1), (20_000, 50)])
def test_traffic_bytes_bound_the_experiment_peak(monkeypatch, lm, n_pairs, overlap):
    # The rule the simulate memory check uses: at one letter a message the
    # scores and their binning, not the letters, set the peak.  A chain's
    # texts are read by block too, from their start states, a byte a pair.
    monkeypatch.setattr(simlab, "_cpus", lambda: 2)
    config = ExperimentConfig(lm, corpus_size=0, n_pairs=n_pairs,
                              overlap=overlap, fraction_right=0.5, seed=8, urn="hatted")
    tracemalloc.start()
    try:
        calibration_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < simlab._traffic_bytes(n_pairs, overlap)


def test_experiment_peak_does_not_grow_with_message_length(monkeypatch):
    # Pairs are drawn, enciphered and scored a block at a time, a chain's
    # as an i.i.d. text's, so ten times the message cells add at most a
    # block a CPU, not the cells.
    cpus = 2
    monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
    for lm in (SKEWED4, _markov(4)):
        peaks = []
        for msg_len in (50, 500):
            config = ExperimentConfig(lm, corpus_size=0, n_pairs=20_000, overlap=msg_len,
                                      fraction_right=0.5, seed=8, urn="hatted")
            tracemalloc.start()
            try:
                calibration_experiment(config)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= cpus << 20, (lm.kind, peaks)


def test_binning_peaks_at_the_scores_and_one_bin_id_array(monkeypatch):
    # The scores and labels, 17 B a pair, and the int64 bin ids, 8 more:
    # the quotient is built a chunk at a time, the posteriors freed before
    # the counts, and no full-size copy is made beside them.
    monkeypatch.setattr(simlab, "_cpus", lambda: 1)
    n_pairs = 200_000
    config = ExperimentConfig(SKEWED4, corpus_size=0, n_pairs=n_pairs, overlap=50,
                              fraction_right=0.5, seed=8, urn="hatted")
    tracemalloc.start()
    try:
        calibration_experiment(config)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / n_pairs <= 28, peak / n_pairs


@pytest.mark.parametrize("lm", [UNIFORM4, _markov(26)], ids=["uniform4", "markov26"])
def test_fill_jobs_hold_one_chunk_of_temporaries_between_them(lm, monkeypatch):
    # However a text is cut, its jobs together hold float64 uniforms and
    # bool hits, or a block of rows' c-wide sums and comparisons, for at
    # most `chunk` uniforms: 9 bytes each and a few per row of a block, not
    # a column of the text or rows x c sums.  Here sample runs its jobs one
    # by one, each traced alone.
    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    chunk = simlab._SAMPLE_CHUNK
    peaks = []

    def one_by_one(jobs):
        for job in jobs:
            tracemalloc.start()
            try:
                job()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()

    monkeypatch.setattr(simlab, "_in_threads", one_by_one)
    for cpus in (1, 2, 4):
        monkeypatch.setattr(simlab, "_cpus", lambda: cpus)
        peaks.clear()
        lm.sample((20_000, 50), np.random.default_rng(3))
        assert len(peaks) == cpus
        assert sum(peaks) <= 12 * chunk + 4_096 * len(peaks), (cpus, peaks)


def test_config_parsing_errors_name_the_field():
    base = {
        "language": {"c": 4, "probs": [0.55, 0.25, 0.15, 0.05]},
        "corpus_size": 1000, "n_pairs": 100, "overlap": 10,
        "fraction_right": 0.5, "seed": 1,
    }
    config = ExperimentConfig.from_dict(base)
    assert config.language.alphabet_size == 4

    missing = {k: v for k, v in base.items() if k != "fraction_right"}
    with pytest.raises(ValidationError, match="fraction_right"):
        ExperimentConfig.from_dict(missing)

    with pytest.raises(ValidationError, match="unknown field 'overlp'"):
        ExperimentConfig.from_dict({**base, "overlp": 3})

    with pytest.raises(ValidationError, match="'urn'"):
        ExperimentConfig.from_dict({**base, "urn": "magic"})

    with pytest.raises(ValidationError, match="language.c"):
        ExperimentConfig.from_dict({**base, "language": {}})

    with pytest.raises(ValidationError, match="seed"):
        calibration_experiment(ExperimentConfig.from_dict({**base, "seed": -4, "urn": "hatted"}))


def test_calibration_experiment_echoes_the_config():
    doc = {
        "language": {"c": 4},
        "corpus_size": 2_000, "n_pairs": 500, "overlap": 15,
        "fraction_right": 0.5, "seed": 2, "urn": "hatted",
    }
    report = calibration_experiment(ExperimentConfig.from_dict(doc))
    assert report.config == doc


def test_empty_label_class_reports_null_statistics():
    # round(20 * 0.01) = 0 right pairs: their mean and spread are undefined.
    doc = {
        "language": {"c": 4},
        "corpus_size": 200, "n_pairs": 20, "overlap": 5,
        "fraction_right": 0.01, "seed": 2, "urn": "hatted",
    }
    report = calibration_experiment(ExperimentConfig.from_dict(doc))
    totals = report.totals
    assert (totals["n_right"], totals["n_wrong"]) == (0, 20)
    assert totals["mean_log_odds_right"] is None and totals["std_log_odds_right"] is None
    assert math.isfinite(totals["mean_log_odds_wrong"])
    assert "NaN" not in report.to_json()
