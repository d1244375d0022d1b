import random
import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repfit.rng
from repfit import corpus as corpus_module
from repfit.corpus import (
    CircularCorpus,
    RepeatStatistics,
    actual_counts,
    apparent_counts,
    build_corpus,
    card_counts,
    compute_statistics,
    stats_from_json,
    stats_to_json,
)
from repfit.errors import ValidationError
from repfit.figures import parse_figure

from oracles import (
    actual_oracle,
    apparent_oracle,
    circular_max_run,
    draws_needed,
    rotation_figures,
)


def codes(text: str) -> list[int]:
    return [ord(ch) - ord("A") for ch in text]


def random_circle(rng: random.Random, n: int, c: int) -> list[int]:
    return [rng.randrange(c) for _ in range(n)]


def test_build_concatenates_in_order():
    corpus = build_corpus([codes("ABC"), codes("AB")], 26)
    assert corpus.n_letters == 5
    assert list(corpus.codes) == codes("ABCAB")


def test_build_length_additivity():
    rng = random.Random(1)
    texts = [random_circle(rng, 200, 26) for _ in range(50)]
    assert build_corpus(texts, 26).n_letters == 10_000


def test_build_degenerate_single_letter():
    assert build_corpus([[0]], 1).n_letters == 1


def test_build_rejects_empty_list_and_empty_text():
    with pytest.raises(ValidationError):
        build_corpus([], 26)
    with pytest.raises(ValidationError, match="text 1 is empty"):
        build_corpus([[0, 1], []], 26)


def test_build_rejects_out_of_alphabet_symbol_with_offset():
    with pytest.raises(ValidationError, match="offset 2"):
        build_corpus([[0, 1, 7, 1]], 4)


def test_apparent_counts_abcab():
    corpus = build_corpus([codes("ABCAB")], 26)
    assert apparent_counts(corpus, 3) == [2, 1, 0]


def test_apparent_counts_all_same_letter():
    # One distinct r-gramme occurring 4 times at every order: 4*3/2 pairs.
    corpus = build_corpus([codes("AAAA")], 26)
    assert apparent_counts(corpus, 3) == [6, 6, 6]


def test_heptagramme_repeat_contributes_four_apparent_tetragrammes():
    # Exactly one heptagramme repeat pair, differently flanked, all other
    # letters unique on the circle.
    circle = codes("ABCDEFG") + [7, 8, 9] + codes("ABCDEFG") + [10, 11, 12]
    corpus = build_corpus([circle], 26)
    stats = compute_statistics(corpus, 9)
    assert stats.apparent[3] == 4
    assert stats.apparent[6] == 1 and stats.apparent[7] == 0
    assert stats.actual == (0, 0, 0, 0, 0, 0, 1)


def test_apparent_counts_precondition():
    corpus = build_corpus([codes("ABCAB")], 26)
    with pytest.raises(ValidationError):
        apparent_counts(corpus, 0)
    with pytest.raises(ValidationError):
        apparent_counts(corpus, 5)


def test_actual_counts_examples():
    assert actual_counts([2, 1, 0, 0]) == [0, 1]
    assert actual_counts([0, 0, 0, 0]) == [0, 0]
    assert actual_counts([10, 3, 1, 0, 0]) == [5, 1, 1]


def test_actual_counts_requires_three_orders():
    with pytest.raises(ValidationError):
        actual_counts([2, 1])


def test_actual_counts_rejects_negative():
    # M_2 too large relative to its neighbours: identity premises violated.
    with pytest.raises(ValidationError, match="N_1"):
        actual_counts([1, 3, 0])


@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=7))
def test_actual_counts_inverts_the_summation(n_values):
    # Compose M_r = sum_{j >= r} (j - r + 1) N_j, then recover N exactly.
    r_count = len(n_values)
    apparent = [
        sum((j - r + 1) * n_values[j] for j in range(r, r_count))
        for r in range(r_count)
    ] + [0, 0]
    assert actual_counts(apparent) == n_values


def test_statistics_reject_non_monotonic_apparent():
    with pytest.raises(ValidationError, match="non-increasing"):
        RepeatStatistics(n_letters=10, alphabet_size=4, apparent=(1, 2, 0))


def test_statistics_reject_card_deficit():
    # N(N-1)/2 = 10, and M gives N_2 = 5: the five 2-runs take all ten
    # cells, which leaves 0 cards for 5 flanked repeats.
    with pytest.raises(ValidationError, match="fewer cards"):
        RepeatStatistics(n_letters=5, alphabet_size=4, apparent=(10, 5, 0, 0))


def near_periodic_circle(rng: random.Random, n: int, c: int) -> list[int]:
    """A short block repeated around the circle with one bit of one letter
    flipped: long repeats that end where the grams first differ in a single
    bit, wherever that bit falls in a packed key."""
    block = random_circle(rng, rng.randrange(2, 6), c)
    circle = [block[i % len(block)] for i in range(n)]
    k = rng.randrange(n)
    flipped = circle[k] ^ (1 << rng.randrange(max(1, (c - 1).bit_length())))
    if flipped < c:
        circle[k] = flipped
    return circle


def _oracle_cases(rng: random.Random):
    """(circle, c, r_max) triples: keys of all r_max symbols at the default
    order, orders past the k symbols a key holds (c=26 at r_max 13-14,
    c=200 at r_max 9), the smallest alphabets, and the longest order a
    circle allows.  Past k also: c=70,000 (3 symbols a key), so that
    several steps extend the repeats; c=2 past 64 symbols; circles where no
    k-gram repeats, so that the first step ends the census; and periodic
    circles, where every position repeats at every order."""
    for _ in range(30):
        n = rng.randrange(4, 40)
        c = rng.choice([2, 3, 4, 26])
        yield random_circle(rng, n, c), c, min(9, n - 1)
    for make in (random_circle, near_periodic_circle):
        for _ in range(10):
            n = rng.randrange(15, 40)
            yield make(rng, n, 26), 26, rng.choice([13, 14])
            yield make(rng, n, 200), 200, 9
        for _ in range(10):
            n = rng.randrange(2, 30)
            yield [0] * n, 1, rng.randrange(1, n)
            yield make(rng, n, 2), 2, n - 1
            c = rng.choice([3, 26, 200])
            yield make(rng, n, c), c, n - 1
    for _ in range(4):
        n = rng.randrange(15, 40)
        yield near_periodic_circle(rng, n, 70_000), 70_000, rng.choice([10, 14, n - 1])
        n = rng.randrange(66, 90)
        yield near_periodic_circle(rng, n, 2), 2, rng.randrange(65, n)
        yield random_circle(rng, n, 2), 2, rng.randrange(65, n)
        n = rng.randrange(14, 27)
        yield rng.sample(range(26), n), 26, rng.randrange(13, n)
        yield rng.sample(range(200), n), 200, rng.randrange(9, n)
        block = random_circle(rng, rng.randrange(1, 6), rng.choice([2, 26]))
        circle = block * rng.randrange(30 // len(block), 60 // len(block))
        yield circle, 26, rng.randrange(13, len(circle))


def test_apparent_and_actual_match_oracles_on_random_circles():
    rng = random.Random(0xC0DE)
    for circle, c, r_max in _oracle_cases(rng):
        corpus = build_corpus([circle], c)
        apparent = apparent_counts(corpus, r_max)
        assert apparent == apparent_oracle(circle, r_max)
        if r_max >= 3:
            assert actual_counts(apparent) == actual_oracle(circle, r_max - 2)


def test_counts_are_exact_when_groups_straddle_chunks(monkeypatch):
    # Chunks of a few keys put group ends, and groups that span several
    # chunks, at every chunk boundary: the packer's wrap-around window and
    # the counter's carried group sizes must not lose or double a gram.
    rng = random.Random(0xC0DE)
    cases = [(build_corpus([circle], c), r_max, apparent_oracle(circle, r_max))
             for circle, c, r_max in _oracle_cases(rng)]
    cases += [(build_corpus([circle], c), 6, tallies)
              for circle, c, tallies in _hash_count_cases()]
    for chunk in (1, 2, 3, 7):
        monkeypatch.setattr(corpus_module, "_CHUNK", chunk)
        for corpus, r_max, expected in cases:
            assert apparent_counts(corpus, r_max) == expected, (chunk, corpus.alphabet_size)


@settings(max_examples=40, deadline=None)
@given(
    # (c, r_max): whole symbols to a word take one word more than a bit
    # string at c = 26 for r_max 25, 37 and 38 and at c = 5..8 for r_max 64;
    # c = 70,000 packs 3 symbols of 17 bits a word.
    width=st.sampled_from([(26, 25), (26, 37), (26, 38), (5, 64), (8, 64),
                           (70_000, 3), (70_000, 4), (70_000, 9)]),
    extra=st.integers(1, 25),
    to_the_end=st.booleans(),
    kind=st.sampled_from(["random", "near-periodic", "few symbols"]),
    seed=st.integers(0, 2**32),
)
def test_symbol_aligned_keys_match_the_oracle(width, extra, to_the_end, kind, seed):
    # At the width's r_max or at n - 1, in chunks of a few keys and in
    # parts of one position at least, on two CPUs.
    c, r_max = width
    rng = random.Random(seed)
    n = r_max + extra
    if kind == "random":
        circle = random_circle(rng, n, c)
    elif kind == "near-periodic":
        circle = near_periodic_circle(rng, n, c)
    else:  # a few symbols from across the alphabet, so that grams repeat
        pool = sorted(rng.sample(range(c), rng.randrange(2, 5)))
        circle = [pool[x] for x in random_circle(rng, n, len(pool))]
    r_max = n - 1 if to_the_end else r_max
    corpus = build_corpus([circle], c)
    expected = apparent_oracle(circle, r_max)
    with mock.patch.object(repfit.rng, "_MIN_PART", 1), \
            mock.patch.object(corpus_module, "_cpus", lambda: 2):
        for chunk in (1, 3, 7, corpus_module._CHUNK):
            with mock.patch.object(corpus_module, "_CHUNK", chunk):
                assert apparent_counts(corpus, r_max) == expected, chunk


def _threaded_cases(rng: random.Random):
    """(circle, c) pairs for the threaded census: the one-word oracle cases,
    near-periodic circles, a one-symbol corpus of a larger alphabet (no
    interior cut), and alphabets with fewer symbols than parts."""
    for circle, c, r_max in _oracle_cases(rng):
        if c < 200 and r_max <= 12:
            yield circle, c, r_max
    for _ in range(10):
        n = rng.randrange(6, 40)
        yield near_periodic_circle(rng, n, rng.choice([2, 4, 26])), 26, min(9, n - 1)
        yield [5] * n, 26, min(9, n - 1)
        yield random_circle(rng, n, 2), 2, min(9, n - 1)
        yield [0] * n, 1, min(9, n - 1)


@given(
    codes=st.lists(st.integers(0, 9), min_size=1, max_size=60),
    c=st.integers(10, 12),
    cpus=st.integers(1, 5),
    chunk=st.sampled_from([1, 3, 1 << 16]),
)
def test_cuts_are_the_symbol_ends_nearest_the_part_ends(codes, c, cpus, chunk):
    # The rule's reference: every symbol's end from one bincount, and for
    # each part's end the nearest of them, the first symbol's on a tie.
    codes = np.array(codes, dtype=np.uint8)
    parts = [(len(codes) * p // cpus, len(codes) * (p + 1) // cpus) for p in range(cpus)]
    ends = np.cumsum(np.bincount(codes, minlength=c))
    cuts = {int(ends[np.abs(ends - hi).argmin()]) for _, hi in parts[:-1]}
    expected = [0, *sorted(cuts - {0, len(codes)}), len(codes)] if cpus > 1 else [0, len(codes)]
    with mock.patch.object(corpus_module, "_CHUNK", chunk):
        assert corpus_module._cuts(codes, c, parts) == expected


def _spy_parts(monkeypatch) -> list[int]:
    """Record the size of every part the census sorts and counts."""
    sizes, real = [], corpus_module._sorted_squares
    monkeypatch.setattr(corpus_module, "_sorted_squares",
                        lambda key, *args: sizes.append(key.size) or real(key, *args))
    return sizes


def test_threaded_census_equals_the_oracle_and_one_part(monkeypatch):
    # Parts of 1 or 5 positions at least, on 2, 3 or 4 CPUs, with chunks of
    # a few keys: every cut, pack range and chunk boundary falls somewhere
    # inside a group, and each part must still count its groups alone.
    rng = random.Random(0x7EAD)
    cases = [(build_corpus([circle], c), r_max, apparent_oracle(circle, r_max))
             for circle, c, r_max in _threaded_cases(rng)]
    sizes, split = _spy_parts(monkeypatch), 0
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # threads interleave between most bytecodes
    try:
        for chunk in (1, 3, 7, corpus_module._CHUNK):
            monkeypatch.setattr(corpus_module, "_CHUNK", chunk)
            for min_part in (1, 5):
                monkeypatch.setattr(repfit.rng, "_MIN_PART", min_part)
                for corpus, r_max, expected in cases:
                    symbols = np.unique(corpus.codes).size
                    for cpus in (1, 2, 3, 4):
                        monkeypatch.setattr(corpus_module, "_cpus", lambda: cpus)
                        sizes.clear()
                        got = apparent_counts(corpus, r_max)
                        assert got == expected, (chunk, min_part, cpus, corpus.codes.tolist())
                        assert sum(sizes) == corpus.n_letters
                        most = min(cpus, symbols, max(1, corpus.n_letters // min_part))
                        assert len(sizes) <= most
                        if cpus == 1:
                            one_part = got
                        assert got == one_part
                        split += len(sizes) > 1
    finally:
        sys.setswitchinterval(interval)
    assert split > len(cases)
    # Three of each symbol: cuts at the multiples of 3 nearest 19, 39 and 58.
    monkeypatch.setattr(corpus_module, "_cpus", lambda: 4)
    sizes.clear()
    apparent_counts(build_corpus([list(range(26)) * 3], 26), 9)
    assert sorted(sizes) == [18, 18, 21, 21]


def test_two_part_census_peaks_at_ten_bytes_per_letter(monkeypatch):
    # Two threads each hold their own chunk-sized temporaries beside the
    # one array of keys.  The corpus is the smallest that the census splits
    # in two; two CPUs are forced, so that the test also runs on one.
    n = 2 * repfit.rng._MIN_PART
    corpus = build_corpus([np.random.default_rng(9).integers(0, 26, size=n, dtype=np.uint8)], 26)
    monkeypatch.setattr(corpus_module, "_cpus", lambda: 2)
    sizes = _spy_parts(monkeypatch)
    assert _peak_bytes(apparent_counts, corpus, 9) <= 10 * n
    assert len(sizes) == 2


def test_an_exception_in_a_part_reaches_the_caller(monkeypatch):
    real = corpus_module._sorted_squares

    def second_part_fails(key, bits, r_max):
        if key.min() >> np.uint64(64 - bits):  # grams after the cut start with symbol 1
            raise RuntimeError("part failed")
        return real(key, bits, r_max)

    monkeypatch.setattr(repfit.rng, "_MIN_PART", 1)
    monkeypatch.setattr(corpus_module, "_cpus", lambda: 2)
    monkeypatch.setattr(corpus_module, "_sorted_squares", second_part_fails)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="part failed"):
        apparent_counts(build_corpus([[0] * 50 + [1] * 50], 2), 9)
    assert threading.active_count() == threads


def test_degenerate_periodic_circle_has_zero_actual_counts():
    # Fully periodic material: every rotation that maps the circle onto
    # itself repeats everywhere, so no repeat is ever flanked.
    circle = codes("AAAA")
    assert actual_oracle(circle, 2) == [0, 0]
    corpus = build_corpus([circle], 26)
    assert actual_counts(apparent_counts(corpus, 3)) == [0]


def test_total_draws_conservation_on_small_circles():
    # Summed over all distinct rotation comparisons, draws = cards + one
    # terminating draw per comparison.  Needs statistics that capture every
    # run, so degenerate and near-full-length runs are rerolled.
    rng = random.Random(7)
    checked = 0
    while checked < 40:
        n = rng.randrange(8, 17)
        c = rng.choice([3, 4, 26])
        circle = random_circle(rng, n, c)
        figures = rotation_figures(circle)
        runs = [circular_max_run(cells) for cells in figures]
        if any(r is None for r in runs) or max(runs, default=0) + 3 > n - 1:
            continue
        r_max = max(max(runs, default=0) + 3, 3)
        stats = compute_statistics(build_corpus([circle], c), r_max)
        draws = 0
        for cells in figures:
            overlap = len(cells)
            repeated = sum(cells)
            draws += overlap - repeated + 1
        assert draws == stats.total_cards + len(figures)
        checked += 1


def test_card_counts_abcab():
    stats = compute_statistics(build_corpus([codes("ABCAB")], 26), 4)
    assert stats.total_overlap == 10
    assert stats.total_cards == 8
    no_repeat, repeats = card_counts(stats)
    assert no_repeat == 7
    assert repeats == {2: 1}


def test_card_counts_no_repeats():
    stats = RepeatStatistics(n_letters=100, alphabet_size=26, apparent=(0, 0, 0, 0, 0))
    no_repeat, repeats = card_counts(stats)
    assert no_repeat == 4950
    assert repeats == {}


def test_card_counts_degenerate_zero_total():
    # A card total of zero cannot be represented at all: the statistics
    # type itself rejects it as a card deficit.
    with pytest.raises(ValidationError):
        RepeatStatistics(n_letters=5, alphabet_size=4, apparent=(10, 5, 0, 0))


def test_draws_needed_agrees_with_linear_figures():
    # Linear spot check tying the figure module's convention to the card
    # accounting: one comparison, explicit cells.
    figure = parse_figure("XXOXO")
    assert draws_needed(figure) == 5 - 3 + 1


def test_stats_artifact_round_trip():
    stats = compute_statistics(build_corpus([codes("ABCAB")], 26), 4)
    text = stats_to_json(stats)
    assert stats_from_json(text) == stats


def test_stats_artifact_rejects_inconsistent_totals():
    stats = compute_statistics(build_corpus([codes("ABCAB")], 26), 4)
    doc = stats_to_json(stats).replace('"total_cards": 8', '"total_cards": 9')
    with pytest.raises(ValidationError, match="total_cards"):
        stats_from_json(doc)


def test_stats_artifact_rejects_missing_field():
    with pytest.raises(ValidationError, match="missing field"):
        stats_from_json('{"N": 5}')


def test_corpus_rejects_codes_outside_its_alphabet():
    # The census packs each code into ceil(log2 c) bits, so a code >= c
    # would silently merge with another gram.
    with pytest.raises(ValidationError, match="0..3"):
        CircularCorpus(np.array([0, 1, 4]), 4)
    with pytest.raises(ValidationError, match="0..3"):
        CircularCorpus(np.array([0, -1, 2]), 4)


def test_corpus_codes_are_read_only():
    corpus = build_corpus([codes("ABCAB")], 26)
    with pytest.raises(ValueError):
        corpus.codes[0] = 3


def _hash_count_cases():
    """(circle, c, M_1..M_6) on 2,000-letter circles, M_r by multiset
    counting of the circular r-grams with a dict."""
    rng = random.Random(0xBEEF)
    for c in (3, 26):
        circle = [rng.randrange(c) for _ in range(2_000)]
        doubled = circle + circle[:5]
        tallies = []
        for r in range(1, 7):
            grams = Counter(tuple(doubled[i : i + r]) for i in range(2_000))
            tallies.append(sum(n * (n - 1) // 2 for n in grams.values()))
        yield circle, c, tallies


def test_sorted_counts_match_hash_counts_at_scale():
    # Third route, at a size where the quadratic oracle is already unpleasant.
    for circle, c, tallies in _hash_count_cases():
        assert apparent_counts(build_corpus([circle], c), 6) == tallies


def test_large_corpus_uses_one_sort():
    # Sanity at a size where quadratic counting is already infeasible.
    rng = np.random.default_rng(11)
    corpus = build_corpus([rng.integers(0, 4, size=200_000)], 4)
    m = apparent_counts(corpus, 9)
    assert all(a >= b for a, b in zip(m, m[1:]))
    # Uniform material roughly quarters per order.
    assert 0.2 < m[1] / m[0] < 0.3


def test_census_identities_at_a_million_letters():
    # No oracle: M_1 is fixed by the letter counts alone, the spectrum is
    # non-increasing, and every actual count is non-negative.
    rng = np.random.default_rng(26)
    corpus = build_corpus([rng.integers(0, 26, size=1_000_000)], 26)
    stats = compute_statistics(corpus, 9)
    letter_counts = np.bincount(corpus.codes, minlength=26)
    assert stats.apparent[0] == sum(int(k) * (int(k) - 1) // 2 for k in letter_counts)
    assert all(a >= b for a, b in zip(stats.apparent, stats.apparent[1:]))
    assert all(n >= 0 for n in stats.actual)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def zipf_letters(rng: np.random.Generator, n: int, c: int = 26) -> np.ndarray:
    """n i.i.d. letter codes, code i drawn with weight 1 / (i + 1)."""
    weights = 1.0 / np.arange(1, c + 1)
    return rng.choice(c, size=n, p=weights / weights.sum()).astype(np.uint8)


def zipf_word_letters(rng: np.random.Generator, n: int, n_words: int = 20_000) -> np.ndarray:
    """n letter codes of text whose words are drawn with Zipf weights 1 / rank^1.1
    from a vocabulary of Zipf-letter words of 1 to 12 letters, written
    without separators."""
    lengths = rng.integers(1, 13, size=n_words)
    spelling = zipf_letters(rng, int(lengths.sum()))
    weights = np.arange(1, n_words + 1) ** -1.1
    words = rng.choice(n_words, size=n // 2 + 1, p=weights / weights.sum())  # > n letters
    sizes = lengths[words]
    ends = np.cumsum(sizes)
    index = np.repeat(np.cumsum(lengths)[words] - ends, sizes) + np.arange(int(ends[-1]))
    return spelling[index[:n]]


def test_one_word_census_peaks_at_ten_bytes_per_letter():
    # The sorted keys take 8 bytes per letter; packing and counting only
    # add chunk-sized temporaries.
    n = 1_000_000
    corpus = build_corpus([np.random.default_rng(9).integers(0, 26, size=n, dtype=np.uint8)], 26)
    assert _peak_bytes(apparent_counts, corpus, 9) <= 10 * n


@pytest.mark.parametrize("c, r_max", [(26, 12), (26, 16), (26, 25), (26, 40)])
def test_census_bytes_bound_the_census_peak(c, r_max):
    n = 1_000_000
    corpus = build_corpus([np.random.default_rng(11).integers(0, c, size=n, dtype=np.uint8)], c)
    peak = _peak_bytes(compute_statistics, corpus, r_max)
    assert peak <= corpus_module._census_bytes(n, c, r_max)


@pytest.mark.parametrize("r_max", [14, 16])
@pytest.mark.parametrize("text", [zipf_letters, zipf_word_letters])
def test_census_past_the_key_symbols_peaks_at_25_bytes_per_letter(text, r_max):
    # Past the 12 symbols a key holds at c = 26, the census adds the order
    # of one sort to the keys, and then holds only the grams that repeat.
    n = 1_000_000
    corpus = build_corpus([text(np.random.default_rng(12), n)], 26)
    assert _peak_bytes(apparent_counts, corpus, r_max) <= 25 * n


def test_census_bytes_bound_the_census_of_a_periodic_text():
    # Every position repeats at every order, so every step keeps them all.
    n = 7 * 142_857
    corpus = build_corpus([np.tile(np.arange(7, dtype=np.uint8), n // 7)], 26)
    assert _peak_bytes(apparent_counts, corpus, 40) <= corpus_module._census_bytes(n, 26, 40)


def test_build_corpus_of_byte_texts_peaks_at_two_bytes_per_letter():
    rng = np.random.default_rng(10)
    texts = [rng.integers(0, 26, size=250_000, dtype=np.uint8) for _ in range(4)]
    assert _peak_bytes(build_corpus, texts, 26) <= 2 * 1_000_000


@pytest.mark.parametrize("text, code, offset", [
    (np.array([3, 0, -1, 2], dtype=np.int8), -1, 2),
    (np.array([25, 300, 1], dtype=np.uint16), 300, 1),
])
def test_build_corpus_checks_integer_texts_in_their_own_dtype(text, code, offset):
    with pytest.raises(ValidationError, match=f"text 1 has out-of-alphabet code {code} "
                                              f"at offset {offset}"):
        build_corpus([[0, 1], text], 26)


@pytest.mark.parametrize("c, dtype", [(26, np.uint8), (300, np.int32)])
def test_build_corpus_gives_the_same_codes_for_every_input_type(c, dtype):
    text = [1, 0, 25, 1, 1]
    expected = np.array(text + [1, 0, 1] + text, dtype=dtype)
    for texts in ([text, [True, False, True], text],
                  [np.array(text, dtype=np.int64), np.array([1, 0, 1], dtype=bool),
                   np.array(text, dtype=np.uint16)]):
        codes = build_corpus(texts, c).codes
        assert codes.dtype == dtype
        assert np.array_equal(codes, expected)
    for bad in (["A", "B"], [[0, 1], [2]], [10**30]):
        with pytest.raises(ValidationError, match="text 0 is not an integer code sequence"):
            build_corpus([bad], c)
