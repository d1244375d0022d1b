"""Repeat statistics over a circular plaintext corpus.

The corpus texts are written one after another around a circle of N letters.
Comparing the circle against every distinct rotation of itself realizes all
unordered position pairs exactly once, for a total overlap of N(N-1)/2
aligned positions.  Two kinds of repeat counts are derived:

* apparent counts M_r: the number of unordered pairs of equal circular
  r-grammes, regardless of whether the match extends further.  A single
  (r+2)-gramme repeat, for example, contains three apparent r-gramme repeats.
* actual counts N_r: the number of flanked r-gramme repeat pairs, i.e. pairs
  whose match is exactly r letters long, with differing letters on both
  sides.  They follow from the apparent counts via
  N_r = M_r - 2*M_{r+1} + M_{r+2}.

Apparent counts come from one sort of packed gram keys.  At bits =
max(1, ceil(log2 c)) bits a symbol, a uint64 word holds k = 64 // bits
symbols, the first in its top bits, and a circular r_max-gramme takes
ceil(r_max / k) words: word j of the key at position i is the k-gram at
i + j*k.  Unsigned order of the keys is lexicographic order of the grams,
so after the sort every group of grams sharing an r-prefix is contiguous,
for every r <= r_max at once.  The XOR of two adjacent sorted keys is zero
on the bits where they agree, so its first set bit falls in the first
symbol where the grams differ: they share their first r symbols exactly
when the XOR has no set bit before bit 64*(r // k) + bits*(r % k).  Each
M_r is read off that adjacency mask.  The result is exact integer
arithmetic, identical to comparing all N(N-1)/2 rotation pairs directly.

Memory per letter, beyond the codes themselves: one uint64 per key word.
Keys are packed and counted _CHUNK positions at a time, so every other
temporary is chunk-sized and the peak is about 8 bytes per letter for
one-word keys.  A large corpus of one-word keys is censused in parts, one
thread per part (see apparent_counts); the parts share the one key array,
and each thread adds its own chunk-sized temporaries, about 1 MB.  Longer
keys are sorted by a lexsort over 16-bit pieces, in one part: the keys
with their pieces or their permuted copies, and the permutation, take 16
bytes per word and 8 more a letter (40 at two words, 56 at three).
_census_bytes states this rule, which the command line checks before a census.

Card accounting for the urn model: each comparison consumes one card per
flanked run plus one card per remaining no-coincidence cell, so the corpus
supports N(N-1)/2 - sum(r * N_r) cards in total, of which N_r are r-gramme
cards and the rest are no-repeat cards.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Sequence

import numpy as np

from .artifacts import INT64, INT64_ARRAY, STRING, dump, read_fields, read_object
from .errors import ModelError, ValidationError
from .rng import _SAMPLE_CHUNK as _CHUNK, _cpus, _in_threads, _parts

__all__ = [
    "CircularCorpus",
    "RepeatStatistics",
    "actual_counts",
    "apparent_counts",
    "build_corpus",
    "card_counts",
    "compute_statistics",
    "stats_from_json",
    "stats_to_json",
]

_WORD_BITS = 64


def _key_layout(alphabet_size: int, r_max: int) -> tuple[int, int]:
    """Bits per symbol and uint64 words of the r_max-gram keys, whole symbols to a word."""
    bits = max(1, (alphabet_size - 1).bit_length())
    return bits, -(-r_max // (_WORD_BITS // bits))


def _census_bytes(n_letters: int, alphabet_size: int, r_max: int) -> int:
    """Peak bytes of a census beyond the letter codes: 8 a letter for one-word
    keys, 16 * w + 8 for w >= 2 words of 64 // bits symbols (the keys, the
    lexsort's order and the permuted keys), and 2 MB a CPU for the chunk-sized
    temporaries."""
    words = _key_layout(alphabet_size, r_max)[1]
    per_letter = 8 if words <= 1 else 16 * words + 8
    return per_letter * n_letters + (_cpus() << 21)


@dataclass(frozen=True)
class CircularCorpus:
    """Letter codes laid out on a circle, with their alphabet size."""

    codes: np.ndarray
    alphabet_size: int

    def __post_init__(self):
        codes = np.ascontiguousarray(self.codes)
        if codes.ndim != 1:
            raise ValidationError("corpus codes must be one-dimensional")
        if self.alphabet_size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        if codes.size and (codes.min() < 0 or codes.max() >= self.alphabet_size):
            raise ValidationError(f"corpus codes must lie in 0..{self.alphabet_size - 1}")
        codes.flags.writeable = False
        object.__setattr__(self, "codes", codes)

    @property
    def n_letters(self) -> int:
        return int(self.codes.size)


@dataclass(frozen=True)
class RepeatStatistics:
    """Apparent and actual repeat spectra of one corpus circle.

    ``apparent`` holds M_1..M_r_max, so r_max is its length; ``actual``,
    derived from it by actual_counts, holds N_1..N_{r_max-2} (computing N_r
    needs apparent counts two orders higher).  Repeats longer than r_max - 2
    are assumed absent or negligible.  The counts must be those of a census:
    N >= 0, M non-negative and non-increasing with every N_r >= 0, M_1 at
    most the N(N-1)/2 letter pairs, and at least as many cards as flanked
    repeats.  Errors name the artifact fields N and M.
    """

    n_letters: int
    alphabet_size: int
    apparent: tuple[int, ...]
    actual: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.n_letters < 0:
            raise ValidationError(f"letter count N must be >= 0, got {self.n_letters}")
        for r, (m, m_next) in enumerate(zip(self.apparent, self.apparent[1:]), start=1):
            if m < m_next:
                raise ValidationError(
                    f"apparent counts M must be non-increasing, but M_{r}={m} < M_{r + 1}={m_next}"
                )
        if self.apparent and self.apparent[-1] < 0:  # the least, as M is non-increasing
            raise ValidationError(
                f"apparent counts M must be >= 0, but M_{self.r_max}={self.apparent[-1]}"
            )
        if self.apparent and self.apparent[0] > self.total_overlap:  # the greatest M
            raise ValidationError(
                f"apparent counts M must not exceed the N(N-1)/2 = {self.total_overlap} "
                f"letter pairs of the circle, but M_1={self.apparent[0]}"
            )
        actual = tuple(actual_counts(self.apparent)) if self.r_max >= 3 else ()
        object.__setattr__(self, "actual", actual)
        if self.total_cards < sum(actual):
            raise ValidationError(
                "inconsistent statistics: N and M give fewer cards than flanked repeats "
                f"({self.total_cards} < {sum(actual)})"
            )

    @property
    def r_max(self) -> int:
        return len(self.apparent)

    @property
    def total_overlap(self) -> int:
        """Aligned positions summed over all distinct rotation comparisons."""
        return self.n_letters * (self.n_letters - 1) // 2

    @property
    def total_cards(self) -> int:
        return self.total_overlap - sum(r * n for r, n in enumerate(self.actual, start=1))


def build_corpus(texts: Sequence[Sequence[int]], alphabet_size: int) -> CircularCorpus:
    """Concatenate letter-code texts, in order, onto one circle.  Integer
    arrays are checked in their own dtype; other input is read as int64."""
    if not texts:
        raise ValidationError("corpus requires at least one text")
    parts = []
    for index, text in enumerate(texts):
        try:
            arr = np.asarray(text)
            if arr.dtype.kind not in "iu":
                arr = np.asarray(text, dtype=np.int64)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"text {index} is not an integer code sequence: {exc}") from exc
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError(f"text {index} is empty")
        if arr.min() < 0 or arr.max() >= alphabet_size:
            offset = int(np.flatnonzero((arr < 0) | (arr >= alphabet_size))[0])
            raise ValidationError(
                f"text {index} has out-of-alphabet code {int(arr[offset])} at offset {offset}"
            )
        parts.append(arr)
    dtype = np.uint8 if alphabet_size <= 256 else np.int32  # every code checked to fit
    return CircularCorpus(np.concatenate(parts, dtype=dtype, casting="unsafe"), alphabet_size)


def _pack(codes: np.ndarray, bits: int, r_max: int, words: list[np.ndarray],
          lo: int, hi: int) -> None:
    """Write the circular r_max-grams at positions lo..hi-1 into uint64
    ``words`` (see the module docstring) from top-aligned k-grams, k = 64 //
    bits or r_max in one word, built _CHUNK positions at a time by Karp,
    Miller & Rosenberg's doubling: the (a + b)-gram at i is the a-gram at i
    ORed with the b-gram at i + a shifted right by bits * a.  Each bit of k
    below its top doubles a (b = a), and a set one then adds a symbol (b = 1).
    One-word keys take the last step straight into ``words``."""
    n, k, top = codes.size, min(_WORD_BITS // bits, r_max), _WORD_BITS - bits
    span = (len(words) - 1) * k  # positions past a chunk's own whose k-grams its keys hold
    reach = span + k - 1  # symbols a chunk reads past its last position
    buffers = [np.empty(min(_CHUNK, hi - lo) + reach, np.uint64) for _ in range(2 + bool(span))]
    for start in range(lo, hi, _CHUNK):
        stop = min(start + _CHUNK, hi)
        window = codes[start : stop + reach]
        if stop + reach > n:  # the last chunk's grams wrap around the circle, maybe more than once
            window = np.concatenate([window, codes[np.arange(stop + reach - n) % n]])
        out = buffers[2][: stop - start + span] if span else words[0][start:stop]
        grams = np.left_shift(window, top, out=out if k == 1 else buffers[0][: window.size],
                              dtype=np.uint64)
        a, spare = 1, buffers[1]
        for bit in bin(k)[3:]:
            for b in (a, 1) if bit == "1" else (a,):
                length = window.size - a - b + 1
                dst = out if a + b == k else spare[:length]
                if b == a:
                    np.right_shift(grams[a : a + length], bits * a, out=dst)
                else:
                    np.left_shift(window[a : a + length], top - bits * a, out=dst, dtype=np.uint64)
                dst |= grams[:length]
                grams, a, spare = dst, a + b, grams.base  # the buffer just read is free
        for j, word in enumerate(words if span else ()):
            word[start:stop] = out[j * k : j * k + stop - start]


def _cuts(codes: np.ndarray, c: int, parts: list[tuple[int, int]]) -> list[int]:
    """Bounds of about as many parts of the sorted one-word keys as the
    position ``parts``, each cut where the first symbol changes: the count
    of codes <= s, counted _CHUNK at a time, nearest each part's end (the
    lower on a tie), found by a binary search over the symbols s."""
    n = codes.size
    if len(parts) == 1:
        return [0, n]
    end = cache(lambda s: sum(np.count_nonzero(codes[i : i + _CHUNK] <= s)
                              for i in range(0, n, _CHUNK)))
    cuts = set()
    for _, hi in parts[:-1]:
        s = bisect_left(range(c), hi, key=end)  # the first symbol ending at or past hi
        cuts.add(end(s - 1) if s and hi - end(s - 1) <= end(s) - hi else end(s))
    return [0, *sorted(cuts - {0, n}), n]


def _sorted_squares(key: np.ndarray, bits: int, r_max: int) -> list[int]:
    key.sort()
    return _sum_squares([key], bits, r_max)


def apparent_counts(corpus: CircularCorpus, r_max: int) -> list[int]:
    """M_r for r = 1..r_max: unordered pairs of equal circular r-grammes.

    Sorts the packed r_max-gram keys (see the module docstring), then walks
    them _CHUNK adjacencies at a time: for each r, an adjacency whose XOR
    has a set bit among its first r symbols ends a group of equal r-grammes,
    and the size of the group still open at a chunk's end is carried into
    the next.  A group of s grams holds s(s-1)/2 pairs and the sizes sum to
    n, so M_r = (sum s^2 - n) / 2.

    One-word keys are worked in parts, one thread each (see rng._parts):
    from 2 * _MIN_PART letters on, up to the number of CPUs the process may
    use.  Each thread packs its share of the positions.  The keys are then
    cut, by in-place partitions, between the last key of one first symbol
    and the first of the next, near equal sizes; each thread sorts and
    counts its part.  Grams with different first symbols share no prefix,
    so every group lies in one part and the sums of s^2 add up.
    """
    n = corpus.n_letters
    if r_max < 1:
        raise ValidationError(f"r_max must be >= 1, got {r_max}")
    if r_max >= n:
        raise ValidationError(f"r_max must be below the corpus length ({r_max} >= {n})")

    c = corpus.alphabet_size
    bits, n_words = _key_layout(c, r_max)
    symbols = corpus.codes.astype(np.min_scalar_type(c - 1), copy=False)
    words = [np.empty(n, dtype=np.uint64) for _ in range(n_words)]
    parts = _parts(n, n, 1 if len(words) > 1 or c == 1 else _cpus())
    _in_threads([partial(_pack, symbols, bits, r_max, words, lo, hi) for lo, hi in parts])
    if len(words) == 1:
        key, cuts = words[0], _cuts(symbols, c, parts)
        for lo, cut in zip(cuts, cuts[1:-1]):
            key[lo:].partition(cut - lo)
        squares = _in_threads([partial(_sorted_squares, key[lo:hi], bits, r_max)
                               for lo, hi in zip(cuts, cuts[1:])])
    else:
        # lexsort radix-sorts 16-bit keys but merge-sorts wider ones, so it
        # is given the 16-bit pieces of every word, least significant first.
        order = np.lexsort([(word >> shift).astype(np.uint16)
                            for word in reversed(words) for shift in (0, 16, 32, 48)])
        words = [word[order] for word in words]
        del order
        squares = [_sum_squares(words, bits, r_max)]
    return [(sum(part) - n) // 2 for part in zip(*squares)]


def _sum_squares(words: list[np.ndarray], bits: int, r_max: int) -> list[int]:
    """For r = 1..r_max, the sum of s^2 over the groups of the sorted keys
    equal on their first r symbols.  The first group opens at size 1."""
    squares, open_size = [0] * r_max, [1] * r_max  # per r: sum s^2 so far, open group
    n, k = words[0].size, _WORD_BITS // bits
    for start in range(0, n - 1, _CHUNK):
        stop = min(start + _CHUNK, n - 1)
        diffs = [word[start + 1 : stop + 1] ^ word[start:stop] for word in words]
        for r in range(1, r_max + 1):
            end = _WORD_BITS * (r // k) + bits * (r % k)
            closed, open_size[r - 1] = _groups_in_chunk(diffs, end, open_size[r - 1])
            squares[r - 1] += closed
    return [s + size * size for s, size in zip(squares, open_size)]


def _groups_in_chunk(diffs: list[np.ndarray], end: int, open_size: int) -> tuple[int, int]:
    """From the XORs of a chunk's adjacent keys and the size of the group
    open at its first key: the sum of s^2 over the groups of keys equal on
    their first ``end`` bits that close in the chunk, and the open size."""
    last = (end - 1) // _WORD_BITS  # the word holding the prefix's last bit
    breaks = diffs[last] >= 1 << (_WORD_BITS * (last + 1) - end)
    for diff in diffs[:last]:
        breaks |= diff != 0
    at = np.flatnonzero(breaks)
    if not at.size:
        return 0, open_size + breaks.size
    first, final = int(at[0]), int(at[-1])
    sizes = np.subtract(at[1:], at[:-1], out=at[:-1])  # in place: no second array
    return (open_size + first) ** 2 + int(np.inner(sizes, sizes)), breaks.size - final


def actual_counts(apparent: Sequence[int]) -> list[int]:
    """N_r = M_r - 2*M_{r+1} + M_{r+2} for every r with three counts available.

    A negative result means the inputs violate the identity's premises
    (miscounted apparent repeats, or repeats beyond the computed orders
    being mishandled); it is reported, naming M, rather than clamped.
    """
    if len(apparent) < 3:
        raise ValidationError("need apparent counts for at least three consecutive orders")
    out = []
    for r in range(len(apparent) - 2):
        n_r = apparent[r] - 2 * apparent[r + 1] + apparent[r + 2]
        if n_r < 0:
            raise ValidationError(
                f"apparent counts M are inconsistent: they give N_{r + 1} = {n_r} < 0"
            )
        out.append(n_r)
    return out


def compute_statistics(corpus: CircularCorpus, r_max: int = 9) -> RepeatStatistics:
    """Apparent and actual spectra of a corpus in one pass."""
    return RepeatStatistics(corpus.n_letters, corpus.alphabet_size,
                            tuple(apparent_counts(corpus, r_max)))


def card_counts(stats: RepeatStatistics) -> tuple[int, dict[int, int]]:
    """Split the corpus card total into no-repeat cards and per-r repeat cards."""
    total = stats.total_cards
    if total <= 0:
        raise ModelError(
            f"degenerate corpus: card total is {total}; the urn model needs at least one card"
        )
    repeats = {r: n for r, n in enumerate(stats.actual, start=1) if n}
    # RepeatStatistics guarantees at least as many cards as flanked repeats.
    return total - sum(repeats.values()), repeats


def stats_to_json(stats: RepeatStatistics, **extra) -> str:
    """Serialize statistics to the integer-exact JSON artifact."""
    doc = {
        "N": stats.n_letters,
        "c": stats.alphabet_size,
        "r_max": stats.r_max,
        "M": list(stats.apparent),
        "Nr": list(stats.actual),
        "total_cards": stats.total_cards,
    }
    doc.update(extra)
    return dump(doc)


def stats_from_json(text: str | bytes) -> RepeatStatistics:
    doc = read_object(text, "statistics artifact")
    read_fields("statistics artifact", doc,
                {"N": INT64, "c": INT64, "r_max": INT64, "M": INT64_ARRAY, "Nr": INT64_ARRAY},
                {"total_cards": INT64, "generated_at": STRING})
    stats = RepeatStatistics(doc["N"], doc["c"], tuple(doc["M"]))
    for name, rule, value in (
        ("r_max", "r_max must be the length of M", stats.r_max),
        ("Nr", "actual counts Nr must be M_r - 2*M_(r+1) + M_(r+2)", list(stats.actual)),
        ("total_cards", "total_cards must be N(N-1)/2 - sum r*N_r", stats.total_cards),
    ):
        if doc.get(name, value) != value:
            raise ValidationError(f"statistics artifact field {name!r} is {doc[name]}, "
                                  f"but {rule}: {value}")
    return stats
