"""Seeded input generator for the benchmark, written with numpy alone.

Nothing here calls repfit: a change to one of the program's own samplers must
not change the benchmark's inputs.  The same seed and size always give the
same bytes; ``manifest.json`` records the sha256 of every file written.

Plain language is Zipf-distributed words over an English-like letter table,
rendered with mixed case, punctuation and line breaks, so the corpus needs
normalization (``--strip``) and has the long repeats that word reuse brings.
"""

from __future__ import annotations

import hashlib
import json
import math
import os

import numpy as np

# Relative letter frequencies of English, a..z.
_LETTER_WEIGHTS = np.array([
    8.2, 1.5, 2.8, 4.3, 12.7, 2.2, 2.0, 6.1, 7.0, 0.15, 0.77, 4.0, 2.4,
    6.7, 7.5, 1.9, 0.095, 6.0, 6.3, 9.1, 2.8, 0.98, 2.4, 0.15, 2.0, 0.074,
])
_SEPARATORS = [b" ", b", ", b". ", b"\n", b"; ", b" - ", b"! ", b"? ", b".\n", b": ", b" (", b") "]
_SEPARATOR_WEIGHTS = np.array([70, 8, 6, 5, 2, 1, 1, 1, 3, 1, 1, 1], dtype=float)
_CASE_WEIGHTS = np.array([0.87, 0.12, 0.01])  # lower, Capitalized, UPPER

# Workload sizes.  "tiny" is for the benchmark's own tests.
SIZES = {
    "full": {
        "corpus-pipeline": {"files": 4, "letters_per_file": 1_000_000, "pair_len": 2000,
                            "n_shifts": 5, "r_max": 9},
        "calibration": {"c": 4, "probs": [0.55, 0.25, 0.15, 0.05], "corpus_size": 100_000,
                        "n_pairs": 200_000, "overlap": 50, "fraction_right": 0.5},
        "fit-scoring": {"corpus_letters": 200_000, "r_max": 12, "overlap": 100,
                        "count": 10_000, "pair_len": 1000},
    },
    "tiny": {
        "corpus-pipeline": {"files": 4, "letters_per_file": 5000, "pair_len": 200,
                            "n_shifts": 3, "r_max": 9},
        "calibration": {"c": 4, "probs": [0.55, 0.25, 0.15, 0.05], "corpus_size": 3000,
                        "n_pairs": 2000, "overlap": 20, "fraction_right": 0.5},
        "fit-scoring": {"corpus_letters": 8000, "r_max": 12, "overlap": 40,
                        "count": 200, "pair_len": 60},
    },
}


class WordLanguage:
    """A Zipf vocabulary rendered as text pieces.

    Pieces 0..3V-1 are the V words in lower, Capitalized and UPPER case;
    the rest are separators.  Text is a gather of piece bytes.
    """

    def __init__(self, rng: np.random.Generator, n_words: int = 20_000, zipf_s: float = 1.1):
        ranks = np.arange(1, n_words + 1)
        lengths = np.clip(np.rint(1.0 + 1.1 * np.log(ranks) + rng.normal(0.0, 1.3, n_words)), 1, 18)
        lengths = lengths.astype(np.int64)
        letters = rng.choice(26, size=int(lengths.sum()), p=_LETTER_WEIGHTS / _LETTER_WEIGHTS.sum())
        lower = (letters + ord("a")).astype(np.uint8)
        word_starts = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        capital = lower.copy()
        capital[word_starts] -= 32
        upper = lower - 32
        seps = [np.frombuffer(s, dtype=np.uint8) for s in _SEPARATORS]
        self.buffer = np.concatenate([lower, capital, upper, *seps])
        sep_lengths = np.array([s.size for s in seps], dtype=np.int64)
        self.piece_lengths = np.concatenate([lengths, lengths, lengths, sep_lengths])
        self.piece_starts = np.concatenate(([0], np.cumsum(self.piece_lengths)[:-1]))
        self.n_words = n_words
        weights = ranks.astype(float) ** -zipf_s
        self.word_probs = weights / weights.sum()
        self.mean_word_len = float(self.word_probs @ lengths)

    def text(self, rng: np.random.Generator, n_letters: int) -> bytes:
        """Rendered text holding exactly ``n_letters`` letters, ending in a newline."""
        n_tokens = int(n_letters / self.mean_word_len * 1.1) + 64
        while True:
            words = rng.choice(self.n_words, size=n_tokens, p=self.word_probs)
            case = rng.choice(3, size=n_tokens, p=_CASE_WEIGHTS)
            seps = rng.choice(len(_SEPARATORS), size=n_tokens,
                              p=_SEPARATOR_WEIGHTS / _SEPARATOR_WEIGHTS.sum())
            pieces = np.empty(2 * n_tokens, dtype=np.int64)
            pieces[0::2] = words + case * self.n_words
            pieces[1::2] = 3 * self.n_words + seps
            out = self._gather(pieces)
            letter_rank = np.cumsum(_is_letter(out))
            if letter_rank[-1] >= n_letters:
                cut = int(np.searchsorted(letter_rank, n_letters)) + 1
                return out[:cut].tobytes() + b"\n"
            n_tokens *= 2

    def letter_codes(self, rng: np.random.Generator, n_letters: int) -> np.ndarray:
        """Letters only, as codes 0..25 (A=0)."""
        raw = np.frombuffer(self.text(rng, n_letters), dtype=np.uint8)
        return ((raw[_is_letter(raw)] | 0x20) - ord("a")).astype(np.uint8)

    def _gather(self, pieces: np.ndarray) -> np.ndarray:
        lengths = self.piece_lengths[pieces]
        out_starts = np.cumsum(lengths) - lengths
        index = np.repeat(self.piece_starts[pieces] - out_starts, lengths)
        index += np.arange(index.size)
        return self.buffer[index]


def _is_letter(raw: np.ndarray) -> np.ndarray:
    return ((raw | 0x20) - ord("a")).astype(np.uint8) < 26


def letter_counts(data: bytes) -> np.ndarray:
    """Case-folded counts of a..z in raw text."""
    raw = np.frombuffer(data, dtype=np.uint8)
    return np.bincount((raw[_is_letter(raw)] | 0x20) - ord("a"), minlength=26)


def cipher_text(codes: np.ndarray, width: int = 60) -> bytes:
    """Letter codes as uppercase lines of ``width`` letters."""
    letters = (codes.astype(np.uint8) + ord("A")).tobytes()
    return b"".join(letters[i : i + width] + b"\n" for i in range(0, len(letters), width))


def depth_pair(rng: np.random.Generator, lang: WordLanguage, n: int, shift: int):
    """Two n-letter messages enciphered in depth at ``shift`` (>= 0).

    A uses key positions 0..n-1 and B uses shift..shift+n-1, so A[i] and
    B[i - shift] share key letter i: ciphertext coincides where plaintext does.
    """
    plain = lang.letter_codes(rng, 2 * n)
    key = rng.integers(0, 26, size=n + shift)
    a = (plain[:n] + key[:n]) % 26
    b = (plain[n:] + key[shift : shift + n]) % 26
    return a, b


def _write(directory: str, name: str, data: bytes, digests: dict) -> str:
    path = os.path.join(directory, name)
    with open(path, "wb") as handle:
        handle.write(data)
    digests[name] = hashlib.sha256(data).hexdigest()
    return name


def generate(workload: str, seed: int, directory: str, size: str = "full") -> dict:
    """Write the workload's inputs under ``directory`` and return its manifest.

    The manifest (also written as ``manifest.json``) names each input file,
    the parameters the program is run with, and the values the output checks
    compare against.
    """
    params = SIZES[size][workload]
    rng = np.random.default_rng([seed, sum(map(ord, workload))])
    digests: dict[str, str] = {}
    manifest = {"workload": workload, "seed": seed, "size": size, "params": params}

    if workload == "corpus-pipeline":
        lang = WordLanguage(rng)
        counts = np.zeros(26, dtype=np.int64)
        files = []
        for i in range(params["files"]):
            data = lang.text(rng, params["letters_per_file"])
            counts += letter_counts(data)
            files.append(_write(directory, f"decodes{i + 1}.txt", data, digests))
        n = params["pair_len"]
        true_shift = int(rng.integers(n // 10, n // 4))
        a, b = depth_pair(rng, lang, n, true_shift)
        offsets = rng.choice(np.arange(1, n // 3), size=params["n_shifts"] - 1, replace=False)
        shifts = [true_shift] + [int(true_shift + o * s) for o, s in
                                 zip(offsets, rng.choice([-1, 1], size=offsets.size))]
        n_letters = int(counts.sum())
        manifest.update(
            corpus=files,
            letter_counts=counts.tolist(),
            n_letters=n_letters,
            msg_a=_write(directory, "msg_a.txt", cipher_text(a), digests),
            msg_b=_write(directory, "msg_b.txt", cipher_text(b), digests),
            shifts=shifts,
            true_shift=true_shift,
            prior_log_odds=-math.log(params["n_shifts"]),
            # Half a card of the corpus, the smoothing simlab uses.
            floor=1.0 / (n_letters * (n_letters - 1)),
        )
    elif workload == "calibration":
        config = {
            "language": {"c": params["c"], "probs": params["probs"]},
            "corpus_size": params["corpus_size"],
            "n_pairs": params["n_pairs"],
            "overlap": params["overlap"],
            "fraction_right": params["fraction_right"],
            "seed": int(rng.integers(0, 2**31)),
        }
        text = json.dumps(config, indent=2, sort_keys=True) + "\n"
        manifest.update(config=_write(directory, "experiment.json", text.encode(), digests),
                        n_pairs=params["n_pairs"], fraction_right=params["fraction_right"])
    elif workload == "fit-scoring":
        lang = WordLanguage(rng)
        corpus = _write(directory, "corpus.txt", lang.text(rng, params["corpus_letters"]), digests)
        n = params["pair_len"]
        true_shift = int(rng.integers(n // 10, n // 4))
        a, b = depth_pair(rng, lang, n, true_shift)
        manifest.update(
            corpus=corpus,
            msg_a=_write(directory, "msg_a.txt", cipher_text(a), digests),
            msg_b=_write(directory, "msg_b.txt", cipher_text(b), digests),
            shifts=list(range(-(n - 1), n)),
            true_shift=true_shift,
            prior_log_odds=-math.log(2 * n - 1),
            sample_seed=int(rng.integers(0, 2**31)),
        )
    else:
        raise ValueError(f"unknown workload {workload!r}")

    manifest["sha256"] = digests
    with open(os.path.join(directory, "manifest.json"), "w") as handle:
        json.dump(manifest, handle, indent=2, sort_keys=True)
    return manifest
