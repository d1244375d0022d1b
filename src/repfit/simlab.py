"""Monte Carlo laboratory for posterior calibration.

Generates synthetic plaintext traffic, enciphers pairs in or out of depth,
scores every comparison's repetition figure, and checks that the predicted
posterior probability of a fit being right matches the labeled ground truth.

The depth model is a shared versus independent uniform key stream under
positionwise modular addition: a "right" pair is enciphered with one key
stream covering both messages at their aligned positions, so ciphertext
coincidences occur exactly where the plaintexts coincide; a "wrong" pair
uses independent streams, making aligned ciphertext letters independent and
uniform regardless of the language.

Each pair is drawn, enciphered and scored once, a block of pairs at a
time: the lab holds its pairs' scores, and whole only what cannot be read
by block (see _PairStream).
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, astuple, dataclass, field, fields
from functools import partial

import numpy as np

from .artifacts import INT64, INTEGER, NUMBER, NUMBER_ARRAY, NUMBER_MATRIX, OBJECT, STRING, dump
from .artifacts import is_int64, is_number, read_fields
from .corpus import build_corpus, compute_statistics
from .errors import ValidationError
from .rng import _SAMPLE_CHUNK, _KeyReader, _advanced, _cpus, _fill_categorical, _in_threads
from .rng import _parts, _split, _split_keys, checked_rng
from .scoring import _combine, weights
from .urn import hatted_urn, urn_from_stats

__all__ = [
    "ExperimentConfig",
    "ExperimentReport",
    "LanguageModel",
    "PosteriorBin",
    "calibration_experiment",
]


@dataclass(frozen=True)
class LanguageModel:
    """Synthetic plaintext source: skewed i.i.d. letters or a first-order chain."""

    alphabet_size: int
    kind: str = "iid-skewed"
    letter_probs: np.ndarray | None = None
    transition: np.ndarray | None = None

    def __post_init__(self):
        c = self.alphabet_size
        if c < 2:
            raise ValidationError(f"language needs an alphabet of at least 2 symbols, got {c}")
        if c > 256:
            raise ValidationError(
                f"language.c must be at most 256, got {c}: traffic letters are stored as uint8"
            )
        if self.kind == "iid-skewed":
            probs = (
                np.full(c, 1.0 / c)
                if self.letter_probs is None
                else np.asarray(self.letter_probs, dtype=float)
            )
            if probs.shape != (c,):
                raise ValidationError(f"letter_probs must have {c} entries")
            if not ((probs >= 0).all() and abs(probs.sum() - 1.0) <= 1e-12):
                raise ValidationError("letter_probs must be non-negative and sum to 1")
            probs.flags.writeable = False
            object.__setattr__(self, "letter_probs", probs)
        elif self.kind == "markov-1":
            if self.transition is None:
                raise ValidationError("markov-1 language requires a transition matrix")
            t = np.asarray(self.transition, dtype=float)
            if t.shape != (c, c):
                raise ValidationError(f"transition matrix must be {c}x{c}")
            if not ((t >= 0).all() and np.abs(t.sum(axis=1) - 1.0).max() <= 1e-12):
                raise ValidationError("transition rows must be non-negative and sum to 1")
            t.flags.writeable = False
            object.__setattr__(self, "transition", t)
        else:
            raise ValidationError(
                f"unknown language kind {self.kind!r}; expected 'iid-skewed' or 'markov-1'"
            )

    def sample(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        """Letter codes of the given shape (rows are independent texts).

        The iid path equals ``rng``'s ``Generator.choice`` draw of ``shape``
        from ``c`` letters at ``letter_probs``, as ``uint8``, and leaves
        ``rng`` in the same state.  ``rng`` must draw from a PCG64 or
        PCG64DXSM bit generator, as default_rng's does.
        """
        out, jobs = self._draw(shape, rng, _cpus(), _SAMPLE_CHUNK)
        _in_threads(jobs)
        return out

    def _draw(self, shape: tuple[int, ...], rng: np.random.Generator,
              cpus: int, chunk: int) -> tuple[np.ndarray, list]:
        """A text of the given shape, and the jobs that fill it.

        The draws whose count depends on the data (markov-1 start states)
        are made on ``rng`` here, and ``rng`` is moved past the text's
        uniforms, which the jobs draw from their own copies of it (see
        rng._split).  The jobs may run in any order, at once, on any thread,
        and together hold temporaries for at most ``chunk`` uniforms.  An
        iid text is cut into one job per part (see rng._parts); a chain is
        one job.
        """
        c = self.alphabet_size
        out = np.empty(shape, dtype=np.uint8)
        if self.kind == "iid-skewed":
            codes = out.reshape(-1)
            parts = _parts(codes.size, codes.size, cpus)
            gens = _split(rng, [hi - lo for lo, hi in parts])
            step = max(1, chunk // len(parts))
            return out, [partial(_fill_categorical, codes[lo:hi], self.letter_probs, gen, step)
                         for (lo, hi), gen in zip(parts, gens)]
        rows, cols = (1, shape[0]) if len(shape) == 1 else shape
        if cols == 0:
            return out, []
        text = out.reshape(rows, cols)
        # The next state is the count of the cumulative sums, bar the last,
        # that are <= u: the first sum > u once the last is set to infinity.
        # So a row summing to just under 1 yields c-1, never 0.
        cum = np.cumsum(self.transition, axis=1)
        cum[:, -1] = np.inf
        text[:, 0] = rng.integers(0, c, size=rows)
        (gen,) = _split(rng, [rows * (cols - 1)])
        return out, [partial(_fill_chain, text, cum, gen, max(1, chunk // c))]


def _fill_chain(text: np.ndarray, cum: np.ndarray, rng: np.random.Generator,
                block: int) -> None:
    """Each row of ``text`` a chain on from its first letter, one column of
    uniforms at a time, drawn and stepped ``block`` rows at a time."""
    rows = len(text)
    u = np.empty((min(rows, block), 1))
    blocks = [(slice(lo, lo + block), u[: min(block, rows - lo)]) for lo in range(0, rows, block)]
    columns = text.T
    for prev, column in zip(columns, columns[1:]):
        for part, draws in blocks:
            rng.random(out=draws[:, 0])
            column[part] = (draws < cum[prev[part]]).argmax(axis=1)


class _PairStream:
    """Labelled message pairs, round(n_pairs * fraction_right) of them in
    depth in shuffled order, enciphered and compared at one shift, to read
    in order from any pair (see blocks).  It holds the labels, the key streams (rng._split_keys: their
    edge keys, a generator at each body's first output, and the body's keys
    counted a block of outputs at a time) and each text's generator at its
    first uniform, or, for a markov-1 text, the text, drawn whole here: its
    start states come from ``rng``, and its chain fills on a thread beside
    the keys and labels.

    The draws are made on default_rng(seed) in this order: text A's and
    text B's uniforms (rng._split), the shared and B-only key streams, then
    the labels.
    """

    def __init__(self, lm: LanguageModel, n_pairs: int, msg_len: int, overlap: int,
                 fraction_right: float, seed: int | None):
        rng = checked_rng(seed)
        self.lm, self.msg_len = lm, msg_len
        self.shift = msg_len - overlap
        self.prior_log_odds = math.log(fraction_right / (1.0 - fraction_right))
        self.texts, jobs = [], []
        for _ in "ab":
            if lm.kind == "iid-skewed":
                self.texts += _split(rng, [n_pairs * msg_len])
            else:
                # Each chain holds half the temporaries of one sampled text.
                text, fill = lm._draw((n_pairs, msg_len), rng, 1, _SAMPLE_CHUNK // 2)
                self.texts.append(text)
                jobs += fill
        # One key stream per pair covering both messages' machine positions; a
        # second, independent stream replaces B's aligned keys for wrong pairs.
        self.widths = (msg_len + self.shift, msg_len)
        self.is_right = np.zeros(n_pairs, dtype=bool)

        def keys_and_labels():
            keys = [_split_keys(rng, n_pairs * width, lm.alphabet_size) for width in self.widths]
            self.is_right[rng.permutation(n_pairs)[: round(n_pairs * fraction_right)]] = True
            return keys

        self.keys, *_ = _in_threads([keys_and_labels, *jobs])

    def parts(self) -> list[tuple[int, int]]:
        """Row parts of at least _MIN_PART message cells, one per CPU at most."""
        n_pairs = len(self.is_right)
        return _parts(n_pairs, n_pairs * self.msg_len, _cpus())

    def blocks(self, lo: int, hi: int):
        """Pairs ``lo`` to ``hi`` in order, enciphered, as (pairs, cipher_a,
        cipher_b) blocks of at most _SAMPLE_CHUNK cells, or one pair, in
        buffers reused from block to block.  An i.i.d. text's letters and
        the keys are drawn as they are read, each from its own copy of the
        generator advanced to the pairs' place."""
        c, msg_len = self.lm.alphabet_size, self.msg_len
        rows = max(1, min(hi - lo, _SAMPLE_CHUNK // msg_len))
        keys = [(_KeyReader(stream, lo * width), np.empty((rows, width), dtype=np.uint8))
                for stream, width in zip(self.keys, self.widths)]
        texts = [text if isinstance(text, np.ndarray)
                 else np.random.Generator(_advanced(text.bit_generator, lo * msg_len))
                 for text in self.texts]
        outs = [np.empty((rows, msg_len), dtype=np.uint8) for _ in "ab"]
        for top in range(lo, hi, rows):
            pairs = slice(top, min(top + rows, hi))
            a, b = [out[: pairs.stop - top] for out in outs]
            for out, text in zip((a, b), texts):
                if isinstance(text, np.ndarray):
                    out[...] = text[pairs]
                else:
                    _fill_categorical(out.reshape(-1), self.lm.letter_probs, text, _SAMPLE_CHUNK)
            key, key_b = [reader.read(block[: len(a)]) for reader, block in keys]
            right = np.flatnonzero(self.is_right[pairs])
            key_b[right] = key[right, self.shift :]
            _encipher(b, key_b, c)
            _encipher(a, key[:, :msg_len], c)
            yield pairs, a, b


# perfbench's simlab.traffic patch still wraps this name, and reads 0: the
# lab builds its _PairStream directly.  The name goes when that patch does.
generate_traffic = _PairStream


def _setup_bytes(n_pairs: int, msg_len: int, chain: bool = False) -> int:
    """The peak bytes of a _PairStream's set-up: 9 bytes a pair for the
    int64 label permutation and the labels, and the two texts of a
    markov-1 language, drawn whole, 2 bytes a message cell."""
    return (9 + (2 * msg_len if chain else 0)) * n_pairs


def _traffic_bytes(n_pairs: int, msg_len: int, chain: bool = False) -> int:
    """The peak bytes, rounded up, of calibration_experiment's traffic of
    ``n_pairs`` messages of ``msg_len`` letters: per pair, the scores and
    their binning, 40 bytes, and a markov-1 language's texts, 2 bytes a
    message cell; per row part (see _PairStream.parts), a block of
    _SAMPLE_CHUNK // msg_len rows, or one, read and scored at 20 bytes a
    cell and 64 a row."""
    rows = min(n_pairs, max(1, _SAMPLE_CHUNK // max(1, msg_len)))
    parts = len(_parts(n_pairs, n_pairs * msg_len, _cpus()))
    return (40 + (2 * msg_len if chain else 0)) * n_pairs + parts * rows * (20 * msg_len + 64)


def _check_traffic(n_pairs: int, msg_len: int, overlap: int, fraction_right: float) -> None:
    """Reject traffic parameters that a _PairStream cannot draw."""
    if not 0 < fraction_right < 1:
        raise ValidationError(f"fraction_right must lie strictly in (0, 1), got {fraction_right}")
    if not 1 <= overlap <= msg_len:
        raise ValidationError(f"overlap must lie in [1, msg_len], got {overlap} of {msg_len}")
    if n_pairs < 1:
        raise ValidationError(f"n_pairs must be >= 1, got {n_pairs}")
    if 2 * n_pairs * (2 * msg_len - overlap) > np.iinfo(np.intp).max:
        raise ValidationError(
            f"n_pairs {n_pairs} x (2 * msg_len {msg_len} - overlap {overlap}) key "
            "positions are too many to address"
        )


def _encipher(plain: np.ndarray, key: np.ndarray, c: int) -> None:
    """(plain + key) mod c written over ``plain``, both uint8 letters < c.

    Their sum s is below 2c, so it fits in uint8 for c <= 128, else in
    uint16, and min(s, s - c) is s mod c because s - c wraps around, past
    s, when s < c.
    """
    s = np.add(plain, key, dtype=np.uint8 if c <= 128 else np.uint16)
    np.minimum(s, s - s.dtype.type(c), out=plain, casting="unsafe")


def run_length_table(coincidences: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """All maximal runs of True cells in a boolean matrix.

    Returns (row indices, run lengths), one entry per maximal run, in
    row-major order; equal, dtypes included, to a per-row scan of the matrix.
    """
    n, width = coincidences.shape
    # Rows laid end to end, each after a False separator and the last before
    # a trailing one, so no run crosses a row and edges alternate rise/fall.
    padded = np.zeros(n * (width + 1) + 1, dtype=bool)
    padded[:-1].reshape(n, width + 1)[:, 1:] = coincidences
    edges = np.flatnonzero(padded[:-1] != padded[1:])
    starts, ends = edges[0::2], edges[1::2]
    return (starts + 1) // (width + 1), ends - starts


@dataclass(frozen=True)
class PosteriorBin:
    """One log-odds interval of scored comparisons."""

    lo: float
    hi: float
    n_total: int
    n_right: int
    mean_posterior: float
    empirical_right_fraction: float
    binomial_se: float


@dataclass(frozen=True)
class ExperimentReport:
    """Binned calibration summary of one experiment."""

    config: dict
    bins: tuple[PosteriorBin, ...]
    totals: dict

    def to_json(self) -> str:
        return dump(asdict(self))

    def csv_rows(self) -> list[str]:
        # Every bin field is a Python int or float, so repr is its CSV text.
        header = ",".join(f.name for f in fields(PosteriorBin))
        return [header] + [",".join(map(repr, astuple(b))) for b in self.bins]


# JSON kind of each config field.  Sizes and counts become numpy dimensions,
# so they must fit in 64 bits; a seed may be any size.
_CONFIG_REQUIRED = {
    "language": OBJECT,
    "corpus_size": INT64,
    "n_pairs": INT64,
    "overlap": INT64,
    "fraction_right": NUMBER,
    "seed": INTEGER,
}
_CONFIG_OPTIONAL = {
    "msg_len": ("a 64-bit integer or null", lambda v: v is None or is_int64(v)),
    "r_max": INT64,
    "n_decodes": INT64,
    "bin_width": NUMBER,
    "urn": ("'from-corpus' or 'hatted'", lambda v: v in ("from-corpus", "hatted")),
    "smoothing": ("'auto', null or a finite number", lambda v: v in ("auto", None) or is_number(v)),
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One calibration experiment, with the only copy of its defaults.

    ``echo`` is the document the config was read from, which the report
    repeats; it is empty for a config built in code.
    """

    language: LanguageModel
    corpus_size: int
    n_pairs: int
    overlap: int
    fraction_right: float
    seed: int
    msg_len: int | None = None
    r_max: int = 16
    n_decodes: int = 50
    bin_width: float = 1.0
    urn: str = "from-corpus"
    smoothing: str | float | None = "auto"
    echo: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Read and type-check a config document; absent optional fields
        take the defaults above."""
        read_fields("experiment config", doc, _CONFIG_REQUIRED, _CONFIG_OPTIONAL)
        lang = doc["language"]
        # Each kind reads only its own parameters; the other's is an unknown field.
        markov = lang.get("kind") == "markov-1"
        data = {"transition": NUMBER_MATRIX} if markov else {"probs": NUMBER_ARRAY}
        read_fields("experiment config", lang, {"c": INT64}, {"kind": STRING, **data},
                    prefix="language.")
        language = LanguageModel(
            alphabet_size=lang["c"],
            kind=lang.get("kind", "iid-skewed"),
            letter_probs=lang.get("probs"),
            transition=lang.get("transition"),
        )
        return cls(**{**doc, "language": language}, echo=dict(doc))


def _corpus_texts(lm: LanguageModel, total: int, n_decodes: int, rng: np.random.Generator):
    """The corpus, as ``n_decodes`` texts of near-equal length.  An i.i.d.
    corpus's texts are consecutive draws of one stream, so it is drawn as
    one; ``n_decodes`` only restarts a markov-1 chain."""
    n_decodes = 1 if lm.kind == "iid-skewed" else max(1, min(n_decodes, total))
    base = total // n_decodes
    lengths = [base] * n_decodes
    lengths[-1] += total - base * n_decodes
    return [lm.sample((length,), rng) for length in lengths]


def calibration_experiment(config: ExperimentConfig) -> ExperimentReport:
    """Fit an urn, score labeled traffic with the true prior, bin by log-odds.

    ``smoothing="auto"`` floors unseen card proportions at half a card of the
    fitted corpus, so rare long runs in traffic remain scorable; None keeps
    the scorer's hard error instead.  Each pair's log-odds follow
    ``repfit.scoring``'s rule, with its runs' weights summed in run order.
    A label class with no pairs has null mean and std in the totals.
    Deterministic for a given seed.
    """
    lm, n_pairs, overlap = config.language, config.n_pairs, config.overlap
    msg_len = overlap if config.msg_len is None else config.msg_len
    _check_traffic(n_pairs, msg_len, overlap, config.fraction_right)
    if not 0 < config.bin_width <= sys.float_info.max:
        raise ValidationError(f"bin_width must be a finite positive number, got {config.bin_width}")
    bin_width = float(config.bin_width)
    if config.n_decodes < 1:
        raise ValidationError(f"n_decodes must be >= 1, got {config.n_decodes}")
    if config.corpus_size < 0:
        raise ValidationError(f"corpus_size must be >= 0, got {config.corpus_size}")
    if config.urn not in ("from-corpus", "hatted"):
        raise ValidationError(f"unknown urn kind {config.urn!r}")
    master = checked_rng(config.seed)
    # The texts are freed once joined, and the joined letters once the urn
    # is fitted and the stream set up, so the traffic sits beside neither.
    corpus = (build_corpus(_corpus_texts(lm, config.corpus_size, config.n_decodes, master),
                           lm.alphabet_size) if config.urn == "from-corpus" else None)
    seed = int(master.integers(0, 2**63))

    def fit():
        if corpus is None:
            return weights(hatted_urn(lm.alphabet_size), log_base="nat",
                           floor=None if config.smoothing == "auto" else config.smoothing)
        stats = compute_statistics(corpus, r_max=config.r_max)
        # Half a card keeps unseen long runs scorable without inventing
        # meaningful evidence mass.
        floor = 0.5 / stats.total_cards if config.smoothing == "auto" else config.smoothing
        return weights(urn_from_stats(stats), log_base="nat", floor=floor)

    # The urn is fitted on this thread, the stream set up on another.
    w, stream = _in_threads([fit, partial(_PairStream, lm, n_pairs, msg_len, overlap,
                                          config.fraction_right, seed)])
    del corpus

    # Each row part reads its pairs a block at a time and scores them as
    # they are drawn, each row's weights summed run by run.  A
    # part's mu_table grows from r = 1 to its longest run so far, so every
    # part that meets an unscorable length fails at the shortest one.
    shift, prior_log_odds = stream.shift, stream.prior_log_odds
    log_odds, posterior = np.empty(n_pairs), np.empty(n_pairs)

    def score(lo, hi):
        mu, mu_table = [0.0], np.zeros(1)
        for pairs, cipher_a, cipher_b in stream.blocks(lo, hi):
            rows, lengths = run_length_table(cipher_a[:, shift:] == cipher_b[:, :overlap])
            if lengths.size and lengths.max() >= len(mu):
                mu += [w.mu_for(r) for r in range(len(mu), int(lengths.max()) + 1)]
                mu_table = np.array(mu)
            run_evidence = np.bincount(rows, mu_table[lengths], len(cipher_a))
            _, log_odds[pairs], posterior[pairs] = _combine(w, prior_log_odds, run_evidence,
                                                            overlap)
        return len(mu) - 1

    max_run = max(_in_threads([partial(score, lo, hi) for lo, hi in stream.parts()]))
    is_right = stream.is_right
    del stream  # its markov-1 texts, if any, go before the binning arrays

    # In Python floats, so that an overflow reads inf without a numpy warning.
    if not float(np.maximum(log_odds.max(), -log_odds.min())) / bin_width < 2.0**63:
        raise ValidationError(
            f"bin_width {config.bin_width} is too small: log-odds / bin_width must be finite "
            "and its floor must fit in int64"
        )
    # The floored quotients, built a chunk at a time beside the int64 ids.
    bin_ids = np.empty(n_pairs, dtype=np.int64)
    quotient = np.empty(min(n_pairs, _SAMPLE_CHUNK))
    for lo in range(0, n_pairs, _SAMPLE_CHUNK):
        q = np.divide(log_odds[lo : lo + _SAMPLE_CHUNK], bin_width, out=quotient[: n_pairs - lo])
        bin_ids[lo : lo + q.size] = np.floor(q, out=q)
    del quotient
    # Each pair's bin counted from the lowest where the ids span at most a
    # bin a pair, else its index among the distinct ids, searched for (~12x
    # slower).  The counts and the posterior sums, in pair order, follow.
    first, last = int(bin_ids.min()), int(bin_ids.max())
    if last - first < n_pairs:
        bin_ids -= first
        unique_ids = None
    else:
        ids = np.sort(bin_ids)  # np.unique would hash them, ~10x slower here
        unique_ids = ids[np.concatenate(([True], ids[1:] != ids[:-1]))]
        del ids
        bin_ids = unique_ids.searchsorted(bin_ids)
    sum_post = np.bincount(bin_ids, weights=posterior)
    del posterior
    n_total = np.bincount(bin_ids)
    n_right = np.bincount(np.compress(is_right, bin_ids), minlength=n_total.size)
    del bin_ids
    held = np.flatnonzero(n_total)
    unique_ids = first + held if unique_ids is None else unique_ids
    n_total, n_right = n_total[held], n_right[held]
    mean_post = sum_post[held] / n_total

    bins = []
    for i, bin_id in enumerate(unique_ids):
        n = int(n_total[i])
        right = int(n_right[i])
        p = float(mean_post[i])
        bins.append(
            PosteriorBin(
                lo=float(bin_id * bin_width),
                hi=float((bin_id + 1) * bin_width),
                n_total=n,
                n_right=right,
                mean_posterior=p,
                empirical_right_fraction=right / n,
                binomial_se=math.sqrt(max(p * (1.0 - p), 0.0) / n),
            )
        )

    right, wrong = np.compress(is_right, log_odds), np.compress(~is_right, log_odds)
    totals = {
        "n_pairs": n_pairs,
        "n_right": right.size,
        "n_wrong": wrong.size,
        "prior_log_odds": prior_log_odds,
        "mean_log_odds_right": float(right.mean()) if right.size else None,
        "mean_log_odds_wrong": float(wrong.mean()) if wrong.size else None,
        "std_log_odds_right": float(right.std()) if right.size else None,
        "std_log_odds_wrong": float(wrong.std()) if wrong.size else None,
        "max_run_scored": max_run,
    }
    return ExperimentReport(config=dict(config.echo), bins=tuple(bins), totals=totals)
