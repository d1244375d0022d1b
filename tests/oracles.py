"""Independent reference implementations used to pin expected values.

Everything here deliberately takes the slow, direct route: pairwise
comparisons over all rotation positions, exhaustive enumeration of figures,
and hand-rolled scans, plus the earlier implementations of rewritten
package functions, which exactness tests require the package to equal.  None
of it shares code with the package; the normalizer and the figure parser
raise the package's own exception types, and the scoring oracle builds the
package's ``FitScore`` from given weights, so that results can be compared
field by field.  There are two exceptions.  ``run_evidence_oracle``, the
earlier whole-matrix evidence sum, calls the package's ``run_length_table``
(itself checked against ``scan_run_spectrum``).  ``generate_traffic`` reads
the lab's pairs whole from a ``simlab._PairStream`` (itself checked against
``traffic_oracle``).  It also holds helpers that only tests use
(``Alignment``, ``draws_needed``, ``hatted_apparent``,
``wrong_relevance_ratio``, ``acceptance_proportion``, ``repeated_letters``,
``figure_of``, ``Traffic``, ``generate_traffic``, ``cipher_coincidences``,
``figures_from_draws``).
"""

from __future__ import annotations

import itertools
import json
import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from functools import partial
from math import comb, factorial

import numpy as np

from repfit import simlab
from repfit.errors import FigureParseError, NormalizationError, ValidationError
from repfit.figures import O_CELL, RepetitionFigure, X_CELL
from repfit.rng import _in_threads
from repfit.scoring import FitScore
from repfit.simlab import run_length_table


def normalize_oracle(policy, data: bytes) -> np.ndarray:
    """Letter codes of raw corpus bytes under a normalization policy, one byte
    at a time: skip whitespace, fold case toward the alphabet, look the byte
    up, and strip or report (with the raw input byte) whatever is left."""
    codes = {ord(ch): i for i, ch in enumerate(policy.alphabet)}
    fold_to_lower = policy.fold_case and any(ch.islower() for ch in policy.alphabet)
    out = []
    for offset, raw in enumerate(data):
        if raw in b" \t\r\n\v\f":
            continue
        byte = raw
        if policy.fold_case:
            if fold_to_lower and 0x41 <= byte <= 0x5A:
                byte += 0x20
            elif not fold_to_lower and 0x61 <= byte <= 0x7A:
                byte -= 0x20
        code = codes.get(byte)
        if code is None:
            if policy.on_invalid == "error":
                raise NormalizationError(
                    f"byte {bytes([raw])!r} at offset {offset} is not in the alphabet",
                    offset,
                )
            continue
        out.append(code)
    return np.array(out, dtype=np.uint8 if policy.alphabet_size <= 256 else np.int32)


@dataclass(frozen=True)
class Alignment:
    """Relative placement of message B against message A.

    ``shift`` is the signed offset of B's first letter relative to A's;
    position i of A aligns with position i - shift of B.  Serialized form is
    the decimal signed shift.
    """

    shift: int

    def overlap(self, len_a: int, len_b: int) -> int:
        """Number of aligned positions for messages of the given lengths."""
        return max(0, min(len_a, self.shift + len_b) - max(0, self.shift))

    def serialize(self) -> str:
        return str(self.shift)

    @classmethod
    def parse(cls, text: str) -> "Alignment":
        try:
            return cls(int(text, 10))
        except ValueError as exc:
            raise ValidationError(f"invalid alignment shift {text!r}") from exc


def draws_needed(figure) -> int:
    """Number of urn draws that produce this figure: overlap minus repeated
    letters, plus one for the terminating draw of the final run or cell."""
    return figure.length - repeated_letters(figure) + 1


def repeated_letters(fit) -> int:
    """Coinciding positions: the X cells of a figure, or the sum of r * k_r
    of a run spectrum."""
    if isinstance(fit, RepetitionFigure):
        return fit.cells.count(X_CELL)
    return sum(r * k for r, k in fit.items())


def cells_with_terminators(spectrum) -> int:
    """Sum of (r + 1) * k_r: the cells a spectrum's runs occupy once each
    run's terminating no-coincidence cell is charged to it."""
    return sum((r + 1) * k for r, k in spectrum.items())


def figure_of(spectrum, overlap: int) -> RepetitionFigure:
    """A figure of the given overlap with this run spectrum: every run and its
    terminating O, in the spectrum's key order, then O cells up to the
    overlap.  When runs and terminators fill overlap + 1 cells, the final O
    is the one dropped."""
    cells = "".join((X_CELL * r + O_CELL) * k for r, k in spectrum.items())
    if overlap < 0 or len(cells) > overlap + 1:
        raise ValidationError(f"no figure of overlap {overlap} holds {len(cells)} cells "
                              "of runs and terminators")
    return RepetitionFigure((cells + O_CELL * overlap)[:overlap])


def acceptance_proportion(urn) -> float:
    """Large-overlap fraction of drawing sessions that hit the target exactly:
    1 / (1 + sum of r * alpha_r)."""
    return 1.0 / (1.0 + urn.mean_extra_cells)


def hatted_apparent(alphabet_size: int, r: int, n_letters: int) -> float:
    """Expected apparent r-gramme repeat count of a flat-random circle:
    (N(N-1)/2) / c^r."""
    if alphabet_size < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {alphabet_size}")
    if n_letters < 2:
        raise ValidationError(f"need at least 2 letters, got {n_letters}")
    if r < 0:
        raise ValidationError(f"r must be >= 0, got {r}")
    return (n_letters * (n_letters - 1) / 2) * alphabet_size ** float(-r)


def wrong_relevance_ratio(overlap: int, repeated_letters: int, alphabet_size: int) -> float:
    """Probability that a wrong comparison repeats at R given positions and
    nowhere else: (1/c)^R * ((c-1)/c)^(L-R) under independent uniform letters."""
    c = alphabet_size
    if c < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {c}")
    if not 0 <= repeated_letters <= overlap:
        raise ValidationError(
            f"repeated letters must lie in [0, overlap], got {repeated_letters} of {overlap}"
        )
    return (1.0 / c) ** repeated_letters * ((c - 1) / c) ** (overlap - repeated_letters)


def comparison_oracle(a, b, shift: int) -> str:
    """Figure cells of two messages at a shift, one aligned pair at a time."""
    start = max(0, shift)
    stop = min(len(a), shift + len(b))
    return "".join("X" if a[i] == b[i - shift] else "O" for i in range(start, stop))


def parse_oracle(text: str) -> str:
    """Character-by-character figure check, raising the package's error."""
    for position, ch in enumerate(text):
        if ch not in ("X", "O"):
            raise FigureParseError(
                f"invalid figure character {ch!r} at position {position} (expected X or O)",
                position,
            )
    return text


def groupby_spectrum(cells: str) -> dict[int, int]:
    """Maximal X-run counts by grouping equal neighbours, keyed in order of
    first appearance."""
    counts: dict[int, int] = {}
    for cell, group in itertools.groupby(cells):
        if cell == "X":
            r = sum(1 for _ in group)
            counts[r] = counts.get(r, 0) + 1
    return counts


def weights_oracle(urn, log_base: str = "nat"):
    """(mu, nu, correction) of an urn as the scorer computed them on every
    call before it kept natural-log weights per urn."""
    scale = {"nat": 1.0, "db": 10.0 / math.log(10.0)}[log_base]
    c = urn.alphabet_size
    log_ca = math.log(c * urn.no_repeat / (c - 1))
    mu = {
        r: scale * (math.log(a) + (r + 1) * math.log(c) - math.log(c - 1) - (r + 1) * log_ca)
        for r, a in urn.alpha.items()
    }
    correction = math.log(urn.no_repeat * (1.0 + urn.mean_extra_cells))
    return mu, -log_ca * scale, correction * scale


def score_with_weights_oracle(score_weights, spectrum, overlap: int, prior_log_odds: float):
    """FitScore of a fit as the scorer combined prior, evidence and correction
    before ``odds_of_fit`` and ``calibration_experiment`` shared one rule,
    with the logistic evaluated on ``np.exp``."""
    evidence = sum(score_weights.mu_for(r) * k for r, k in spectrum.items())
    evidence -= score_weights.nu * overlap
    log_odds = prior_log_odds + evidence + score_weights.correction
    x = log_odds / {"nat": 1.0, "db": 10.0 / math.log(10.0)}[score_weights.log_base]
    if x >= 0:
        posterior = 1.0 / (1.0 + np.exp(-x))
    else:
        q = np.exp(x)
        posterior = q / (1.0 + q)
    return FitScore(
        prior_log_odds=prior_log_odds,
        evidence=evidence,
        correction=score_weights.correction,
        log_odds=log_odds,
        posterior=float(posterior),
        log_base=score_weights.log_base,
    )


def sample_figures_oracle(urn, overlap: int, count: int, seed: int, keep_trailing_o: bool = True):
    """(cells, scrapped) of the urn sampler, drawn in batches of rows with
    ``rng.choice`` and settled one row and one figure at a time."""
    rng = np.random.default_rng(seed)
    lengths = np.array([1] + [r + 1 for r in sorted(urn.alpha)], dtype=np.int64)
    probs = np.array([urn.no_repeat] + [urn.alpha[r] for r in sorted(urn.alpha)])
    probs = probs / probs.sum()
    figures: list[str] = []
    scrapped = 0
    max_rows = max(1, 30_000_000 // (8 * overlap))
    while len(figures) < count:
        need = count - len(figures)
        rows = min(max(64, need + need // 8 + 16), max_rows)
        block_lengths = lengths[rng.choice(lengths.size, size=(rows, overlap), p=probs)]
        cum = block_lengths.cumsum(axis=1)
        stop = (cum >= overlap).argmax(axis=1)
        exact = cum[np.arange(rows), stop] == overlap
        for row in range(rows):
            if len(figures) == count:
                break
            if exact[row]:
                cells = np.full(overlap, ord("X"), dtype=np.uint8)
                cells[cum[row, : stop[row] + 1] - 1] = ord("O")
                text = cells.tobytes().decode("ascii")
                figures.append(text if keep_trailing_o else text[:-1])
            else:
                scrapped += 1
    return figures, scrapped


def circular_gram(circle, i: int, r: int) -> tuple:
    n = len(circle)
    return tuple(circle[(i + j) % n] for j in range(r))


def apparent_oracle(circle, r_max: int) -> list[int]:
    """M_r by comparing every unordered pair of circle positions directly."""
    n = len(circle)
    out = []
    for r in range(1, r_max + 1):
        grams = [circular_gram(circle, i, r) for i in range(n)]
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if grams[i] == grams[j]:
                    count += 1
        out.append(count)
    return out


def actual_oracle(circle, r_max: int) -> list[int]:
    """N_r by counting flanked pairs: equal r-grams whose neighbours differ on
    both sides."""
    n = len(circle)
    out = []
    for r in range(1, r_max + 1):
        grams = [circular_gram(circle, i, r) for i in range(n)]
        count = 0
        for i in range(n):
            for j in range(i + 1, n):
                if grams[i] != grams[j]:
                    continue
                if circle[(i - 1) % n] == circle[(j - 1) % n]:
                    continue
                if circle[(i + r) % n] == circle[(j + r) % n]:
                    continue
                count += 1
        out.append(count)
    return out


def rotation_figures(circle) -> list[list[bool]]:
    """Circular coincidence figures of all distinct rotation comparisons.

    Rotations s and n-s give the same comparison, so s runs to n//2; the
    exact half-turn (even n) pairs every position twice and is recorded once
    as a half-length circular figure.
    """
    n = len(circle)
    figures = []
    for s in range(1, n // 2 + 1):
        if 2 * s == n:
            cells = [circle[i] == circle[i + s] for i in range(s)]
        else:
            cells = [circle[i] == circle[(i - s) % n] for i in range(n)]
        figures.append(cells)
    return figures


def circular_max_run(cells: list[bool]) -> int | None:
    """Longest circular run of True cells; None if every cell is True."""
    if all(cells):
        return None
    start = cells.index(False)
    rotated = cells[start:] + cells[:start]
    best = run = 0
    for cell in rotated:
        run = run + 1 if cell else 0
        best = max(best, run)
    return best


def scan_run_spectrum(cells: str) -> dict[int, int]:
    """Maximal X-run counts via an explicit index walk (no grouping library)."""
    counts: dict[int, int] = {}
    i = 0
    while i < len(cells):
        if cells[i] == "X":
            j = i
            while j < len(cells) and cells[j] == "X":
                j += 1
            counts[j - i] = counts.get(j - i, 0) + 1
            i = j
        else:
            i += 1
    return counts


def run_evidence_oracle(w, coincidences: np.ndarray):
    """(per-row evidence, run lengths) of a whole coincidence matrix: every
    run's ``w.mu_for`` weight, summed row by row in run order, with
    ``mu_for`` asked for r = 1, 2, ... up to the longest run."""
    rows, lengths = run_length_table(coincidences)
    max_len = int(lengths.max()) if lengths.size else 0
    mu_table = np.array([0.0] + [w.mu_for(r) for r in range(1, max_len + 1)])
    evidence = np.bincount(rows, weights=mu_table[lengths], minlength=len(coincidences))
    return evidence, lengths


def markov_sample_oracle(transition, rows: int, cols: int, rng) -> np.ndarray:
    """First-order chain letter by letter, with the package's draws: a start
    state per row, then one uniform per row per column; the next state is the
    number of the current row's cumulative sums, bar the last, that are <= u."""
    c = len(transition)
    cum = [list(itertools.accumulate(row))[:-1] for row in np.asarray(transition).tolist()]
    out = np.empty((rows, cols), dtype=np.uint8)
    state = rng.integers(0, c, size=rows).tolist()
    out[:, 0] = state
    for j in range(1, cols):
        state = [bisect_right(cum[s], u) for s, u in zip(state, rng.random(rows).tolist())]
        out[:, j] = state
    return out


def traffic_oracle(lm, n_pairs: int, msg_len: int, overlap: int, fraction_right: float, seed: int):
    """(plain_a, plain_b, cipher_a, cipher_b, is_right) drawn in the package's
    order from default_rng(seed): letters by rng.choice (iid) or the chain
    oracle, then the shared and B-only int16 key streams, then the labels;
    enciphered as (plain + key) % c."""
    rng = np.random.default_rng(seed)
    c = lm.alphabet_size
    shift = msg_len - overlap
    if lm.kind == "iid-skewed":
        plain = [rng.choice(c, size=(n_pairs, msg_len), p=lm.letter_probs) for _ in "ab"]
    else:
        plain = [markov_sample_oracle(lm.transition, n_pairs, msg_len, rng) for _ in "ab"]
    key = rng.integers(0, c, size=(n_pairs, msg_len + shift), dtype=np.int16)
    key_b_own = rng.integers(0, c, size=(n_pairs, msg_len), dtype=np.int16)
    is_right = np.zeros(n_pairs, dtype=bool)
    is_right[rng.permutation(n_pairs)[: round(n_pairs * fraction_right)]] = True
    key_b = np.where(is_right[:, None], key[:, shift:], key_b_own)
    cipher_a = (plain[0].astype(int) + key[:, :msg_len]) % c
    cipher_b = (plain[1].astype(int) + key_b) % c
    return plain[0], plain[1], cipher_a, cipher_b, is_right


@dataclass(frozen=True)
class Traffic:
    """A labelled batch of enciphered message pairs compared at one shift."""

    cipher_a: np.ndarray
    cipher_b: np.ndarray
    is_right: np.ndarray
    shift: int
    overlap: int
    prior_log_odds: float


def generate_traffic(lm, n_pairs: int, msg_len: int, overlap: int, fraction_right: float,
                     seed: int | None = None) -> Traffic:
    """The lab's pairs for these arguments, as whole arrays: each row part
    of a simlab._PairStream read on a thread of its own, a block at a time,
    every block copied into place."""
    simlab._check_traffic(n_pairs, msg_len, overlap, fraction_right)
    stream = simlab._PairStream(lm, n_pairs, msg_len, overlap, fraction_right, seed)
    whole = [np.empty((n_pairs, msg_len), dtype=np.uint8) for _ in "ab"]

    def read(lo, hi):
        for pairs, *blocks in stream.blocks(lo, hi):
            for out, block in zip(whole, blocks):
                out[pairs] = block

    _in_threads([partial(read, lo, hi) for lo, hi in stream.parts()])
    return Traffic(*whole, stream.is_right, stream.shift, overlap, stream.prior_log_odds)


def cipher_coincidences(traffic) -> np.ndarray:
    """Boolean figure matrix of the aligned ciphertext region, one row per pair."""
    return traffic.cipher_a[:, traffic.shift :] == traffic.cipher_b[:, : traffic.overlap]


def bins_oracle(log_odds, posterior, is_right, bin_width: float):
    """(bin id, n_total, n_right, mean posterior) of each occupied log-odds
    bin, by np.unique's inverse, posteriors summed in pair order."""
    bin_ids = np.floor(log_odds / bin_width).astype(np.int64)
    unique_ids, inverse = np.unique(bin_ids, return_inverse=True)
    n_total = np.bincount(inverse)
    n_right = np.bincount(inverse, weights=is_right.astype(float))
    mean_post = np.bincount(inverse, weights=posterior) / n_total
    return [(int(i), int(n), int(round(r)), float(p))
            for i, n, r, p in zip(unique_ids, n_total, n_right, mean_post)]


def report_text_oracle(report):
    """(JSON text, CSV rows) of an experiment report, each bin written field
    by field, as the package did before its bin fields were listed once."""
    bins = [{
        "lo": b.lo,
        "hi": b.hi,
        "n_total": b.n_total,
        "n_right": b.n_right,
        "mean_posterior": b.mean_posterior,
        "empirical_right_fraction": b.empirical_right_fraction,
        "binomial_se": b.binomial_se,
    } for b in report.bins]
    doc = {"config": report.config, "bins": bins, "totals": report.totals}
    rows = ["lo,hi,n_total,n_right,mean_posterior,empirical_right_fraction,binomial_se"]
    rows += [f"{b.lo!r},{b.hi!r},{b.n_total},{b.n_right},{b.mean_posterior!r},"
             f"{b.empirical_right_fraction!r},{b.binomial_se!r}" for b in report.bins]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n", rows


def figures_from_draws(draws, overlap: int, count: int, keep_trailing_o: bool = True):
    """Replay an explicit draw sequence through the figure-building procedure.

    Draw 0 is a no-repeat card; draw r >= 1 is an r-gramme card.  Stops once
    ``count`` comparisons complete, leaving later draws unconsumed.  Raises
    if the sequence runs out mid-comparison.  Returns the figures and the
    number of comparisons scrapped for jumping past the overlap.
    """
    if overlap < 1:
        raise ValidationError(f"overlap must be >= 1, got {overlap}")
    source = iter(draws)
    figures: list[RepetitionFigure] = []
    scrapped = 0
    cells: list[str] = []
    while len(figures) < count:
        try:
            r = next(source)
        except StopIteration:
            raise ValidationError(
                f"draw sequence exhausted after {len(figures)} of {count} comparisons"
            ) from None
        if r < 0:
            raise ValidationError(f"invalid draw {r}; use 0 for no-repeat, r for an r-gramme")
        cells.append(X_CELL * r + O_CELL)
        total = sum(len(part) for part in cells)
        if total == overlap:
            text = "".join(cells)
            figures.append(RepetitionFigure(text if keep_trailing_o else text[:-1]))
            cells = []
        elif total > overlap:
            scrapped += 1
            cells = []
    return figures, scrapped


def completing_figures(overlap: int):
    """Every X/O string of the given length that ends in O."""
    if overlap == 0:
        yield ""
        return
    for prefix in itertools.product("XO", repeat=overlap - 1):
        yield "".join(prefix) + "O"


def block_probability(figure: str, alpha: dict[int, float], no_repeat: float) -> float:
    """Probability that a drawing session spells out this exact figure.

    Unique block decomposition: every O terminates one draw; the X-run in
    front of it (possibly empty) names the card drawn.
    """
    p = 1.0
    run = 0
    for cell in figure:
        if cell == "X":
            run += 1
        else:
            p *= no_repeat if run == 0 else alpha.get(run, 0.0)
            run = 0
    if run:
        raise ValueError("completing figures must end in O")
    return p


def spectrum_multiplicity(spectrum: dict[int, int], overlap: int) -> int:
    """Number of ordered figures of the given length with this run spectrum.

    Place the m runs into the L-R+1 slots around the O cells (at most one run
    per slot), then order the runs: C(L-R+1, m) * m! / prod k_r!.
    """
    repeated = sum(r * k for r, k in spectrum.items())
    runs = sum(spectrum.values())
    ways = comb(overlap - repeated + 1, runs) * factorial(runs)
    for k in spectrum.values():
        ways //= factorial(k)
    return ways


def partitions(total: int):
    """All integer partitions of total, as non-increasing part lists."""
    if total == 0:
        yield []
        return

    def rec(remaining, cap):
        if remaining == 0:
            yield []
            return
        for part in range(min(remaining, cap), 0, -1):
            for rest in rec(remaining - part, part):
                yield [part] + rest

    yield from rec(total, total)


def feasible_spectra(overlap: int):
    """Every run spectrum realizable in a figure of the given length."""
    for repeated in range(overlap + 1):
        for parts in partitions(repeated):
            if repeated + len(parts) - 1 <= overlap:
                yield dict(Counter(parts))
