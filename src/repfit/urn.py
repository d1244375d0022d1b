"""The generative urn model for repetition figures.

An urn holds cards in fixed proportions: a no-repeat card with proportion A
appends ``O`` to the figure under construction, and an r-gramme card with
proportion alpha_r appends r ``X`` cells followed by ``O``.  Cards are drawn
with replacement until the figure reaches the requested overlap exactly; a
draw that jumps past the target scraps the partial figure and the next draw
starts a fresh comparison.

Two reference models matter:

* a corpus urn, whose proportions come straight from the card counts of a
  circular-corpus repeat census, and
* the flat-random urn (alphabet size c), with alpha_r = (c-1)/c^(r+1) and
  a no-repeat share approaching (c-1)/c: the proportions produced by letters
  drawn independently and uniformly, i.e. the wrong-fit null model.

``exact_completion_probability`` is the finite-overlap oracle for the
sampler: a dynamic program over block lengths giving the exact probability
that the drawing process hits a given overlap, whose large-overlap limit is
1 / (1 + sum r * alpha_r).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping

import numpy as np

from .artifacts import INT64, NUMBER, PROPORTIONS, STRING, dump, read_fields, read_object
from .corpus import RepeatStatistics, card_counts
from .errors import ModelError, ValidationError
from .figures import O_CELL, RepetitionFigure, X_CELL
from .rng import _SAMPLE_CHUNK, _fill_categorical, checked_rng

__all__ = [
    "UrnModel",
    "exact_completion_probability",
    "hatted_urn",
    "sample_figures",
    "urn_from_json",
    "urn_from_stats",
    "urn_to_json",
]


def _at_least(x, least: int, whole: bool) -> bool:
    """Whether ``x`` is a number >= ``least``, whole or else finite; False,
    not an error of its own type, for strings, NaN and infinities."""
    try:
        return x >= least and (int(x) == x if whole else math.isfinite(x))
    except (TypeError, ValueError, ArithmeticError):
        return False


@dataclass(frozen=True)
class UrnModel:
    """Card proportions of one urn, paired with an alphabet size.

    ``alpha`` maps run length r (>= 1) to the proportion of r-gramme cards;
    ``no_repeat`` is the proportion of no-repeat cards.  Proportions are
    dimensionless and must account for the whole urn.
    """

    alpha: Mapping[int, float]
    no_repeat: float
    alphabet_size: int

    def __post_init__(self):
        cleaned: dict[int, float] = {}
        for r, a in self.alpha.items():
            if not _at_least(r, 1, whole=True):
                raise ValidationError(f"card run length must be a positive integer, got {r!r}")
            if not _at_least(a, 0, whole=False):
                raise ValidationError(f"card proportion for r={r} must be finite and >= 0, got {a}")
            if a > 0:
                cleaned[int(r)] = float(a)
        if self.no_repeat <= 0:
            raise ValidationError(
                f"no-repeat proportion must be positive, got {self.no_repeat}"
            )
        if self.alphabet_size < 1:
            raise ValidationError(f"alphabet size must be >= 1, got {self.alphabet_size}")
        total = self.no_repeat + sum(cleaned.values())
        if abs(total - 1.0) > 1e-12:
            raise ValidationError(f"card proportions must sum to 1, got {total!r}")
        object.__setattr__(self, "alpha", cleaned)
        object.__setattr__(self, "no_repeat", float(self.no_repeat))

    @property
    def mean_extra_cells(self) -> float:
        """Sum of r * alpha_r: expected X cells per draw."""
        return sum(r * a for r, a in self.alpha.items())

    @cached_property
    def score_weights(self) -> dict:
        """This urn's ``repfit.scoring.ScoreWeights`` by (unit, floor), kept
        by ``repfit.scoring.weights``."""
        return {}


def urn_from_stats(stats: RepeatStatistics) -> UrnModel:
    """Urn proportions from a corpus repeat census.

    Repeat cards of each kind are in the same ratio as the corresponding
    flanked repeat counts; the remainder of the card total is no-repeat.
    """
    no_repeat, repeats = card_counts(stats)
    total = no_repeat + sum(repeats.values())
    if no_repeat == 0:
        raise ModelError("corpus leaves no no-repeat cards; urn would never terminate a run")
    return UrnModel(
        alpha={r: n / total for r, n in repeats.items()},
        no_repeat=no_repeat / total,
        alphabet_size=stats.alphabet_size,
    )


def _default_hatted_r_max(alphabet_size: int) -> int:
    # Deep enough that the truncated tail cannot disturb weights at the
    # 1e-12 level; 25 already suffices for alphabets of ten or more symbols.
    r = 25
    while (r + 1) * alphabet_size ** -(r + 1) > 1e-15:
        r += 1
    return r


def hatted_urn(alphabet_size: int, r_max: int | None = None) -> UrnModel:
    """The flat-random urn: alpha_r = (c-1)/c^(r+1), truncated at r_max or at
    the first r whose proportion underflows to 0.0, as all deeper ones do.

    With the default depth the truncation error is far below double-precision
    round-off for every supported alphabet; the no-repeat share then equals
    (c-1)/c to machine precision.
    """
    c = alphabet_size
    if not 2 <= c < 1 << 63:  # the int64 an urn artifact's "c" holds
        raise ValidationError(f"hatted urn needs an alphabet size in 2..2**63-1, got {c}")
    if r_max is None:
        r_max = _default_hatted_r_max(c)
    if r_max < 1:
        raise ValidationError(f"r_max must be >= 1, got {r_max}")
    alpha = {}
    for r in range(1, r_max + 1):
        a = (c - 1) / c ** (r + 1)
        if not a:
            break
        alpha[r] = a
    return UrnModel(alpha=alpha, no_repeat=1.0 - sum(alpha.values()), alphabet_size=c)


def exact_completion_probability(urn: UrnModel, overlap: int) -> float:
    """Exact probability that the drawing process lands on the overlap.

    f(0) = 1 and f(n) = A*f(n-1) + sum_r alpha_r * f(n-r-1), dropping terms
    with a negative index: every way of composing n cells out of no-repeat
    blocks (one cell) and r-gramme blocks (r+1 cells).
    """
    if overlap < 0:
        raise ValidationError(f"overlap must be >= 0, got {overlap}")
    f = [1.0]
    for n in range(1, overlap + 1):
        p = urn.no_repeat * f[n - 1]
        for r, a in urn.alpha.items():
            if n - r - 1 >= 0:
                p += a * f[n - r - 1]
        f.append(p)
    return f[overlap]


def sample_figures(
    urn: UrnModel,
    overlap: int,
    count: int,
    seed: int | None = None,
    keep_trailing_o: bool = True,
) -> tuple[list[RepetitionFigure], int]:
    """Draw repetition figures of the given overlap from the urn.

    Returns ``count`` completed figures plus the number of comparisons
    scrapped for jumping past the target length.  Completed figures end in O
    by construction; ``keep_trailing_o=False`` crosses that final cell off,
    yielding the genuine figure one cell shorter.  Deterministic for a given
    seed.  The rejection loop terminates with probability one because the
    no-repeat proportion is positive.

    Each comparison is one row of ``overlap`` card draws, each as
    ``rng.choice`` draws it (see rng._fill_categorical), and the rows form
    one stream whatever the chunking: the figures are its first ``count``
    exact rows, and ``scrapped`` counts the overshooting rows before the
    last of them.  Cards are drawn into one reused buffer of the narrowest
    unsigned type that holds a card's index.
    """
    if overlap < 1:
        raise ValidationError(f"overlap must be >= 1, got {overlap}")
    if count < 1:
        raise ValidationError(f"count must be >= 1, got {count}")
    if 8 * overlap * count > np.iinfo(np.intp).max:  # 8 bytes a cell: block ends are int64
        raise ValidationError(f"overlap {overlap} x count {count} cells are too many to address")

    rng = checked_rng(seed)
    lengths = np.array([1] + [r + 1 for r in sorted(urn.alpha)], dtype=np.int64)
    probs = np.array([urn.no_repeat] + [urn.alpha[r] for r in sorted(urn.alpha)])
    probs = probs / probs.sum()

    width = overlap if keep_trailing_o else overlap - 1
    # Every block is at least one cell, so `overlap` draws always settle a
    # session.
    rows = max(1, _SAMPLE_CHUNK // overlap)
    cards = np.empty((rows, overlap), dtype=np.min_scalar_type(lengths.size - 1))
    figures: list[RepetitionFigure] = []
    scrapped = 0
    while len(figures) < count:
        _fill_categorical(cards.reshape(-1), probs, rng, _SAMPLE_CHUNK)
        cum = lengths[cards].cumsum(axis=1)
        exact = np.flatnonzero((cum == overlap).any(axis=1))[: count - len(figures)]
        last_row = int(exact[-1]) if len(figures) + exact.size == count else rows - 1
        scrapped += last_row + 1 - exact.size
        # Each draw contributes its cells and terminates with O, so the O
        # cells sit exactly at the block ends that fall inside the figure;
        # figure i starts at cell i * overlap of the chunk's text.
        ends = cum[exact]
        cells = np.full(ends.size, ord(X_CELL), dtype=np.uint8)
        starts = np.arange(0, ends.size, overlap)
        cells[(ends + (starts - 1)[:, None])[ends <= overlap]] = ord(O_CELL)
        text = cells.tobytes().decode("ascii")
        figures.extend(RepetitionFigure(text[start:start + width]) for start in starts.tolist())
    return figures, scrapped


def urn_to_json(urn: UrnModel, **extra) -> str:
    doc = {
        "c": urn.alphabet_size,
        "alpha": {str(r): urn.alpha[r] for r in sorted(urn.alpha)},
        "A": urn.no_repeat,
    }
    doc.update(extra)
    return dump(doc)


def urn_from_json(text: str | bytes) -> UrnModel:
    doc = read_object(text, "urn artifact")
    read_fields("urn artifact", doc, {"c": INT64, "alpha": PROPORTIONS, "A": NUMBER},
                {"generated_at": STRING})
    alpha = {int(r): a for r, a in doc["alpha"].items()}
    return UrnModel(alpha=alpha, no_repeat=doc["A"], alphabet_size=doc["c"])
