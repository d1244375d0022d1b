"""Repetition figures: X/O coincidence patterns over aligned message pairs.

Placing two messages side by side at some relative shift aligns a number of
letter positions (the overlap).  Writing ``X`` wherever the aligned letters
agree and ``O`` wherever they differ gives the comparison's repetition
figure.  Maximal runs of ``X`` cells are the figure's repeats; a run of
length r is an r-gramme repeat.  Everything downstream (urn models, odds
scoring) consumes a figure only through its overlap and its run spectrum.

Figures are immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyComparisonError, FigureParseError

__all__ = [
    "RepetitionFigure",
    "figure_from_comparison",
    "parse_figure",
    "run_spectrum",
]

X_CELL = "X"
O_CELL = "O"
_BAD_CELL = re.compile("[^XO]")
# Every byte but X to a space: bytes.split() then leaves the X runs of UTF-8
# cells, since no byte of a non-ASCII code point is 0x58.
_X_ONLY = bytes(b if b == ord(X_CELL) else 0x20 for b in range(256))
# Equality bytes (0 or 1) of a numpy bool array to O/X cell bytes.
_CELL_OF_EQUAL = bytes.maketrans(b"\x00\x01", b"OX")


@dataclass(frozen=True, slots=True)
class RepetitionFigure:
    """An X/O pattern over the aligned positions of one comparison.

    ``X`` marks a coincidence (the aligned letters agree), ``O`` the absence
    of one.  Serialized form is the plain cell string.
    """

    cells: str

    @property
    def length(self) -> int:
        """The overlap: number of aligned positions."""
        return len(self.cells)


def parse_figure(text: str) -> RepetitionFigure:
    """Parse a plain X/O string into a figure.

    Rejects any other character, naming the first offending position, exactly
    as a character-by-character scan would.
    """
    if text.count(X_CELL) + text.count(O_CELL) != len(text):
        bad = _BAD_CELL.search(text)
        raise FigureParseError(
            f"invalid figure character {bad.group()!r} at position {bad.start()} "
            "(expected X or O)",
            bad.start(),
        )
    return RepetitionFigure(text)


def run_spectrum(figure: RepetitionFigure) -> dict[int, int]:
    """The figure's run spectrum {r: k_r}, its maximal X-runs counted by
    exact length r (visible length at a figure end), keyed in order of first
    appearance as a left-to-right scan would.  It is valid by construction:
    spectra written by hand are checked by the proportions of repfit.scoring."""
    runs = figure.cells.encode("utf-8", "surrogatepass").translate(_X_ONLY).split()
    counts: dict[int, int] = {}
    for r in map(len, runs):
        counts[r] = counts.get(r, 0) + 1
    return counts


def _letters(message: Sequence) -> np.ndarray:
    # Letters that are not already in an array stay Python objects, so that
    # they compare with Python's ``==``: numpy would read a str as one
    # scalar and coerce a list mixing str and int letters to strings.
    if isinstance(message, np.ndarray):
        return message
    return np.fromiter(message, dtype=object, count=len(message))


def figure_from_comparison(a: Sequence, b: Sequence, shift: int) -> RepetitionFigure:
    """Derive the repetition figure of two messages compared at a shift.

    One cell per aligned index pair (a[i], b[i - shift]), X iff the letters
    are equal, ordered by i ascending.  Messages may be strings, numpy arrays
    or any sliceable letter sequences over the same alphabet; the cells equal
    those of comparing the aligned letters one pair at a time.
    """
    start, stop = max(0, shift), min(len(a), shift + len(b))
    if stop <= start:
        raise EmptyComparisonError(
            f"shift {shift} gives zero overlap for lengths {len(a)} and {len(b)}"
        )
    equal = _letters(a[start:stop]) == _letters(b[start - shift:stop - shift])
    return RepetitionFigure(equal.tobytes().translate(_CELL_OF_EQUAL).decode("ascii"))
