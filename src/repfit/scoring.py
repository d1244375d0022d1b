"""Bayesian log-odds scoring of alignment fits from repetition figures.

Given an urn model fitted to plain language and a figure with run spectrum
{k_r} over overlap L, the odds that the underlying alignment is right are

    q = lambda * right_relevant_proportion / wrong_relevant_proportion,

where lambda is the caller's prior odds, the right proportion comes from the
language urn and the wrong proportion from the flat-random urn of the same
alphabet.  In log form this collapses to per-run evidence weights plus a
per-letter length penalty:

    log q = log lambda + sum_r mu_r * k_r - nu * L
            + log[(1 - sum alpha_r) * (1 + sum r * alpha_r)],

    mu_r = log(alpha_r * c^(r+1) / (c-1)) - (r+1) * log(c*A / (c-1)),
    nu   = log((c-1) / (c*A)).

Natural log is the canonical unit; decibans (10 * log10) are offered for
display.  All weights derived from the flat-random urn itself vanish, so
language that is indistinguishable from random carries no evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .artifacts import dump
from .errors import ModelError, ValidationError
from .figures import RepetitionFigure, run_spectrum
from .urn import UrnModel, _at_least

__all__ = [
    "FitScore",
    "ScoreWeights",
    "odds_of_fit",
    "right_relevant_proportion",
    "score_to_json",
    "weights",
    "wrong_relevant_proportion",
]

_LOG_UNIT_SCALE = {"nat": 1.0, "db": 10.0 / math.log(10.0)}


def _unit_scale(log_base: str) -> float:
    try:
        return _LOG_UNIT_SCALE[log_base]
    except KeyError:
        raise ValidationError(
            f"unknown log unit {log_base!r}; expected 'nat' or 'db'"
        ) from None


def _mu(proportion: float, r: int, c: int, log_ca: float, scale: float) -> float:
    """mu_r in the unit of ``scale``, for a card proportion alpha_r and
    log_ca = log(c*A / (c-1))."""
    return scale * (math.log(proportion) + (r + 1) * math.log(c) - math.log(c - 1)
                    - (r + 1) * log_ca)


@dataclass(frozen=True)
class ScoreWeights:
    """Evidence weights of one urn, in a chosen log unit.

    ``mu[r]`` weighs each maximal r-run; ``nu`` penalizes every overlap
    letter; ``correction`` is the constant log[(1 - sum alpha)(1 + sum
    r*alpha)].  Run lengths missing from ``mu`` (no such card in the urn)
    make a fit unscorable unless a smoothing floor is configured, in which
    case the missing proportions are read as ``floor``.
    """

    alphabet_size: int
    log_base: str
    mu: Mapping[int, float]
    nu: float
    correction: float
    floor: float | None = None

    def mu_for(self, r: int) -> float:
        """Weight for a maximal run of length r, applying the floor if set."""
        if r in self.mu:
            return self.mu[r]
        if self.floor is None:
            raise ModelError(
                f"no evidence weight for {r}-gramme repeats: the urn has no such card "
                "and no smoothing floor is configured"
            )
        scale = _unit_scale(self.log_base)
        return _mu(self.floor, r, self.alphabet_size, -(self.nu / scale), scale)


@dataclass(frozen=True, slots=True)
class FitScore:
    """Scored odds of one fit being right."""

    prior_log_odds: float
    evidence: float
    correction: float
    log_odds: float
    posterior: float
    log_base: str = "nat"


def weights(urn: UrnModel, log_base: str = "nat", floor: float | None = None) -> ScoreWeights:
    """Evidence weights of an urn against the flat-random null of the same
    alphabet size: natural-log weights times the unit scale, built once per
    (urn, unit, floor) and kept on the urn.  The arguments are checked on
    every call."""
    scale = _unit_scale(log_base)
    c = urn.alphabet_size
    if c < 2:
        raise ValidationError(f"scoring needs an alphabet of at least 2 symbols, got {c}")
    if floor is not None and not 0 < floor < 1:
        raise ValidationError(f"smoothing floor must be finite and in (0, 1), got {floor}")
    cached = urn.score_weights.get((log_base, floor))
    if cached is None:
        log_ca = math.log(c * urn.no_repeat / (c - 1))
        mu = {r: _mu(a, r, c, log_ca, scale) for r, a in urn.alpha.items()}
        correction = math.log(urn.no_repeat * (1.0 + urn.mean_extra_cells))
        cached = urn.score_weights[log_base, floor] = ScoreWeights(
            alphabet_size=c,
            log_base=log_base,
            mu=MappingProxyType(mu),
            nu=-log_ca * scale,
            correction=correction * scale,
            floor=floor,
        )
    return cached


def _check_spectrum_fits(spectrum: Mapping[int, int], overlap: int) -> tuple[list, int]:
    """A spectrum's nonzero runs as (r, k_r) int pairs in key order, and the
    L + 1 - sum (r+1)*k_r cells left to no-repeat cards.  Spectra enter the
    program here, through the two proportions, unless figures.run_spectrum
    made them: run lengths must be whole numbers >= 1 and counts >= 0."""
    runs = []
    for r, k in spectrum.items():
        if not _at_least(r, 1, whole=True):
            raise ValidationError(f"run length must be a positive integer, got {r!r}")
        if not _at_least(k, 0, whole=True):
            raise ValidationError(
                f"run count for length {r} must be a non-negative integer, got {k!r}"
            )
        if k:
            runs.append((int(r), int(k)))
    if overlap < 0:
        raise ValidationError(f"overlap must be >= 0, got {overlap}")
    used = sum((r + 1) * k for r, k in runs)
    if used > overlap + 1:
        raise ValidationError(
            f"spectrum needs {used} cells (runs plus terminators) "
            f"but the overlap admits only {overlap + 1}"
        )
    return runs, overlap + 1 - used


def right_relevant_proportion(urn: UrnModel, spectrum: Mapping[int, int], overlap: int) -> float:
    """Fraction of right comparisons showing exactly this figure.

    (1 + sum r*alpha_r) * A^(L + 1 - sum (r+1)k_r) * prod alpha_r^k_r.
    The prefactor is the large-overlap normalization for sessions lost to
    overshoot; without it the value is the raw probability that a completed
    drawing session spells out this figure.
    """
    runs, exponent = _check_spectrum_fits(spectrum, overlap)
    value = urn.no_repeat ** exponent
    for r, k in runs:
        value *= urn.alpha.get(r, 0.0) ** k
    return value * (1.0 + urn.mean_extra_cells)


def wrong_relevant_proportion(alphabet_size: int, spectrum: Mapping[int, int],
                              overlap: int) -> float:
    """Fraction of wrong comparisons showing exactly this figure.

    The right-proportion form evaluated on the flat-random urn:
    (c/(c-1)) * ((c-1)/c)^(L + 1 - sum (r+1)k_r) * prod ((c-1)/c^(r+1))^k_r,
    which reduces exactly to the independent-uniform-letters probability.
    """
    c = alphabet_size
    if c < 2:
        raise ValidationError(f"alphabet size must be >= 2, got {c}")
    runs, exponent = _check_spectrum_fits(spectrum, overlap)
    value = (c / (c - 1)) * ((c - 1) / c) ** exponent
    for r, k in runs:
        value *= ((c - 1) / c ** (r + 1)) ** k
    return value


def _combine(w: ScoreWeights, prior_log_odds, run_evidence, overlap):
    """The scoring rule, on floats or numpy arrays alike: evidence
    ``run_evidence - nu*L``, log-odds ``prior + evidence + correction`` and the
    posterior q/(1+q), evaluated stably from log q.  The prior is in the
    weights' own log unit.  Returns (evidence, log_odds, posterior)."""
    evidence = run_evidence - w.nu * overlap
    log_odds = prior_log_odds + evidence + w.correction
    x = log_odds / _unit_scale(w.log_base)
    e = np.exp(-abs(x))
    # e ** True is e and e ** False is 1.0, exactly: 1/(1+e^-x) for x >= 0
    # and e^x/(1+e^x) below, without a branch that arrays cannot take.
    return evidence, log_odds, e ** (x < 0) / (1.0 + e)


def odds_of_fit(
    urn: UrnModel,
    figure: RepetitionFigure,
    prior_log_odds: float = 0.0,
    log_base: str = "nat",
    floor: float | None = None,
) -> FitScore:
    """Score a fit from its figure.

    The prior is given in the chosen log unit; the evidence sums
    ``mu_r * k_r`` over the figure's run lengths in spectrum key order.
    """
    spectrum = run_spectrum(figure)
    w = weights(urn, log_base, floor)
    if not math.isfinite(prior_log_odds):
        raise ValidationError(f"prior log-odds must be finite, got {prior_log_odds}")
    # mu_for only for the lengths the urn lacks: the method call costs.
    mu = w.mu
    run_evidence = sum((mu[r] if r in mu else w.mu_for(r)) * k for r, k in spectrum.items())
    evidence, log_odds, posterior = _combine(w, prior_log_odds, run_evidence, figure.length)
    # In field order: positional arguments cost less per call than keywords.
    return FitScore(prior_log_odds, evidence, w.correction, log_odds, float(posterior), log_base)


def score_to_json(score: FitScore, **extra) -> str:
    doc = {
        "log_odds": score.log_odds,
        "posterior": score.posterior,
        "evidence": score.evidence,
        "prior_log_odds": score.prior_log_odds,
        "correction": score.correction,
        "unit": score.log_base,
    }
    doc.update(extra)
    return dump(doc)
