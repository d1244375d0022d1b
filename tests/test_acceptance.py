"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `[acceptance NN] PASS/FAIL` line (run with `pytest -s`
to watch them scroll by).  Monte Carlo criteria use pinned seeds, so the
whole suite is deterministic.
"""

import math
import random
import time

import numpy as np

from repfit.corpus import actual_counts, apparent_counts, build_corpus
from repfit.figures import parse_figure, run_spectrum
from repfit.scoring import (
    odds_of_fit,
    right_relevant_proportion,
    weights,
    wrong_relevant_proportion,
)
from repfit.simlab import ExperimentConfig, LanguageModel, calibration_experiment, run_length_table
from repfit.urn import (
    UrnModel,
    exact_completion_probability,
    hatted_urn,
    sample_figures,
)

from oracles import (
    acceptance_proportion,
    actual_oracle,
    apparent_oracle,
    block_probability,
    cells_with_terminators,
    completing_figures,
    feasible_spectra,
    figure_of,
    figures_from_draws,
    spectrum_multiplicity,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {criterion:02d}] {'PASS' if ok else 'FAIL'} {detail}")


def test_criterion_01_exact_identity_suite():
    started = time.perf_counter()
    rng = random.Random(0xC1AC1E)
    mismatches = 0
    for _ in range(200):
        n = rng.randrange(4, 65)
        c = rng.choice([2, 3, 4, 26])
        circle = [rng.randrange(c) for _ in range(n)]
        r_max = min(9, n - 1)
        apparent = apparent_counts(build_corpus([circle], c), r_max)
        if apparent != apparent_oracle(circle, r_max):
            mismatches += 1
        if r_max >= 3 and actual_counts(apparent) != actual_oracle(circle, r_max - 2):
            mismatches += 1
    elapsed = time.perf_counter() - started
    ok = mismatches == 0 and elapsed < 10.0
    _report(1, ok, f"200 circles, 0 tolerance, {mismatches} mismatches, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


def test_criterion_02_mn_inversion():
    rng = random.Random(0x1212)
    failures = 0
    for _ in range(500):
        n_values = [rng.randrange(0, 100) for _ in range(rng.randrange(1, 8))]
        r_count = len(n_values)
        apparent = [
            sum((j - r + 1) * n_values[j] for j in range(r, r_count))
            for r in range(r_count)
        ] + [0, 0]
        if actual_counts(apparent) != n_values:
            failures += 1
    _report(2, failures == 0, f"500 random vectors recovered exactly, {failures} failures")
    assert failures == 0


def test_criterion_03_hatted_closure():
    worst_weight = 0.0
    for c in range(2, 31):
        w = weights(hatted_urn(c))
        worst_weight = max(
            worst_weight, abs(w.nu), abs(w.correction),
            max((abs(m) for m in w.mu.values()), default=0.0),
        )

    rng = random.Random(0x0DD5)
    urn = hatted_urn(26)
    worst_rel = 0.0
    for _ in range(1000):
        length = rng.randrange(1, 150)
        cells = "".join("X" if rng.random() < 0.3 else "O" for _ in range(length))
        figure = parse_figure(cells)
        assert max(run_spectrum(figure), default=0) <= max(urn.alpha)
        prior = rng.uniform(-4.0, 4.0)
        score = odds_of_fit(urn, figure=figure, prior_log_odds=prior)
        worst_rel = max(worst_rel, abs(math.exp(score.log_odds - prior) - 1.0))

    ok = worst_weight < 1e-12 and worst_rel < 1e-9
    _report(3, ok, f"c in 2..30 worst weight {worst_weight:.2e}, "
                   f"q=lambda worst rel err {worst_rel:.2e}")
    assert worst_weight < 1e-12
    assert worst_rel < 1e-9


def test_criterion_04_acceptance_proportion_and_scrap_rate():
    started = time.perf_counter()
    urn = hatted_urn(26, r_max=25)

    accept_err = abs(acceptance_proportion(urn) - 25 / 26)

    count = 100_000
    _, scrapped = sample_figures(urn, overlap=200, count=count, seed=1918)
    scrap_rate = scrapped / (scrapped + count)
    scrap_err = abs(scrap_rate - 1 / 26)

    dp_err = abs(exact_completion_probability(urn, 500) * (1 + urn.mean_extra_cells) - 1.0)

    elapsed = time.perf_counter() - started
    ok = accept_err < 1e-9 and scrap_err < 0.005 and dp_err < 1e-6 and elapsed < 30.0
    _report(4, ok, f"acceptance err {accept_err:.2e}, scrap rate {scrap_rate:.5f} "
                   f"(err {scrap_err:.5f}), dp err {dp_err:.2e}, {elapsed:.1f}s")
    assert accept_err < 1e-9
    assert scrap_err < 0.005
    assert dp_err < 1e-6
    assert elapsed < 30.0


def test_criterion_05_enumeration_oracle():
    # Proportions with short binary mantissas keep every product of up to
    # nine factors exactly representable, so the two compute routes must
    # agree bit for bit; wider-mantissa urns are held to float round-off.
    dyadic_urns = [
        hatted_urn(2, r_max=3),
        UrnModel(alpha={1: 0.25, 3: 0.125}, no_repeat=0.625, alphabet_size=8),
        UrnModel(alpha={1: 0.1875, 2: 0.0625}, no_repeat=0.75, alphabet_size=16),
    ]
    general_urns = [hatted_urn(3, r_max=3), hatted_urn(4, r_max=3)]
    worst_sum_err = 0.0
    exact_mismatches = 0
    for urn in dyadic_urns + general_urns:
        dyadic = urn in dyadic_urns
        alpha = dict(urn.alpha)
        for overlap in range(1, 9):
            total = 0.0
            for cells in completing_figures(overlap):
                p = block_probability(cells, alpha, urn.no_repeat)
                total += p
                spectrum = run_spectrum(parse_figure(cells))
                formula = right_relevant_proportion(urn, spectrum, overlap - 1) / (
                    1 + urn.mean_extra_cells
                )
                if dyadic:
                    if formula != p:
                        exact_mismatches += 1
                elif not math.isclose(formula, p, rel_tol=1e-13, abs_tol=0.0):
                    exact_mismatches += 1
            worst_sum_err = max(
                worst_sum_err, abs(total - exact_completion_probability(urn, overlap))
            )
    ok = worst_sum_err < 1e-12 and exact_mismatches == 0
    _report(5, ok, f"L<=8 sum err {worst_sum_err:.2e}, "
                   f"per-figure mismatches {exact_mismatches}")
    assert worst_sum_err < 1e-12
    assert exact_mismatches == 0


def test_criterion_06_wrong_model_spectra():
    rng = np.random.default_rng(0xACCE9106)
    trials, overlap, c = 1_000_000, 20, 4
    a = rng.integers(0, c, size=(trials, overlap), dtype=np.uint8)
    b = rng.integers(0, c, size=(trials, overlap), dtype=np.uint8)
    rows, lengths = run_length_table(a == b)
    max_len = int(lengths.max())
    grid = np.zeros((trials, max_len + 1), dtype=np.uint8)
    np.add.at(grid, (rows, lengths), 1)
    unique, counts = np.unique(grid, axis=0, return_counts=True)
    observed = {
        tuple(sorted((r, int(k)) for r, k in enumerate(row) if r >= 1 and k)): int(n)
        for row, n in zip(unique, counts)
    }

    checked = violations = 0
    worst_z = 0.0
    for spectrum in feasible_spectra(overlap):
        p = spectrum_multiplicity(spectrum, overlap) * wrong_relevant_proportion(
            c, spectrum, overlap
        )
        expected = trials * p
        if expected < 100:
            continue
        checked += 1
        obs = observed.get(tuple(sorted(spectrum.items())), 0)
        z = abs(obs - expected) / math.sqrt(trials * p * (1 - p))
        worst_z = max(worst_z, z)
        violations += z > 3
    ok = violations == 0 and checked > 50
    _report(6, ok, f"volume 1e6, {checked} spectra with expected >= 100, "
                   f"max |z| {worst_z:.2f}, {violations} beyond 3 sigma")
    assert checked > 50
    assert violations == 0


def test_criterion_07_end_to_end_calibration():
    started = time.perf_counter()
    lm = LanguageModel(alphabet_size=4, letter_probs=np.array([0.55, 0.25, 0.15, 0.05]))
    report = calibration_experiment(ExperimentConfig(
        lm, corpus_size=100_000, n_pairs=200_000, overlap=50,
        fraction_right=0.5, seed=20250808,
    ))
    gated = [b for b in report.bins if b.n_total >= 2000]
    violations = []
    for b in gated:
        gap = abs(b.empirical_right_fraction - b.mean_posterior)
        if gap > max(0.05, 3 * b.binomial_se):
            violations.append((b.lo, gap))
    totals = report.totals
    separation = totals["mean_log_odds_right"] - totals["mean_log_odds_wrong"]
    separation_se = math.sqrt(
        totals["std_log_odds_right"] ** 2 / totals["n_right"]
        + totals["std_log_odds_wrong"] ** 2 / totals["n_wrong"]
    )
    elapsed = time.perf_counter() - started
    ok = (not violations and len(gated) >= 5 and elapsed < 300.0
          and separation > 5 * separation_se)
    _report(7, ok, f"2e5 pairs, {len(gated)} gated bins, "
                   f"{len(violations)} out of tolerance, class separation "
                   f"{separation:.2f} ({separation / separation_se:.0f} se), {elapsed:.1f}s")
    assert len(gated) >= 5
    assert not violations, violations
    assert separation > 5 * separation_se
    assert elapsed < 300.0


def test_criterion_08_consistency_identity():
    rng = random.Random(0x1D07)
    worst = 0.0
    for _ in range(10_000):
        r_count = rng.randrange(1, 7)
        raw = [rng.random() + 1e-3 for _ in range(r_count)]
        total = rng.uniform(0.02, 0.7)
        alpha = {r + 1: x * total / sum(raw) for r, x in enumerate(raw)}
        urn = UrnModel(alpha=alpha, no_repeat=1.0 - total,
                       alphabet_size=rng.choice([2, 3, 4, 26, 30]))
        spectrum = {r: rng.randrange(0, 4) for r in alpha if rng.random() < 0.7}
        # An empty spectrum may draw overlap -1, which no figure has: such a
        # triple is scored at overlap 0.
        overlap = max(cells_with_terminators(spectrum) - 1 + rng.randrange(0, 80), 0)
        prior = rng.uniform(-3.0, 3.0)
        score = odds_of_fit(urn, figure=figure_of(spectrum, overlap), prior_log_odds=prior)
        direct = math.log(
            right_relevant_proportion(urn, spectrum, overlap)
            / wrong_relevant_proportion(urn.alphabet_size, spectrum, overlap)
        )
        lhs = score.log_odds - prior
        err = abs(lhs - direct) / max(abs(lhs), abs(direct), 1e-3)
        worst = max(worst, err)
    ok = worst < 1e-9
    _report(8, ok, f"1e4 random triples, worst relative gap {worst:.2e}")
    assert worst < 1e-9


def test_criterion_09_worked_example_replay():
    draws = [4, 0, 0, 0, 2, 0, 3, 13] + [0] * 13
    figures, scrapped = figures_from_draws(draws, overlap=12, count=2)
    texts = [f.cells for f in figures]
    ok = texts == ["XXXXOOOOXXOO", "OOOOOOOOOOOO"] and scrapped == 1
    _report(9, ok, f"figures {texts}, scrapped {scrapped}")
    assert texts == ["XXXXOOOOXXOO", "OOOOOOOOOOOO"]
    assert scrapped == 1


def test_criterion_10_nu_approximation():
    # As stated, this criterion is unattainable: with natural logs the error
    # |nu - (sum alpha - 2/51)| equals |2/51 - log(26/25)| plus the quadratic
    # remainder of -log(1 - x), which crosses 1e-3 at x ~ 0.0443.  Urns with
    # a repeat-card share in (0.0443, 0.05] therefore violate the bound; at
    # x = 0.05 the error is 1.2883e-3.  A tolerance of 1.3e-3 would hold on
    # the whole stated domain.  The test samples that domain uniformly and
    # reports the failure honestly rather than sampling around it.
    rng = random.Random(0x11A9)
    violations = []
    worst = 0.0
    for _ in range(100):
        total = rng.uniform(0.0005, 0.05)
        r_count = rng.randrange(1, 6)
        raw = [rng.random() + 1e-3 for _ in range(r_count)]
        alpha = {r + 1: x * total / sum(raw) for r, x in enumerate(raw)}
        urn = UrnModel(alpha=alpha, no_repeat=1.0 - total, alphabet_size=26)
        err = abs(weights(urn).nu - (sum(urn.alpha.values()) - 2 / 51))
        worst = max(worst, err)
        if err >= 1e-3:
            violations.append((total, err))
    ok = not violations
    _report(10, ok, f"100 urns with sum-alpha <= 0.05: worst err {worst:.4e}, "
                    f"{len(violations)} above 1e-3 "
                    f"(bound holds only for sum-alpha < ~0.0443)")
    assert not violations, (
        f"{len(violations)} of 100 urns exceed the 1e-3 tolerance; the "
        "approximation nu = sum(alpha) - 2/51 carries a quadratic remainder "
        "-log(1-x) - x that reaches 1.2883e-3 at x = 0.05, so the stated "
        f"bound cannot hold on the whole domain. Violations: {violations[:5]}"
    )
