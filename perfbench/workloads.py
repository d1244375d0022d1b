"""The benchmark's workloads: one-off set-up, one timed pass, output checks.

Each pass drives repfit the way a user does, through ``repfit.cli.main``
in-process, plus public API calls where the workload scores fits itself.
Checks run after a pass, outside its timing; a check that fails, a non-zero
exit code or an exception marks the pass failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from contextlib import redirect_stdout

import numpy as np

import repfit
import repfit.cli
import repfit.scoring
import repfit.simlab
from repfit.figures import run_spectrum
from repfit.scoring import right_relevant_proportion, wrong_relevant_proportion
from repfit.urn import exact_completion_probability, urn_from_json

from spans import Patch


class CheckFailed(Exception):
    """A pass's output is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _read_json(path: str):
    with open(path) as handle:
        return json.load(handle)


class Workload:
    """Base class: ``run_pass`` returns its outputs for ``check``."""

    def __init__(self, manifest: dict, directory: str):
        self.manifest = manifest
        self.dir = directory
        self._devnull = open(os.devnull, "w")

    def path(self, name: str) -> str:
        return os.path.join(self.dir, name)

    def cli(self, *argv: str) -> None:
        # The CLI prints summaries to stdout when writing to --out; the
        # benchmark's own stdout carries its protocol, so discard them.
        with redirect_stdout(self._devnull):
            code = repfit.cli.main(list(argv))
        _check(code == 0, f"repfit {' '.join(argv[:2])} exited {code}")

    def close(self) -> None:
        self._devnull.close()


class CorpusPipeline(Workload):
    """stats --strip --rmax 9 -> urn --from-stats -> score --a --b at a few shifts."""

    def setup(self) -> None:
        self.units = self.manifest["n_letters"]

    def run_pass(self):
        m = self.manifest
        corpus = [self.path(name) for name in m["corpus"]]
        stats, urn = self.path("stats.json"), self.path("urn.json")
        self.cli("--reproducible", "stats", *corpus, "--strip",
                 "--rmax", str(m["params"]["r_max"]), "--out", stats)
        self.cli("--reproducible", "urn", "--from-stats", stats, "--out", urn)
        scores = []
        for i, shift in enumerate(m["shifts"]):
            out = self.path(f"score{i}.json")
            self.cli("--reproducible", "score", "--urn", urn,
                     "--a", self.path(m["msg_a"]), "--b", self.path(m["msg_b"]),
                     "--shift", str(shift), "--prior-log-odds", repr(m["prior_log_odds"]),
                     "--smoothing-floor", repr(m["floor"]), "--out", out)
            scores.append(out)
        return {"stats": stats, "urn": urn, "scores": scores}

    def check(self, outputs) -> dict:
        m = self.manifest
        doc = _read_json(outputs["stats"])
        n = m["n_letters"]
        _check(doc["N"] == n, f"stats N {doc['N']} != {n} letters")
        m1 = sum(k * (k - 1) // 2 for k in m["letter_counts"])
        _check(doc["M"][0] == m1, f"M_1 {doc['M'][0]} != sum C(n_s, 2) = {m1}")
        _check(all(x >= 0 for x in doc["Nr"]), "negative N_r")
        cards = n * (n - 1) // 2 - sum(r * x for r, x in enumerate(doc["Nr"], start=1))
        _check(doc["total_cards"] == cards, f"total_cards {doc['total_cards']} != {cards}")
        for path in outputs["scores"]:
            score = _read_json(path)
            _check(math.isfinite(score["log_odds"]), f"{path}: log odds not finite")
            _check(0.0 <= score["posterior"] <= 1.0, f"{path}: posterior outside [0, 1]")
        digests = {name: sha256_file(outputs[name]) for name in ("stats", "urn")}
        digests.update({f"score{i}": sha256_file(p) for i, p in enumerate(outputs["scores"])})
        return digests


class Calibration(Workload):
    """repfit simulate at the acceptance configuration."""

    def setup(self) -> None:
        self.units = self.manifest["n_pairs"]

    def run_pass(self):
        report = self.path("report.json")
        self.cli("simulate", "--config", self.path(self.manifest["config"]), "--out", report)
        return {"report": report}

    def check(self, outputs) -> dict:
        m = self.manifest
        doc = _read_json(outputs["report"])
        n_pairs, n_right = m["n_pairs"], round(m["n_pairs"] * m["fraction_right"])
        bins = doc["bins"]
        _check(sum(b["n_total"] for b in bins) == n_pairs, "bin n_total does not sum to n_pairs")
        _check(doc["totals"]["n_pairs"] == n_pairs, "totals n_pairs wrong")
        _check(doc["totals"]["n_right"] == n_right, f"n_right != round(n_pairs * f) = {n_right}")
        _check(sum(b["n_right"] for b in bins) == n_right, "bin n_right does not sum to n_right")
        for b in bins:
            p = b["mean_posterior"]
            _check(math.isfinite(p) and 0.0 <= p <= 1.0, f"bin posterior {p} outside [0, 1]")
        return {"report": sha256_file(outputs["report"])}


class FitScoring(Workload):
    """repfit sample, then odds_of_fit on every sampled figure and every shift."""

    check_every = 97

    def setup(self) -> None:
        m = self.manifest
        stats, urn = self.path("stats.json"), self.path("urn.json")
        self.cli("--reproducible", "stats", self.path(m["corpus"]), "--strip",
                 "--rmax", str(m["params"]["r_max"]), "--out", stats)
        self.cli("--reproducible", "urn", "--from-stats", stats, "--out", urn)
        with open(urn) as handle:
            self.urn = urn_from_json(handle.read())
        self.floor = 0.5 / _read_json(stats)["total_cards"]
        self.a = _read_codes(self.path(m["msg_a"]))
        self.b = _read_codes(self.path(m["msg_b"]))
        self.units = m["params"]["count"] + len(m["shifts"])
        self.expected_accept = exact_completion_probability(self.urn, m["params"]["overlap"])
        self.setup_digests = {"stats": sha256_file(stats), "urn": sha256_file(urn)}

    def run_pass(self):
        m = self.manifest
        params = m["params"]
        sample = self.path("sample.json")
        self.cli("--reproducible", "sample", "--urn", self.path("urn.json"),
                 "--overlap", str(params["overlap"]), "--count", str(params["count"]),
                 "--seed", str(m["sample_seed"]), "--out", sample)
        with open(sample) as handle:
            cells = json.load(handle)["figures"]
        fits = []
        for text in cells:
            figure = repfit.parse_figure(text)
            fits.append((figure, 0.0, repfit.odds_of_fit(self.urn, figure=figure, floor=self.floor)))
        prior = m["prior_log_odds"]
        for shift in m["shifts"]:
            figure = repfit.figure_from_comparison(self.a, self.b, shift)
            fits.append((figure, prior, repfit.odds_of_fit(
                self.urn, figure=figure, prior_log_odds=prior, floor=self.floor)))
        return {"sample": sample, "fits": fits}

    def check(self, outputs) -> dict:
        params = self.manifest["params"]
        doc = _read_json(outputs["sample"])
        _check(len(doc["figures"]) == params["count"], "wrong number of sampled figures")
        _check(all(len(f) == params["overlap"] - 1 for f in doc["figures"]),
               "sampled figure of the wrong length")
        fits = outputs["fits"]
        _check(len(fits) == self.units, f"{len(fits)} fits scored, expected {self.units}")
        for figure, prior, score in fits[:: self.check_every]:
            spectrum = run_spectrum(figure)
            if any(r not in self.urn.alpha for r, _ in spectrum.items()):
                continue  # floored weight: no closed form to compare with
            expected = prior + math.log(
                right_relevant_proportion(self.urn, spectrum, figure.length)
                / wrong_relevant_proportion(self.urn.alphabet_size, spectrum, figure.length))
            _check(abs(score.log_odds - expected) <= 1e-9,
                   f"log odds {score.log_odds!r} != closed form {expected!r}")
        for _, _, score in fits:
            _check(math.isfinite(score.log_odds) and 0.0 <= score.posterior <= 1.0,
                   "score not finite or posterior outside [0, 1]")
        scores = ",".join(repr(score.log_odds) for _, _, score in fits)
        return {"sample": sha256_file(outputs["sample"]),
                "scores": hashlib.sha256(scores.encode()).hexdigest(),
                **self.setup_digests}


def _read_codes(path: str) -> np.ndarray:
    with open(path, "rb") as handle:
        raw = np.frombuffer(handle.read(), dtype=np.uint8)
    return raw[raw != ord("\n")] - ord("A")


WORKLOADS = {
    "corpus-pipeline": CorpusPipeline,
    "calibration": Calibration,
    "fit-scoring": FitScoring,
}


def _count_bytes(rec, args, result):
    rec.count("cli.normalize.bytes", len(args[1]))


def _count_letters(rec, args, result):
    rec.count("corpus.census.letters", args[0].n_letters)


def _count_sample(rec, args, result):
    figures, scrapped = result
    rec.count("urn.figures_sampled", len(figures))
    rec.count("urn.scrapped", scrapped)


def _count_cells(rec, args, result):
    rec.count("figures.cells_compared", result.length)


def _count_fit(rec, args, result):
    rec.count("scoring.fits", 1)


def _count_weights(rec, args, result):
    rec.count("scoring.weights_calls", 1)


def _count_runs(rec, args, result):
    rec.count("simlab.runs", len(result[1]))
    rec.count("simlab.cells", args[0].size)


def patches() -> list[Patch]:
    """Every layer boundary the traced run records, at its callers' lookups."""
    cli, scoring, simlab = repfit.cli, repfit.scoring, repfit.simlab
    return [
        Patch(cli, "main", "cli.main"),
        Patch(cli.NormalizationPolicy, "normalize", "cli.normalize", _count_bytes),
        Patch(cli, "build_corpus", "corpus.build"),
        Patch(cli, "compute_statistics", "corpus.census", _count_letters, memory=True),
        Patch(cli, "urn_from_stats", "urn.fit"),
        Patch(cli, "sample_figures", "urn.sample", _count_sample),
        Patch(cli, "figure_from_comparison", "figures.compare", _count_cells),
        Patch(cli, "odds_of_fit", "scoring.score", _count_fit),
        Patch(repfit, "parse_figure", "figures.parse"),
        Patch(repfit, "figure_from_comparison", "figures.compare", _count_cells),
        Patch(repfit, "odds_of_fit", "scoring.score", _count_fit),
        Patch(scoring, "run_spectrum", "figures.spectrum"),
        Patch(scoring, "weights", "scoring.weights", _count_weights),
        Patch(simlab, "calibration_experiment", "simlab.experiment"),
        Patch(simlab, "build_corpus", "corpus.build"),
        Patch(simlab, "compute_statistics", "corpus.census", _count_letters, memory=True),
        Patch(simlab, "urn_from_stats", "urn.fit"),
        Patch(simlab, "weights", "scoring.weights", _count_weights),
        Patch(simlab, "generate_traffic", "simlab.traffic"),
        Patch(simlab.LanguageModel, "sample", "simlab.lm_sample"),
        Patch(simlab, "run_length_table", "simlab.runlength", _count_runs),
    ]
