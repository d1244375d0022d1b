"""The benchmark's traced run wraps repfit functions by name; each name must
still be an attribute of the object it is looked up on, and still be called
on all of the work its layer reports."""

import importlib
import threading
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest

from repfit import simlab
from repfit.simlab import ExperimentConfig, LanguageModel, calibration_experiment, generate_traffic

from oracles import cipher_coincidences, run_evidence_oracle


def test_every_traced_hook_names_a_live_attribute(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    patches = importlib.import_module("workloads").patches()
    assert len(patches) == 21
    for p in patches:
        assert p.attr in vars(p.owner), f"{p.name}: {p.owner!r} has no {p.attr!r}"


def test_run_length_hook_sees_every_cell_and_run():
    # The simlab.runlength layer counts cells and runs per call of
    # simlab.run_length_table; scoring in blocks must still route every
    # block through that global, here over several real-sized blocks.
    n_pairs, overlap = 5_000, 30
    assert n_pairs * overlap > 2 * simlab._SAMPLE_CHUNK
    lm = LanguageModel(alphabet_size=4, letter_probs=np.array([0.55, 0.25, 0.15, 0.05]))
    config = ExperimentConfig(lm, corpus_size=20_000, n_pairs=n_pairs, overlap=overlap,
                              fraction_right=0.5, seed=17)
    cells, runs, made = [], [], {}
    real_table = simlab.run_length_table

    def table_spy(coincidences):
        result = real_table(coincidences)
        cells.append(coincidences.size)
        runs.append(len(result[1]))
        return result

    def keep(name, fn):
        def spy(*args, **kwargs):
            made[name] = fn(*args, **kwargs)
            made[f"{name} args"] = args
            return made[name]
        return spy

    with patch.object(simlab, "run_length_table", table_spy), \
            patch.object(simlab, "weights", keep("weights", simlab.weights)), \
            patch.object(simlab, "_PairStream", keep("stream", simlab._PairStream)):
        calibration_experiment(config)
    # The lab's stream, drawn whole from its arguments.
    traffic = generate_traffic(*made["stream args"])
    _, lengths = run_evidence_oracle(made["weights"], cipher_coincidences(traffic))
    assert len(cells) > 2
    assert sum(cells) == n_pairs * overlap
    assert sum(runs) == lengths.size


@pytest.mark.parametrize("lm, n_decodes, samples", [
    (LanguageModel(alphabet_size=4, letter_probs=np.array([0.55, 0.25, 0.15, 0.05])), 50, 1),
    (LanguageModel(alphabet_size=3, kind="markov-1", transition=np.full((3, 3), 1 / 3)), 7, 7),
], ids=["iid", "markov"])
def test_fit_and_corpus_draw_run_on_the_calling_thread(lm, n_decodes, samples):
    # The traced run's recorder keeps one stack of open spans, so the
    # layers it wraps in the fit must open and close on the calling thread,
    # while the pair stream is set up beside them.  An i.i.d. corpus is one
    # sample call; a markov-1 corpus is one chain a text.
    threads = {}

    def on_thread(name, fn):
        def spy(*args, **kwargs):
            threads.setdefault(name, []).append(threading.get_ident())
            return fn(*args, **kwargs)
        return spy

    config = ExperimentConfig(lm, corpus_size=5_000, n_pairs=2_000, overlap=20,
                              fraction_right=0.5, seed=3, n_decodes=n_decodes)
    with patch.object(simlab, "compute_statistics",
                      on_thread("census", simlab.compute_statistics)), \
            patch.object(simlab, "urn_from_stats", on_thread("fit", simlab.urn_from_stats)), \
            patch.object(simlab, "weights", on_thread("weights", simlab.weights)), \
            patch.object(LanguageModel, "sample", on_thread("sample", LanguageModel.sample)):
        calibration_experiment(config)
    here = threading.get_ident()
    assert {name: set(ids) for name, ids in threads.items()} == {
        "census": {here}, "fit": {here}, "weights": {here}, "sample": {here}}
    assert len(threads["sample"]) == samples
