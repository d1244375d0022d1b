"""The benchmark's traced run wraps repfit functions by name; each name must
still be an attribute of the object it is looked up on, and still be called
on all of the work its layer reports."""

import importlib
from pathlib import Path
from unittest.mock import patch

import numpy as np

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
