import contextlib
import hashlib
import io
import json
import math
import string
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repfit.cli
import repfit.corpus
from repfit import simlab
from repfit.cli import NormalizationPolicy, main
from repfit.errors import NormalizationError

from oracles import normalize_oracle

HATTED_A = 25 / 26


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_stats_on_small_file(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    out = tmp_path / "stats.json"
    code, stdout, _ = run(capsys, "stats", corpus, "--rmax", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["N"] == 5
    assert doc["M"] == [2, 1, 0]
    assert doc["Nr"] == [0]
    assert "M_r" in stdout or "r" in stdout


def test_stats_rmax_four_recovers_the_bigramme(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    out = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", corpus, "--rmax", "4", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["Nr"] == [0, 1]


def test_stats_default_rmax_emits_nine_and_seven(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "THEQUICKBROWNFOXJUMPSOVERTHELAZYDOG" * 3)
    out = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", corpus, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["r_max"] == 9
    assert len(doc["M"]) == 9
    assert len(doc["Nr"]) == 7


def test_stats_folds_case_and_skips_whitespace(tmp_path, capsys):
    mixed = write(tmp_path, "mixed.txt", "ab cab\n")
    plain = write(tmp_path, "plain.txt", "ABCAB")
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    assert run(capsys, "--reproducible", "stats", mixed, "--rmax", "3", "--out", str(out_a))[0] == 0
    assert run(capsys, "--reproducible", "stats", plain, "--rmax", "3", "--out", str(out_b))[0] == 0
    assert out_a.read_text() == out_b.read_text()


def test_custom_lowercase_alphabet_folds_toward_it(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "AbBa")
    out = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", corpus, "--alphabet", "ab", "--rmax", "3",
                     "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["N"] == 4


def test_mixed_case_alphabet_with_folding_is_rejected(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "aAaAaAaAaAaA")
    code, _, err = run(capsys, "stats", corpus, "--alphabet", "aA")
    assert code == 3
    assert "ambiguous" in err
    assert run(capsys, "stats", corpus, "--alphabet", "aA", "--no-fold")[0] == 0


def test_stats_rejects_bad_byte_with_offset(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "AB?AB")
    code, _, err = run(capsys, "stats", corpus, "--error")
    assert code == 3
    assert "offset 2" in err


def test_stats_reports_the_raw_byte_not_its_folded_case(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "abY\n")
    code, _, err = run(capsys, "stats", corpus, "--alphabet", "abc")
    assert code == 3
    assert "b'Y'" in err
    assert "offset 2" in err


_NORMALIZE_BYTES = (string.ascii_letters + string.digits + string.punctuation
                    + " \t\r\n\v\f").encode() + b"\x00\x80\xc3\xe9\xff"


@given(
    data=st.binary(max_size=60).map(
        lambda raw: bytes(_NORMALIZE_BYTES[b % len(_NORMALIZE_BYTES)] for b in raw)
    ) | st.binary(max_size=60),
    alphabet=st.sampled_from([string.ascii_uppercase, "abc", "ACGT", string.digits]),
    fold_case=st.booleans(),
    on_invalid=st.sampled_from(["strip", "error"]),
)
def test_table_normalize_matches_per_byte_oracle(data, alphabet, fold_case, on_invalid):
    policy = NormalizationPolicy(alphabet=alphabet, fold_case=fold_case, on_invalid=on_invalid)
    try:
        expected = normalize_oracle(policy, data)
    except NormalizationError as exc:
        with pytest.raises(NormalizationError) as caught:
            policy.normalize(data)
        assert caught.value.offset == exc.offset
        assert str(caught.value) == str(exc)
        return
    got = policy.normalize(data)
    assert got.dtype == expected.dtype
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("data, offset", [
    (b" \t\nAB\r\n ?CD", 8),  # whitespace before the bad byte counts in its offset
    (b"?ABC", 0),
    (b"ABC?", 3),
    (b"\n\xff", 1),
    (b"AB \x00\x01", 3),
    (b"", None),
    (b" \t\r\n\v\f", None),
])
def test_normalize_error_offsets_match_the_oracle(data, offset):
    policy = NormalizationPolicy()
    if offset is None:
        assert np.array_equal(policy.normalize(data), normalize_oracle(policy, data))
        assert policy.normalize(data).size == 0
        return
    with pytest.raises(NormalizationError) as expected:
        normalize_oracle(policy, data)
    with pytest.raises(NormalizationError) as got:
        policy.normalize(data)
    assert got.value.offset == expected.value.offset == offset
    assert str(got.value) == str(expected.value) == (
        f"byte {data[offset:offset + 1]!r} at offset {offset} is not in the alphabet")


@pytest.mark.parametrize("alphabet, fold_case", [
    (string.ascii_uppercase, True), ("abc", True), ("ACGT", False), (string.digits, False),
    (string.ascii_letters, False)])
def test_strip_mode_over_every_byte_value_matches_the_oracle(alphabet, fold_case):
    policy = NormalizationPolicy(alphabet=alphabet, fold_case=fold_case, on_invalid="strip")
    data = bytes(range(256)) * 2 + bytes(range(255, -1, -1))
    got = policy.normalize(data)
    assert np.array_equal(got, normalize_oracle(policy, data))
    assert not got.flags.writeable


def test_stats_strip_mode_drops_bad_bytes(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "AB?CAB!")
    out = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", corpus, "--strip", "--rmax", "3", "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text())["N"] == 5


@pytest.mark.parametrize("text, flags", [("", []), (" \n\t\r\n", []), ("?!.,-", ["--strip"])],
                         ids=["empty", "whitespace", "stripped-punctuation"])
def test_stats_of_a_file_without_letters_exits_3_naming_it(tmp_path, capsys, text, flags):
    # The second file normalizes to no letters: the error names its path.
    corpus = write(tmp_path, "corpus.txt", "ABRACADABRA")
    empty = write(tmp_path, "empty.txt", text)
    code, out, err = run(capsys, "stats", corpus, empty, *flags)
    assert code == 3
    assert f"{empty}: holds no letters" in err and out == ""


def test_hatted_urn_command(tmp_path, capsys):
    out = tmp_path / "urn.json"
    code, _, _ = run(capsys, "urn", "--hatted", "--alphabet-size", "26", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["A"] - HATTED_A) < 1e-12
    assert abs(doc["alpha"]["1"] - 25 / 676) < 1e-15


def test_urn_from_stats_pipeline(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    stats = tmp_path / "stats.json"
    urn = tmp_path / "urn.json"
    assert run(capsys, "stats", corpus, "--rmax", "4", "--out", str(stats))[0] == 0
    code, _, _ = run(capsys, "urn", "--from-stats", str(stats), "--out", str(urn))
    assert code == 0
    doc = json.loads(urn.read_text())
    assert doc["alpha"] == {"2": 0.125}
    assert doc["A"] == 0.875


def test_urn_degenerate_stats_exit_code(tmp_path, capsys):
    stats = write(tmp_path, "stats.json", json.dumps({
        "N": 1, "c": 26, "r_max": 1, "M": [0], "Nr": [], "total_cards": 0,
    }))
    code, _, err = run(capsys, "urn", "--from-stats", stats)
    assert code == 4
    assert "degenerate" in err


def test_score_figure_under_hatted_urn_returns_the_prior(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--out", str(urn))
    out = tmp_path / "score.json"
    code, _, _ = run(
        capsys, "score", "--urn", str(urn), "--figure", "XXXXOOOOXXOO",
        "--prior-log-odds", "0.75", "--out", str(out),
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert abs(doc["log_odds"] - 0.75) < 1e-9
    assert abs(doc["posterior"] - math.exp(0.75) / (1 + math.exp(0.75))) < 1e-9


def test_score_from_message_files(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--out", str(urn))
    a = write(tmp_path, "a.txt", "ABCD")
    b = write(tmp_path, "b.txt", "ABXD")
    out = tmp_path / "score.json"
    code, _, _ = run(capsys, "score", "--urn", str(urn), "--a", a, "--b", b,
                     "--shift", "0", "--out", str(out))
    assert code == 0
    assert abs(json.loads(out.read_text())["log_odds"]) < 1e-9
    # Letters of a 25-symbol alphabet cannot be scored against a 26-symbol urn.
    code, _, err = run(capsys, "score", "--urn", str(urn), "--a", a, "--b", b,
                       "--alphabet", string.ascii_uppercase[:25], "--strip")
    assert code == 3
    assert "25" in err and "26" in err


def test_score_bad_figure_exit_code(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--out", str(urn))
    code, _, err = run(capsys, "score", "--urn", str(urn), "--figure", "XXQ")
    assert code == 3
    assert "position 2" in err


def test_score_unknown_run_length_exit_code(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    stats = tmp_path / "stats.json"
    urn = tmp_path / "urn.json"
    run(capsys, "stats", corpus, "--rmax", "4", "--out", str(stats))
    run(capsys, "urn", "--from-stats", str(stats), "--out", str(urn))
    code, _, err = run(capsys, "score", "--urn", str(urn), "--figure", "XXXO")
    assert code == 4
    assert "3-gramme" in err
    # A smoothing floor makes the same figure scorable.
    code, _, _ = run(capsys, "score", "--urn", str(urn), "--figure", "XXXO",
                     "--smoothing-floor", "1e-6")
    assert code == 0
    # A floor must be a proportion: finite and strictly between 0 and 1.
    for floor in ("nan", "inf", "0", "1", "1.5", "-1e-9"):
        code, _, err = run(capsys, "score", "--urn", str(urn), "--figure", "XXXO",
                           f"--smoothing-floor={floor}")
        assert code == 3
        assert "smoothing floor" in err


def test_sample_empty_alpha_urn(tmp_path, capsys):
    urn = write(tmp_path, "urn.json", json.dumps({"c": 26, "alpha": {}, "A": 1.0}))
    code, stdout, err = run(capsys, "sample", "--urn", urn, "--overlap", "6",
                            "--count", "3", "--seed", "1", "--keep-trailing-o")
    assert code == 0
    assert stdout.splitlines() == ["OOOOOO"] * 3
    assert "scrapped 0" in err


def test_sample_same_seed_same_output(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--alphabet-size", "4", "--out", str(urn))
    first = run(capsys, "sample", "--urn", str(urn), "--overlap", "20",
                "--count", "50", "--seed", "7")
    second = run(capsys, "sample", "--urn", str(urn), "--overlap", "20",
                 "--count", "50", "--seed", "7")
    assert first == second
    assert len(first[1].splitlines()) == 50


def test_sample_json_artifact(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--alphabet-size", "4", "--out", str(urn))
    out = tmp_path / "figures.json"
    code, _, _ = run(capsys, "--reproducible", "sample", "--urn", str(urn),
                     "--overlap", "12", "--count", "5", "--seed", "3",
                     "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["figures"]) == 5
    assert doc["scrapped"] >= 0
    # Default output crosses off the trailing O.
    assert all(len(fig) == 11 for fig in doc["figures"])


def test_simulate_uniform_language_posteriors_equal_prior(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({
        "language": {"c": 4},
        "corpus_size": 0,
        "n_pairs": 2000,
        "overlap": 25,
        "fraction_right": 0.25,
        "seed": 11,
        "urn": "hatted",
    }))
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "simulate", "--config", config, "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert len(doc["bins"]) == 1
    assert abs(doc["bins"][0]["mean_posterior"] - 0.25) < 1e-12


def test_simulate_writes_csv(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({
        "language": {"c": 4, "probs": [0.55, 0.25, 0.15, 0.05]},
        "corpus_size": 5000,
        "n_pairs": 1000,
        "overlap": 20,
        "fraction_right": 0.5,
        "seed": 11,
    }))
    out = tmp_path / "report.json"
    csv = tmp_path / "bins.csv"
    code, _, _ = run(capsys, "simulate", "--config", config,
                     "--out", str(out), "--csv", str(csv))
    assert code == 0
    lines = csv.read_text().splitlines()
    assert lines[0].startswith("lo,hi,")
    assert len(lines) == len(json.loads(out.read_text())["bins"]) + 1


def test_simulate_bad_config_names_field(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({
        "language": {"c": 4}, "corpus_size": 100, "n_pairs": 10,
        "overlap": 5, "seed": 1,
    }))
    code, _, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert "fraction_right" in err


@pytest.mark.parametrize("field, value", [
    ("smoothing", "off"),
    ("smoothing", 0),
    ("r_max", "9"),
    ("msg_len", "50"),
    ("bin_width", "x"),
    ("n_decodes", 0),
    ("n_decodes", -3),
    ("n_pairs", True),
    ("smoothing", True),
    ("fraction_right", "half"),
    ("language", {"c": 300}),
    ("corpus_size", -5),
    ("language", {"c": 4, "probs": "x"}),
    ("language", {"c": "4"}),
    ("language", {"c": 4, "probs": [[0.5, 0.25], [0.25]]}),
    ("language", {"c": 2, "kind": "markov-1", "transition": {"a": 1}}),
    ("smoothing", math.inf),
    ("smoothing", 1.5),
    ("language", {"c": 4, "probs": [True, False, 0, 0]}),
    ("language", {"c": 2, "kind": "markov-1", "transition": [[True, 0], [0.5, 0.5]]}),
    ("language", {"c": 4, "probs": ["0.25", "0.25", "0.25", "0.25"]}),
    ("n_pairs", 10**23),
    ("corpus_size", 1 << 63),
    ("msg_len", -(1 << 63) - 1),
    ("bin_width", math.inf),
    pytest.param("bin_width", 10**309, id="bin_width-10**309"),
    ("bin_width", 1e-300),
    pytest.param("n_pairs", 2**62, id="n_pairs-2**62"),
    pytest.param("overlap", 2**62, id="overlap-2**62"),
    ("language", {"c": 4, "transition": [[0.25] * 4] * 4}),
    ("language", {"c": 2, "kind": "markov-1", "transition": [[0.5, 0.5]] * 2, "probs": [0.5, 0.5]}),
    ("corpus_size", 0),
    ("corpus_size", 16),
    ("r_max", 1000),
])
def test_simulate_bad_config_field_exits_3_naming_it(tmp_path, capsys, field, value):
    doc = {"language": {"c": 4}, "corpus_size": 1000, "n_pairs": 100,
           "overlap": 10, "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps({**doc, field: value}))
    code, _, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    if field == "language":
        field = next((f"language.{k}" for k in ("probs", "transition") if k in value), "language.c")
    assert field in err


def test_simulate_rejects_nan_letter_probabilities(tmp_path, capsys):
    config = write(tmp_path, "config.json", json.dumps({
        "language": {"c": 4, "probs": [float("nan"), 0.5, 0.25, 0.25]},
        "corpus_size": 1000, "n_pairs": 100, "overlap": 10, "fraction_right": 0.5, "seed": 1,
    }))
    code, _, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert "letter_probs" in err


@pytest.mark.parametrize("field, value", [
    ("overlap", 0),
    ("n_pairs", 0),
    ("msg_len", 7),
    ("fraction_right", 1.0),
    pytest.param("n_pairs", 2**62, id="n_pairs-2**62"),
])
def test_simulate_bad_traffic_exits_3_before_the_census(tmp_path, capsys, monkeypatch,
                                                         field, value):
    # The traffic parameters are checked before any corpus text is drawn or
    # censused: a census here would raise, not exit 3.
    def census(*args, **kwargs):
        raise AssertionError("the corpus was censused")

    monkeypatch.setattr(simlab, "compute_statistics", census)
    doc = {"language": {"c": 26}, "corpus_size": 3_000_000, "n_pairs": 100,
           "overlap": 10, "r_max": 8, "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps({**doc, field: value}))
    code, _, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert field in err


@pytest.mark.parametrize("command", ["score", "sample"])
@pytest.mark.parametrize("doc, field", [
    ({"c": 26, "alpha": [0.1], "A": 0.9}, "alpha"),
    ({"c": 26, "alpha": {"one": 0.1}, "A": 0.9}, "alpha"),
    ({"c": 26, "alpha": {"1": 0.1}, "A": "most"}, "A"),
    ({"c": [26], "alpha": {"1": 0.1}, "A": 0.9}, "c"),
    ({"c": 26, "A": 0.9}, "alpha"),
])
def test_malformed_urn_artifact_exits_3_naming_the_field(tmp_path, capsys, command, doc, field):
    urn = write(tmp_path, "urn.json", json.dumps(doc))
    args = ["--figure", "XO"] if command == "score" else ["--overlap", "5", "--count", "2"]
    code, _, err = run(capsys, command, "--urn", urn, *args)
    assert code == 3
    assert repr(field) in err


@pytest.mark.parametrize("doc", ["[]", "7", '"urn"'])
def test_urn_artifact_that_is_not_an_object_exits_3(tmp_path, capsys, doc):
    urn = write(tmp_path, "urn.json", doc)
    code, _, err = run(capsys, "score", "--urn", urn, "--figure", "XO")
    assert code == 3
    assert "JSON object" in err


@pytest.mark.parametrize("field, value", [
    ("M", "abc"),
    ("M", 5),
    ("Nr", ["x"]),
    ("N", "many"),
    ("c", None),
    ("r_max", [4]),
    ("total_cards", "ten"),
])
def test_malformed_stats_artifact_exits_3_naming_the_field(tmp_path, capsys, field, value):
    doc = {"N": 5, "c": 26, "r_max": 4, "M": [2, 1, 0, 0], "Nr": [1, 0], "total_cards": 9}
    stats = write(tmp_path, "stats.json", json.dumps({**doc, field: value}))
    code, _, err = run(capsys, "urn", "--from-stats", stats)
    assert code == 3
    assert repr(field) in err


@pytest.mark.parametrize("fields, message", [
    ({"N": -5, "Nr": [1, 0], "total_cards": 14}, "letter count N must be >= 0"),
    ({"Nr": [1, 0], "total_cards": 9}, "actual counts Nr must be"),
    ({"M": [-1, -2, -3, -4], "Nr": [0, 0], "total_cards": 10}, "apparent counts M must be >= 0"),
    ({"r_max": 5}, "field 'r_max'"),
    ({"M": [10, 9, 0, 0], "Nr": [-8, 9], "total_cards": 0}, "apparent counts M"),
])
def test_inconsistent_stats_artifact_exits_3_naming_the_field(tmp_path, capsys, fields, message):
    # The base document is the census of the circle ABCAB.
    doc = {"N": 5, "c": 26, "r_max": 4, "M": [2, 1, 0, 0], "Nr": [0, 1], "total_cards": 8}
    stats = write(tmp_path, "stats.json", json.dumps(doc))
    assert run(capsys, "urn", "--from-stats", stats)[0] == 0
    stats = write(tmp_path, "bad.json", json.dumps({**doc, **fields}))
    code, _, err = run(capsys, "urn", "--from-stats", stats)
    assert code == 3
    assert message in err


@pytest.mark.parametrize("argv, flag", [
    # Addressable, but a row of 2**56 draws is more than any address space.
    (["sample", "--urn", "{}", "--overlap", str(2**56), "--count", "1"], "--overlap"),
    (["sample", "--urn", "{}", "--overlap", str(2**62), "--count", "1"], "overlap"),
    (["sample", "--urn", "{}", "--overlap", "5", "--count", str(2**62)], "count"),
    (["sample", "--urn", "{}", "--overlap", str(2**61), "--count", str(2**61)], "overlap"),
    (["urn", "--hatted", "--alphabet-size", str(10**400)], "alphabet size"),
    (["urn", "--hatted", "--alphabet-size", str(2**63)], "alphabet size"),
])
def test_oversized_flags_exit_3_naming_the_flag(tmp_path, capsys, argv, flag):
    urn = write(tmp_path, "urn.json", json.dumps({"c": 4, "alpha": {"1": 0.1}, "A": 0.9}))
    code, out, err = run(capsys, *[urn if arg == "{}" else arg for arg in argv])
    assert code == 3
    assert flag in err and out == ""


def test_sample_count_beyond_memory_exits_3_before_drawing(tmp_path, capsys, monkeypatch):
    # 2**40 figures of 5 cells pass the intp bound on cells but not memory.
    def sampler(*args, **kwargs):
        raise AssertionError("the sampler ran")

    monkeypatch.setattr(repfit.cli, "sample_figures", sampler)
    urn = write(tmp_path, "urn.json", json.dumps({"c": 4, "alpha": {"1": 0.1}, "A": 0.9}))
    code, out, err = run(capsys, "sample", "--urn", urn, "--overlap", "5",
                         "--count", str(2**40))
    assert code == 3
    assert "--count" in err and out == ""


@pytest.mark.parametrize("sizes, names", [
    ({"n_pairs": 2**40, "overlap": 2}, ["n_pairs", "overlap"]),
    ({"n_pairs": 2**40, "overlap": 2, "msg_len": 3}, ["n_pairs", "msg_len"]),
    ({"corpus_size": 2**40}, ["corpus_size"]),
])
def test_simulate_beyond_memory_exits_3_before_drawing(tmp_path, capsys, monkeypatch, sizes,
                                                       names):
    # The traffic takes under 7 bytes a message cell and the census at least
    # 8 a corpus letter: terabytes here.
    def experiment(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(simlab, "calibration_experiment", experiment)
    doc = {"language": {"c": 4}, "corpus_size": 1_000, "n_pairs": 100, "overlap": 10,
           "fraction_right": 0.5, "seed": 1, **sizes}
    config = write(tmp_path, "config.json", json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert all(name in err for name in names) and "memory" in err and out == ""


@pytest.mark.parametrize("c, n_pairs, overlap, code", [
    (4, 10_000, 50, 0), (26, 10_000, 50, 0), (4, 60_000, 50, 3), (4, 40_000, 1, 3)])
def test_simulate_memory_check_counts_the_same_bytes_for_every_alphabet(
        tmp_path, capsys, monkeypatch, c, n_pairs, overlap, code):
    # 10,000 pairs of 50 letters take 40 bytes a pair and a block of 1,310
    # rows, 1.8 MB, at c = 4 and c = 26 alike, whose keys are both read a
    # block at a time: the memory here lies above that and the hatted urn's
    # census floor.  60,000 such pairs take 2.4 MB for their scores and
    # binning alone, and 40,000 one-letter messages are few cells, but a
    # block of 40,000 rows.
    monkeypatch.setattr(repfit.corpus, "_cpus", lambda: 1)
    monkeypatch.setattr(simlab, "_cpus", lambda: 1)
    monkeypatch.setattr(repfit.cli, "_physical_memory", lambda: 5 * 10_000 * 50)
    doc = {"language": {"c": c}, "corpus_size": 0, "n_pairs": n_pairs, "overlap": overlap,
           "fraction_right": 0.5, "seed": 1, "urn": "hatted"}
    config = write(tmp_path, "config.json", json.dumps(doc))
    report = tmp_path / "report.json"
    code_, _, err = run(capsys, "simulate", "--config", config, "--out", str(report))
    assert code_ == code, err
    if code == 0:
        assert json.loads(report.read_text())["totals"]["n_pairs"] == n_pairs
    else:
        assert f"n_pairs {n_pairs} x overlap {overlap} message cells" in err and "memory" in err
        assert not report.exists()


def test_simulate_census_of_two_word_keys_beyond_memory_exits_3(tmp_path, capsys,
                                                                monkeypatch):
    # At c = 26 the default r_max of 16 is past the 12 symbols a key holds,
    # so the census takes 29 bytes a letter: 1.5 times the memory here,
    # where 8.5 would pass.
    def experiment(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(simlab, "calibration_experiment", experiment)
    letters = repfit.cli._physical_memory() // 20
    doc = {"language": {"c": 26}, "corpus_size": letters, "n_pairs": 100, "overlap": 10,
           "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert f"corpus_size {letters} letters" in err and "memory" in err and out == ""


def test_stats_beyond_memory_exits_3_naming_rmax_before_the_census(tmp_path, capsys,
                                                                   monkeypatch):
    def census(*args, **kwargs):
        raise AssertionError("the census ran")

    monkeypatch.setattr(repfit.cli, "compute_statistics", census)
    monkeypatch.setattr(repfit.cli, "_physical_memory", lambda: 1 << 16)
    corpus = write(tmp_path, "corpus.txt", "ABRACADABRA" * 100)
    code, out, err = run(capsys, "stats", corpus, "--rmax", "5")
    assert code == 3
    assert "1100 letters censused to --rmax 5" in err and "memory" in err and out == ""


def test_stats_rmax_past_the_letters_exits_3_naming_rmax_and_n(tmp_path, capsys):
    # The census of any r_max takes the same memory, so the order is checked
    # against the letters before the memory.
    corpus = write(tmp_path, "corpus.txt", "ABRACADABRA" * 2)
    code, out, err = run(capsys, "stats", corpus, "--rmax", str(2**31))
    assert code == 3
    assert f"--rmax {2**31} must be below the N = 22 letters read" in err
    assert "memory" not in err and out == ""


def test_simulate_r_max_past_the_corpus_exits_3_naming_it(tmp_path, capsys):
    doc = {"language": {"c": 26}, "corpus_size": 1_000, "r_max": 2**40, "n_pairs": 100,
           "overlap": 10, "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--config", config)
    assert code == 3
    assert f"corpus_size > r_max, got corpus_size 1000 and r_max {2**40}" in err
    assert "memory" not in err and out == ""


@pytest.mark.parametrize("spare, code", [(550, 3), (1100, 0)])
def test_stats_memory_check_counts_the_letters_beside_the_census(tmp_path, capsys, monkeypatch,
                                                                 spare, code):
    # The census runs beside the corpus, a byte a letter: memory for the
    # census of 1100 letters and half of the letters is too little.
    monkeypatch.setattr(repfit.cli, "_physical_memory",
                        lambda: repfit.corpus._census_bytes(1100, 26, 5) + spare)
    corpus = write(tmp_path, "corpus.txt", "ABRACADABRA" * 100)
    out = tmp_path / "stats.json"
    code_, _, err = run(capsys, "stats", corpus, "--rmax", "5", "--out", str(out))
    assert code_ == code, err
    if code:
        assert "1100 letters censused to --rmax 5" in err and "memory" in err
        assert not out.exists()
    else:
        assert json.loads(out.read_text())["N"] == 1100


@pytest.mark.parametrize("spare, code", [(550, 3), (1100, 0)])
def test_simulate_memory_check_counts_the_letters_beside_the_census(tmp_path, capsys, monkeypatch,
                                                                    spare, code):
    # A from-corpus urn's census runs beside the joined corpus, a byte a
    # letter: memory for the census of 1100 letters and half of the letters
    # is too little.  The census also runs beside the set-up of the stream
    # of 100 pairs of 10 letters, their label permutation, labels and start
    # states, 11 bytes a pair, which both cases grant.
    set_up = simlab._setup_bytes(100)
    assert set_up == 1100
    monkeypatch.setattr(repfit.cli, "_physical_memory",
                        lambda: repfit.corpus._census_bytes(1100, 26, 5) + set_up + spare)
    doc = {"language": {"c": 26}, "corpus_size": 1100, "r_max": 5, "n_pairs": 100,
           "overlap": 10, "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps(doc))
    report = tmp_path / "report.json"
    code_, _, err = run(capsys, "simulate", "--config", config, "--out", str(report))
    assert code_ == code, err
    if code:
        assert "corpus_size 1100 letters" in err and "memory" in err
        assert not report.exists()
    else:
        assert json.loads(report.read_text())["totals"]["n_pairs"] == 100


def test_simulate_memory_check_counts_the_stream_set_up_beside_the_census(tmp_path, capsys,
                                                                          monkeypatch):
    # The census and the pair stream's set-up run at once: memory for
    # either alone, and for the traffic after them, is too little for both.
    # The set-up of a markov-1 language holds its two texts' start states,
    # 2 bytes a pair, and the label permutation and labels, 9 more.
    monkeypatch.setattr(repfit.corpus, "_cpus", lambda: 1)
    monkeypatch.setattr(simlab, "_cpus", lambda: 1)
    letters, n_pairs, overlap = 200_000, 20_000, 10
    census = letters + repfit.corpus._census_bytes(letters, 26, 5)
    set_up = n_pairs * (2 + 9)
    memory = max(census, set_up) + min(census, set_up) // 2
    assert simlab._traffic_bytes(n_pairs, overlap) < memory < census + set_up
    monkeypatch.setattr(repfit.cli, "_physical_memory", lambda: memory)
    language = {"c": 26, "kind": "markov-1", "transition": [[1 / 26] * 26] * 26}
    doc = {"language": language, "corpus_size": letters, "r_max": 5, "n_pairs": n_pairs,
           "overlap": overlap, "fraction_right": 0.5, "seed": 1}
    config = write(tmp_path, "config.json", json.dumps(doc))
    report = tmp_path / "report.json"
    code, _, err = run(capsys, "simulate", "--config", config, "--out", str(report))
    assert code == 3, err
    assert f"corpus_size {letters} letters" in err and f"n_pairs {n_pairs}" in err
    assert "memory" in err and not report.exists()


@pytest.mark.parametrize("command, owner, heavy", [
    ("stats", repfit.cli, "compute_statistics"),
    ("simulate", simlab, "calibration_experiment"),
    ("sample", repfit.cli, "sample_figures"),
])
def test_memory_error_in_any_command_exits_3_with_no_artifact(tmp_path, capsys, monkeypatch,
                                                              command, owner, heavy):
    # A cgroup limit below physical memory passes the size checks, and the
    # work itself then runs out.
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(owner, heavy, exhausted)
    inputs = {
        "stats": [write(tmp_path, "corpus.txt", "ABRACADABRA")],
        "simulate": ["--config", write(tmp_path, "config.json", json.dumps(FUZZ_DOCS["config"]))],
        "sample": ["--urn", write(tmp_path, "urn.json", json.dumps(FUZZ_DOCS["urn"])),
                   "--overlap", "5", "--count", "2"],
    }[command]
    out = tmp_path / "artifact.json"
    code, stdout, err = run(capsys, command, *inputs, "--out", str(out))
    assert code == 3
    assert f"repfit {command}: out of memory" in err and stdout == ""
    assert not out.exists() and not list(tmp_path.glob(".repfit-*"))


def test_stats_with_more_pairs_than_the_circle_has_exit_3_naming_m(tmp_path, capsys):
    # M_1 = 100 equal-letter pairs among the N(N-1)/2 = 10 pairs of 5 letters.
    doc = {"N": 5, "c": 26, "r_max": 4, "M": [100, 100, 100, 100], "Nr": [0, 0]}
    stats = write(tmp_path, "stats.json", json.dumps(doc))
    code, out, err = run(capsys, "urn", "--from-stats", stats)
    assert code == 3
    assert "apparent counts M" in err and "M_1=100" in err and out == ""


def test_successive_main_calls_share_no_state(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    pinned, stamped = tmp_path / "pinned.json", tmp_path / "stamped.json"
    assert run(capsys, "--reproducible", "stats", corpus, "--rmax", "4",
               "--out", str(pinned))[0] == 0
    assert run(capsys, "stats", corpus, "--rmax", "4", "--out", str(stamped))[0] == 0
    assert "generated_at" not in json.loads(pinned.read_text())
    assert "generated_at" in json.loads(stamped.read_text())


def test_hatted_urn_of_the_largest_alphabet_size(capsys):
    code, out, _ = run(capsys, "urn", "--hatted", "--alphabet-size", str(2**63 - 1))
    assert code == 0
    assert json.loads(out)["c"] == 2**63 - 1


@pytest.mark.parametrize("c, deepest", [(2, 1073), (3, 677), (26, 228), (2**63 - 1, 17)])
def test_hatted_urn_stops_where_its_proportions_underflow(tmp_path, capsys, c, deepest):
    # (c-1)/c**(r+1) is 0.0 beyond r = deepest, so --rmax 2**40 writes the
    # --rmax deepest urn instead of building 2**40 entries.
    paths = [tmp_path / "deep.json", tmp_path / "exact.json"]
    for rmax, path in zip((2**40, deepest), paths):
        code, _, _ = run(capsys, "--reproducible", "urn", "--hatted", "--alphabet-size", str(c),
                         "--rmax", str(rmax), "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()
    assert max(map(int, json.loads(paths[0].read_text())["alpha"])) == deepest


def test_artifacts_are_idempotent_with_reproducible(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "BANANARAMA")
    out1 = tmp_path / "s1.json"
    out2 = tmp_path / "s2.json"
    run(capsys, "--reproducible", "stats", corpus, "--rmax", "4", "--out", str(out1))
    run(capsys, "--reproducible", "stats", corpus, "--rmax", "4", "--out", str(out2))
    assert out1.read_text() == out2.read_text()
    assert "generated_at" not in out1.read_text()


# sha256 of the --reproducible artifacts of _pinned_corpus().  They hold
# integer counts, IEEE divisions and PCG64 draws only, so they do not
# depend on numpy's SIMD exp and log.
PINNED_SHA256 = {
    "stats9.json":
        "9d42b61b3e4ed36ae59e45b3209eca48a6e5079e09467eb5fad2a0b636072080",
    "stats14.json":
        "40e2623e287b6b9e866b89d41701339d6cbfdf079ff114651e084150114ec641",
    "urn.json":
        "055a3a7705dd612f88b6d4df7e793bf3d826f3924f3a5293a2ff7191206e7291",
    "hatted.json":
        "e4f3cff9288a4a6fb877fc775681255b7490e475d8ef5d24098cd54951cf7c7b",
    "sample.json":
        "201ae1f2f14cc855497416a3f0e52a346b80c54bed672058f4cd3821fc14fadb",
    "simulate-iid4.json":
        "5ffd733191c6c3d8b417b8e7d627c82a3017905a48ec10e71df567aee66fbe7c",
    "simulate-iid26.json":
        "7951c23953c47252155f1010f5c08454f88e823d365514c851710a0443cfcb0e",
    "simulate-markov4.json":
        "fc811ba6caba079e8168ff4662d5d0bc0bbf62cf2b086f4bc5e22ebf05eeba2a",
}


# Languages of the pinned simulate reports: a power-of-two alphabet, one that
# is not, and a chain.
_PINNED_LANGUAGES = {
    "simulate-iid4": {"c": 4, "probs": [0.55, 0.25, 0.15, 0.05]},
    "simulate-iid26": {"c": 26},
    "simulate-markov4": {"c": 4, "kind": "markov-1", "transition": [
        [0.7, 0.1, 0.1, 0.1], [0.1, 0.7, 0.1, 0.1], [0.1, 0.1, 0.7, 0.1], [0.25, 0.25, 0.25, 0.25],
    ]},
}


def _pinned_corpus() -> str:
    """600 words drawn by a fixed linear congruential generator."""
    words = ("THE", "OF", "AND", "TO", "IN", "THAT", "IS", "WAS", "HE", "FOR", "IT", "WITH",
             "AS", "HIS", "ON", "BE", "AT", "BY", "NOT", "WEATHER", "REPORT", "NOTHING")
    state, text = 2026, []
    for _ in range(600):
        state = (state * 1103515245 + 12345) % 2**31
        text.append(words[(state >> 16) % len(words)])
    return " ".join(text)


def test_reproducible_artifacts_keep_their_bytes(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", _pinned_corpus())
    commands = {
        "stats9.json": ["stats", corpus, "--rmax", "9"],
        "stats14.json": ["stats", corpus, "--rmax", "14"],  # past a key's 12 symbols at c = 26
        "urn.json": ["urn", "--from-stats", str(tmp_path / "stats9.json")],
        "hatted.json": ["urn", "--hatted"],
        "sample.json": ["sample", "--urn", str(tmp_path / "urn.json"),
                        "--overlap", "60", "--count", "40", "--seed", "11"],
    }
    for name, language in _PINNED_LANGUAGES.items():
        config = write(tmp_path, f"{name}-config.json", json.dumps({
            "language": language, "corpus_size": 5_000, "n_pairs": 3_001, "overlap": 30,
            "msg_len": 37, "fraction_right": 0.4, "seed": 15, "r_max": 8,
        }))
        commands[f"{name}.json"] = ["simulate", "--config", config]
    digests = {}
    for name, argv in commands.items():
        out = tmp_path / name
        assert run(capsys, "--reproducible", *argv, "--out", str(out))[0] == 0
        digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert digests == PINNED_SHA256


def test_artifact_to_stdout_without_out_flag(tmp_path, capsys):
    corpus = write(tmp_path, "corpus.txt", "ABCAB")
    code, stdout, err = run(capsys, "--reproducible", "stats", corpus, "--rmax", "3")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["N"] == 5
    assert "M_r" in err or "r" in err


def test_stats_over_multiple_decode_files(tmp_path, capsys):
    first = write(tmp_path, "one.txt", "ABC")
    second = write(tmp_path, "two.txt", "AB")
    out = tmp_path / "stats.json"
    code, _, _ = run(capsys, "stats", first, second, "--rmax", "3", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["N"] == 5
    assert doc["M"] == [2, 1, 0]


def test_score_in_decibans(tmp_path, capsys):
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--out", str(urn))
    out = tmp_path / "score.json"
    code, _, _ = run(capsys, "score", "--urn", str(urn), "--figure", "XOXO",
                     "--prior-log-odds", "3.0", "--unit", "db", "--out", str(out))
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["unit"] == "db"
    assert abs(doc["log_odds"] - 3.0) < 1e-9
    # 3 db of odds: posterior = q/(1+q) with q = 10**0.3.
    assert abs(doc["posterior"] - 10**0.3 / (1 + 10**0.3)) < 1e-9


def test_usage_error_exit_code(capsys):
    assert main(["frobnicate"]) == 2
    assert main(["urn"]) == 2
    assert main(["sample", "--urn", "x.json", "--overlap", "5",
                 "--count", "1", "--seed", "-3"]) == 2


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "stats", str(tmp_path / "nope.txt"))
    assert code == 3


# One valid document of each kind, and the commands that read it.
FUZZ_DOCS = {
    "stats": {"N": 5, "c": 26, "r_max": 4, "M": [2, 1, 0, 0], "Nr": [0, 1], "total_cards": 8},
    "urn": {"c": 4, "alpha": {"1": 0.1, "2": 0.05}, "A": 0.85},
    "config": {
        "language": {"c": 4, "kind": "iid-skewed", "probs": [0.55, 0.25, 0.15, 0.05]},
        "corpus_size": 200, "n_pairs": 20, "overlap": 5, "fraction_right": 0.5, "seed": 1,
        "msg_len": 8, "r_max": 6, "n_decodes": 3, "bin_width": 1.0, "urn": "from-corpus",
        "smoothing": "auto",
    },
    "markov": {
        "language": {"c": 2, "kind": "markov-1", "transition": [[0.9, 0.1], [0.3, 0.7]]},
        "corpus_size": 200, "n_pairs": 20, "overlap": 5, "fraction_right": 0.5, "seed": 1,
    },
}
FUZZ_COMMANDS = {
    "stats": [["urn", "--from-stats", "{}"]],
    "urn": [["score", "--urn", "{}", "--figure", "XO"],
            ["sample", "--urn", "{}", "--overlap", "5", "--count", "2", "--seed", "1"]],
    "config": [["simulate", "--config", "{}"]],
    "markov": [["simulate", "--config", "{}"]],
}
FUZZ_FIELDS = [(kind, (name,)) for kind, doc in FUZZ_DOCS.items() for name in doc] + [
    (kind, ("language", name)) for kind in ("config", "markov")
    for name in FUZZ_DOCS[kind]["language"]
]
# Integers either small enough to be sizes a test can afford or outside int64.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 40) | st.floats() | st.text(max_size=4)
    | st.sampled_from([2**63, -(2**63) - 1, 10**309, 10**400, "auto", "hatted", "markov-1"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@settings(max_examples=300)
@given(
    field=st.sampled_from(FUZZ_FIELDS),
    action=st.sampled_from(["set", "drop", "add"]),
    value=JSON_VALUES,
)
@example(field=("urn", ("A",)), action="set", value=math.nan)
@example(field=("urn", ("c",)), action="set", value=10**400)
@example(field=("config", ("fraction_right",)), action="set", value=0.01)
def test_fuzzed_artifact_and_config_fields_never_escape_or_print_nan(
    tmp_path_factory, field, action, value
):
    kind, path = field
    doc = json.loads(json.dumps(FUZZ_DOCS[kind]))
    parent = doc if len(path) == 1 else doc[path[0]]
    if action == "set":
        parent[path[-1]] = value
    elif action == "drop":
        del parent[path[-1]]
    else:
        parent["unknown_field"] = value
    target = tmp_path_factory.mktemp("fuzz") / f"{kind}.json"
    target.write_text(json.dumps(doc))
    for command in FUZZ_COMMANDS[kind]:
        argv = [str(target) if arg == "{}" else arg for arg in command]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 3, 4), (argv, doc, err.getvalue())
        if code == 0:
            assert "NaN" not in out.getvalue() and "Infinity" not in out.getvalue(), doc


def test_negative_float_flags_read_as_their_equals_form(tmp_path, capsys):
    # argparse itself reads only plain negatives such as -2.5 as a value.
    urn = tmp_path / "urn.json"
    run(capsys, "urn", "--hatted", "--out", str(urn))

    def score(*prior):
        out = tmp_path / "score.json"
        code, _, err = run(capsys, "--reproducible", "score", "--urn", str(urn),
                           "--figure", "XXOXO", *prior, "--out", str(out))
        return code, err, out.read_text() if code == 0 else None

    for value in ("-1e5", "-1E+5", "-2.5", "-.5"):
        code, _, text = score("--prior-log-odds", value)
        assert code == 0 and text == score(f"--prior-log-odds={value}")[2], value
        assert json.loads(text)["prior_log_odds"] == float(value)
    for value in ("-inf", "-Infinity"):
        code, err, _ = score("--prior-log-odds", value)
        assert code == 3 and "finite" in err, value
    code, err, _ = score("--smoothing-floor", "-1e-3")
    assert code == 3 and "smoothing floor" in err


# Each command's fixed arguments, with "{name}" for an input file, and its
# numeric flags.
FLAG_COMMANDS = {
    "stats": (["stats", "{corpus}"], ["--rmax"]),
    "urn": (["urn", "--hatted"], ["--alphabet-size", "--rmax"]),
    "score": (["score", "--urn", "{urn}", "--a", "{a}", "--b", "{b}", "--alphabet", "ABCD"],
              ["--shift", "--prior-log-odds", "--smoothing-floor"]),
    "score figure": (["score", "--urn", "{urn}", "--figure", "XXXXXXXOXO"],
                     ["--prior-log-odds", "--smoothing-floor"]),
    "sample": (["sample", "--urn", "{urn}"], ["--overlap", "--count", "--seed"]),
}
FLAG_INPUTS = {"corpus": "ABRACADABRA" * 3, "urn": json.dumps(FUZZ_DOCS["urn"]),
               "a": "ABCDABCDABCD", "b": "ABDDABCAABCD"}
# Small sizes, proportions, edges and values far past int64, the float range
# or memory; None leaves the flag out.
FLAG_VALUES = st.none() | st.integers(-3, 40) | st.floats(0, 1) | st.floats() | st.sampled_from(
    [0, -1, 2**31, 2**62, 2**63, -(2**63), 10**400, math.nan, math.inf, -math.inf, 1e308, -1e308])


def _small(r_max=1, overlap=1, count=1, **_):
    # Sizes below 1 are rejected before any work; others must be small.
    return min(r_max, overlap, count) < 1 or max(r_max, overlap, count) <= 40


@settings(max_examples=300)
@given(command=st.sampled_from(sorted(FLAG_COMMANDS)), data=st.data())
@example(command="score figure", data=None)
def test_fuzzed_numeric_flags_never_escape_or_print_nan(tmp_path_factory, command, data):
    fixed, flags = FLAG_COMMANDS[command]
    values = [math.inf] * len(flags) if data is None else [data.draw(FLAG_VALUES) for _ in flags]
    folder = tmp_path_factory.mktemp("flags")
    for name, text in FLAG_INPUTS.items():
        (folder / name).write_text(text)
    out = folder / "artifact.json"
    # --flag=value; test_negative_float_flags_read_as_their_equals_form checks
    # the separate form.
    argv = ([str(folder / arg[1:-1]) if arg.startswith("{") else arg for arg in fixed]
            + [f"{flag}={value!r}" for flag, value in zip(flags, values) if value is not None]
            + ["--out", str(out)])

    def only_small(real):
        # A size past the 64 MB below must be rejected before the heavy call.
        def call(*args, **kwargs):
            assert _small(**kwargs), kwargs
            return real(*args, **kwargs)
        return call

    stderr = io.StringIO()
    with mock.patch.object(repfit.cli, "_physical_memory", lambda: 1 << 26), \
            mock.patch.object(repfit.cli, "compute_statistics",
                              only_small(repfit.cli.compute_statistics)), \
            mock.patch.object(repfit.cli, "sample_figures", only_small(repfit.cli.sample_figures)), \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4), (argv, stderr.getvalue())
    if code == 0:
        text = out.read_text()
        assert "NaN" not in text and "Infinity" not in text, argv
