import dataclasses
import pickle
import random

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repfit.errors import EmptyComparisonError, FigureParseError, ValidationError
from repfit.figures import (
    RepetitionFigure,
    figure_from_comparison,
    parse_figure,
    run_spectrum,
)
from repfit.scoring import right_relevant_proportion, wrong_relevant_proportion
from repfit.urn import hatted_urn

from oracles import (
    Alignment,
    comparison_oracle,
    draws_needed,
    groupby_spectrum,
    parse_oracle,
    repeated_letters,
    scan_run_spectrum,
)

figure_strings = st.text(alphabet="XO", max_size=64)


def test_parse_worked_example():
    figure = parse_figure("XXXXOOOOXXOO")
    assert figure.length == 12
    assert repeated_letters(figure) == 6


def test_parse_empty():
    figure = parse_figure("")
    assert figure.length == 0
    assert repeated_letters(figure) == 0


def test_parse_all_o():
    figure = parse_figure("OOOOOOOOOOOO")
    assert figure.length == 12
    assert repeated_letters(figure) == 0


def test_parse_rejects_bad_character_naming_position():
    with pytest.raises(FigureParseError) as exc:
        parse_figure("XXOx")
    assert exc.value.position == 3
    assert "position 3" in str(exc.value)


@given(figure_strings)
def test_serialize_round_trip(text):
    assert parse_figure(text).cells == text


def test_run_spectrum_examples():
    assert run_spectrum(parse_figure("XXXXOOOOXXOO")) == {4: 1, 2: 1}
    assert run_spectrum(parse_figure("OOOO")) == {}
    # Runs touching the figure ends count at their visible length.
    assert run_spectrum(parse_figure("XOX")) == {1: 2}


@given(figure_strings)
def test_spectrum_accounts_for_every_x_cell(text):
    figure = parse_figure(text)
    assert repeated_letters(run_spectrum(figure)) == repeated_letters(figure)


def test_run_spectrum_matches_scan_oracle_on_random_figures():
    rng = random.Random(0xF16)
    for _ in range(10_000):
        text = "".join(rng.choice("XO") for _ in range(rng.randrange(0, 40)))
        assert run_spectrum(parse_figure(text)) == scan_run_spectrum(text)


def test_spectrum_validation():
    # Hand-written spectra enter the program through the two proportions.
    length = "run length must be a positive integer"
    count = "run count for length 2 must be a non-negative integer"
    for spectrum, message in [({0: 1}, length), ({2: -1}, count), ({1.5: 1}, length),
                              ({2: 0.5}, count)]:
        with pytest.raises(ValidationError, match=message):
            right_relevant_proportion(hatted_urn(26), spectrum, 10)
        with pytest.raises(ValidationError, match=message):
            wrong_relevant_proportion(26, spectrum, 10)


def test_comparison_positionwise_equality():
    assert figure_from_comparison("ABCD", "ABXD", 0).cells == "XXOX"


def test_comparison_overlap_105():
    # Message lengths 200 and 250 at shift -145 align 105 positions.
    a = ["a"] * 200
    b = ["b"] * 250
    assert figure_from_comparison(a, b, -145).length == 105
    assert Alignment(-145).overlap(200, 250) == 105


def test_comparison_boundary_single_cell():
    assert figure_from_comparison("AAA", "AAA", 2).cells == "X"


def test_comparison_zero_overlap_rejected():
    with pytest.raises(EmptyComparisonError):
        figure_from_comparison("AAA", "AAA", 3)
    with pytest.raises(EmptyComparisonError):
        figure_from_comparison("AAA", "AAA", -3)


@given(st.text(alphabet="AB", min_size=1, max_size=20))
def test_comparison_of_text_with_itself_is_all_x(text):
    assert figure_from_comparison(text, text, 0).cells == "X" * len(text)


@given(
    st.text(alphabet="ABC", min_size=1, max_size=15),
    st.text(alphabet="ABC", min_size=1, max_size=15),
    st.integers(min_value=-14, max_value=14),
)
def test_comparison_shift_symmetry(a, b, shift):
    if Alignment(shift).overlap(len(a), len(b)) < 1:
        return
    assert figure_from_comparison(a, b, shift).cells == figure_from_comparison(b, a, -shift).cells


# Letter codes, with values that wrap when stored as uint8 (-1, 256, 511) so
# that mixed-dtype comparisons see unequal values with equal low bytes.
letter_codes = st.lists(st.sampled_from([0, 1, 2, 3, -1, 255, 256, 511]), min_size=1, max_size=40)


def as_message(kind: str, codes: list[int]):
    if kind == "str":
        return "".join(chr(0x41 + c % 256) for c in codes)
    if kind == "list":
        return list(codes)
    if kind == "bytes":
        return bytes(c % 256 for c in codes)
    return np.array([c % 256 if kind == "uint8" else c for c in codes], dtype=kind)


@given(
    letter_codes,
    letter_codes,
    st.data(),
    st.sampled_from([("str", "str"), ("list", "list"), ("bytes", "bytes"), ("uint8", "int16"),
                     ("int16", "uint8"), ("uint8", "uint8"), ("list", "int16"),
                     ("bytes", "uint8"), ("str", "list")]),
)
def test_comparison_equals_the_pairwise_oracle(a, b, data, kinds):
    x, y = as_message(kinds[0], a), as_message(kinds[1], b)
    # Every shift with overlap >= 1, down to a single cell at either end.
    shift = data.draw(st.integers(min_value=1 - len(b), max_value=len(a) - 1))
    cells = figure_from_comparison(x, y, shift).cells
    assert cells == comparison_oracle(x, y, shift)
    assert len(cells) == Alignment(shift).overlap(len(a), len(b))


def test_comparison_of_python_letters_uses_python_equality():
    # A list mixing str and int letters must not be coerced to strings.
    assert figure_from_comparison(["a", 1, 2, "3"], ["a", "1", 2, 3], 0).cells == "XOXO"
    assert figure_from_comparison("ABC", ["A", "X", "C"], 0).cells == "XOX"
    assert figure_from_comparison([(1, 2), (3, 4)], [(1, 2), (3, 5)], 0).cells == "XO"


@given(st.text(alphabet="XO", max_size=80) | st.text(max_size=40))
def test_run_spectrum_equals_the_groupby_oracle_in_key_order(text):
    spectrum = run_spectrum(RepetitionFigure(text))
    assert list(spectrum.items()) == list(groupby_spectrum(text).items())


# st.text() never draws lone surrogates, so they are fixed cases here, next
# to non-ASCII letters whose UTF-8 bytes are all >= 0x80.
NON_ASCII_CELLS = [
    "XX\ud800X\udfffXXX",
    "\udc58X\ud858XX",
    "X\u00d7XXX\u0158\u5858X\U00010058XX",
    "\ud83d\ude00XX\U0001f600X",
    "\u00d8\u0a58\ud800",
]


@pytest.mark.parametrize("text", NON_ASCII_CELLS)
def test_run_spectrum_of_non_ascii_and_surrogate_cells(text):
    spectrum = run_spectrum(RepetitionFigure(text))
    assert list(spectrum.items()) == list(groupby_spectrum(text).items())
    assert list(spectrum.items()) == list(scan_run_spectrum(text).items())


@pytest.mark.parametrize("text", NON_ASCII_CELLS + ["XO\ud800", "\udfffXO", "XX\u00d7"])
def test_parse_names_the_first_non_ascii_or_surrogate_cell(text):
    with pytest.raises(FigureParseError) as exc:
        parse_oracle(text)
    with pytest.raises(FigureParseError) as got:
        parse_figure(text)
    assert got.value.position == exc.value.position
    assert str(got.value) == str(exc.value)


@given(st.text(alphabet="XOxo 0\n\u00d7", max_size=30) | st.text(max_size=30))
def test_parse_equals_the_per_character_oracle(text):
    try:
        expected = parse_oracle(text)
    except FigureParseError as exc:
        with pytest.raises(FigureParseError) as got:
            parse_figure(text)
        assert got.value.position == exc.position
        assert str(got.value) == str(exc)
    else:
        assert parse_figure(text).cells == expected


def test_alignment_serialization():
    assert Alignment(-145).serialize() == "-145"
    assert Alignment.parse("-145") == Alignment(-145)
    with pytest.raises(ValidationError):
        Alignment.parse("down three")


def test_draws_needed():
    # Overlap 105 with a tetragramme, two bigrammes and fifteen single
    # letters repeating: 105 - 23 + 1.
    spectrum = {4: 1, 2: 2, 1: 15}
    assert repeated_letters(spectrum) == 23
    body = "XXXXO" + "XXO" + "XXO" + "XO" * 15
    figure = parse_figure(body + "O" * (105 - len(body)))
    assert figure.length == 105 and repeated_letters(figure) == 23
    assert draws_needed(figure) == 83

    assert draws_needed(parse_figure("XXXXOOOOXXOO")) == 7
    assert draws_needed(parse_figure("")) == 1


def test_figures_are_immutable():
    figure = parse_figure("XO")
    with pytest.raises(AttributeError):
        figure.cells = "OO"


def test_slotted_figures_replace_pickle_compare_and_hash():
    figure = parse_figure("XXOX")
    assert not hasattr(figure, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        figure.cells = "OO"
    assert dataclasses.replace(figure, cells="OX") == RepetitionFigure("OX")
    assert dataclasses.replace(figure) == figure
    clone = pickle.loads(pickle.dumps(figure))
    assert clone == figure and clone is not figure and clone.cells == "XXOX"
    assert hash(clone) == hash(figure) == hash(RepetitionFigure("XXOX"))
    assert figure != RepetitionFigure("XXOO")
    assert len({figure, clone, parse_figure("XXOX"), parse_figure("O")}) == 2
