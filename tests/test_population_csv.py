"""The columnar CSV codec against the row-by-row codec it replaced.

``load_rows_reference`` and ``save_rows_reference`` are the loader and the
``csv.writer`` writer as they were before the codec became columnar.  The
reader must give the reference's population, or its exact ParseError text
and line, on any text, read from a path or from a binary file object; the
writer must give the reference's bytes.
"""

import csv
import io
import os
import threading
import warnings
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from throttleplan import (
    ParseError,
    Population,
    generate_codec_uniform,
    generate_lognormal,
    load_population,
    save_population,
)


def load_rows_reference(path) -> Population:
    ids, rates, activities, lines = array("q"), array("d"), array("d"), array("q")
    tiers = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("empty file", line=1) from None
        if [h.strip() for h in header] != ["id", "rate", "activity", "tier"]:
            raise ParseError(f"expected header id,rate,activity,tier, got {','.join(header)}", line=1)
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 4:
                raise ParseError(f"expected 4 columns, got {len(row)}", line=lineno)
            try:
                ids.append(int(row[0]))
                rates.append(float(row[1]))
                activities.append(float(row[2]))
                tiers.append(int(row[3]) if row[3].strip() else None)
                lines.append(lineno)
            except ValueError as exc:
                raise ParseError(str(exc), line=lineno) from None
            except OverflowError:
                raise ParseError(f"id {row[0].strip()} does not fit in int64", line=lineno) from None
    line_of = lines.__getitem__ if lines else lambda row: 2
    return Population._from_columns(ids, rates, activities, tiers, line_of=line_of)


def save_rows_reference(pop: Population, path) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["id", "rate", "activity", "tier"])
        writer.writerows(
            zip(pop.ids.tolist(), pop.rates.tolist(), pop.activities.tolist(), pop.tiers()))


def outcome(load, path):
    """The loaded population, or the error's type, text and line."""
    try:
        return load(path)
    except Exception as exc:  # every failure is compared, not only ParseError
        return type(exc), str(exc), getattr(exc, "line", None)


def assert_same_load(tmp_path, text: str):
    path = tmp_path / "pop.csv"
    with open(path, "w", newline="") as fh:  # keep the text's line ends as drawn
        fh.write(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = outcome(load_population, path)
        from_bytes = outcome(lambda p: load_population(io.BytesIO(p.read_bytes())), path)
    assert got == outcome(load_rows_reference, path), text
    assert from_bytes == got, text  # a binary file object reads as its path does


# "\x1c5" and "२" are ones numpy alone reads (as 5 and as 2360)
INT_ODD = ["+7", "007", "-3", " 5 ", "\t6", "1_0", "5.0", "1e3", "", " ", "abc", "٣", "\x1c5", "२",
           '"12"', '"1,2"', "9223372036854775807", "9223372036854775808",
           "-9223372036854775809", "99999999999999999999999"]
FLOAT_ODD = ["0.5", " 2.5 ", ".5", "5.", "1e-3", "1E+2", "1_0", "inf", "-inf", "Infinity", "nan",
             "-1", "0", "-0.0", "1e500", "1e-400", "5e-324", "1.5d0", "0x1p-2", "", "x", "0.5\x1f",
             '"0.75"', '"1,5"', "٣", "1.0000001"]
TIER_ODD = ["", "0", "2", " 1 ", "-1", "1_0", "5.0", "a", " ", "\t", '"3"', '""',
            "9223372036854775808"]
HEADERS = ["id,rate,activity,tier", " id , rate ,activity,tier ", '"id","rate","activity","tier"',
           "id,rate,act", "id,rate,activity,tier,extra", "rate,id,activity,tier"]


@st.composite
def csv_rows(draw, k):
    """One data line: mostly a valid row, sometimes an odd field or an odd shape."""
    odd = draw(st.integers(0, 9)) == 0
    ident = draw(st.sampled_from(INT_ODD)) if odd else str(k + draw(st.sampled_from([0, 0, 0, -1])))
    rate = draw(st.one_of(
        st.sampled_from(FLOAT_ODD),
        st.floats(1e-300, 1e300).map(repr),
        st.sampled_from(["0.2", "0.4", "1.0"])))
    activity = draw(st.one_of(st.sampled_from(["1.0", "0.25", "0.01"]),
                              st.floats(1e-9, 1.0).map(repr), st.sampled_from(FLOAT_ODD)))
    tier = draw(st.sampled_from(["", "", "0", "1"] + (TIER_ODD if odd else [])))
    fields = [ident, rate, activity, tier]
    if draw(st.integers(0, 19)) == 0:
        fields = [f'"{f}"' for f in fields]
    shape = draw(st.integers(0, 39))
    if shape == 0:
        fields = fields[:3]
    elif shape == 1:
        fields.append(draw(st.sampled_from(["", "x", "1"])))
    return ",".join(fields)


@st.composite
def csv_texts(draw):
    n = draw(st.integers(0, 12))
    lines = [draw(st.sampled_from(HEADERS)) if draw(st.integers(0, 9)) == 0 else HEADERS[0]]
    for k in range(n):
        lines.append(draw(st.one_of(csv_rows(k), st.sampled_from(["", " ", "\t", "  \t "])))
                     if draw(st.integers(0, 5)) == 0 else draw(csv_rows(k)))
    end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    text = end.join(lines) + draw(st.sampled_from([end, "", end + end]))
    return "" if draw(st.integers(0, 49)) == 0 else text


@settings(max_examples=400, deadline=None)
@given(csv_texts())
def test_reader_matches_the_row_reference(tmp_path_factory, text):
    assert_same_load(tmp_path_factory.mktemp("csv"), text)


@pytest.mark.parametrize("text", [
    "id,rate,activity,tier\n",
    "id,rate,activity,tier\n\n  \n\t\n",
    "id,rate,activity,tier\r\n\r\n",
    "",
])
def test_file_without_rows_raises_the_reference_error_and_no_warning(tmp_path, text):
    assert_same_load(tmp_path, text)
    path = tmp_path / "pop.csv"
    with pytest.raises(ParseError) as exc:
        load_population(path)
    assert exc.value.line == (1 if text == "" else 2)


@pytest.mark.parametrize("text", [
    "id,rate,activity,tier\n1_0,0.5,1.0,\n2,0.25,1.0,1\n",  # digits numpy refuses
    "id,rate,activity,tier\n0,0.5,1.0,\n  \n1,0.25,1.0,\n",  # a whitespace-only line
    "id,rate,activity,tier\r0,0.5,1.0,\r1,0.25,1.0,\r",  # lone carriage returns
])
def test_valid_files_numpy_refuses_load_as_before(tmp_path, text):
    assert_same_load(tmp_path, text)
    assert len(load_population(tmp_path / "pop.csv")) == 2


@pytest.mark.parametrize("field", ["\x1c5", "5\x1d", "२", "1२"])
@pytest.mark.parametrize("column", [0, 1])
def test_characters_numpy_reads_differently_give_the_reference_outcome(tmp_path, field, column):
    # numpy strips 0x1c-0x1f as whitespace and reads "२" (DEVANAGARI TWO) as 2360
    row = [field, "0.5", "1.0", ""] if column == 0 else ["1", field, "1.0", ""]
    assert_same_load(tmp_path, "id,rate,activity,tier\n" + ",".join(row) + "\n")


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_file_from_a_pipe_loads_as_before(tmp_path):
    text = "id,rate,activity,tier\n0,0.5,1.0,\n1,0.25,1.0,2\n"
    fifo = tmp_path / "pop.fifo"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    pop = load_population(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    (tmp_path / "pop.csv").write_text(text)
    assert pop == load_rows_reference(tmp_path / "pop.csv")


def tiered(pop: Population, seed: int) -> Population:
    rng = np.random.default_rng(seed)
    draws = rng.integers(-1, 3, size=len(pop)).tolist()
    return pop.with_tiers([None if t < 0 else t for t in draws])


@pytest.mark.parametrize("n", [65_535, 65_536, 65_537])
@pytest.mark.parametrize("distinct", ["few", "many"])
@pytest.mark.parametrize("with_tiers", [False, True])
def test_writer_matches_the_csv_writer_bytes(tmp_path, n, distinct, with_tiers):
    if distinct == "few":
        pop = generate_codec_uniform(n, (0.2, 0.4, 0.6, 0.8, 1.0), seed=n)
    else:
        pop = generate_lognormal(n, 0.0, 0.5, activity=0.37, seed=n)
    if with_tiers:
        pop = tiered(pop, n)
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    save_population(pop, ours)
    save_rows_reference(pop, theirs)
    assert ours.read_bytes() == theirs.read_bytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(5e-324, 1e300), st.floats(5e-324, 1.0),
                          st.one_of(st.none(), st.integers(0, 2**63 - 1))),
                min_size=1, max_size=30))
def test_writer_matches_the_csv_writer_on_drawn_columns(tmp_path_factory, rows):
    rates, activities, tiers = (list(c) for c in zip(*rows))
    pop = Population._from_columns(np.arange(len(rows)) - 3, rates, activities, tiers)
    tmp = tmp_path_factory.mktemp("csv")
    save_population(pop, tmp / "ours.csv")
    save_rows_reference(pop, tmp / "theirs.csv")
    assert (tmp / "ours.csv").read_bytes() == (tmp / "theirs.csv").read_bytes()
