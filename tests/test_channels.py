import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire.errors import BudgetError, ValidationError
from secwire.channels import (
    ChannelTriple,
    TransitionMatrix,
    bsc,
    cascade,
    channel_from_rows,
    dump_channel,
    identity_channel,
    load_channel,
    sample,
    validate,
)
from secwire.sequences import Alphabet, SymbolSequence, sequence_from_array


def _random_channel(rng, n_in, n_out):
    rows = rng.random((n_in, n_out)) + 1e-3
    rows /= rows.sum(axis=1, keepdims=True)
    return channel_from_rows(rows)


def test_bsc_rows():
    ch = bsc(0.1)
    assert np.allclose(ch.rows, [[0.9, 0.1], [0.1, 0.9]])
    with pytest.raises(ValidationError):
        bsc(1.5)


def test_validate_reports_row_and_residual():
    msg = validate([[0.5, 0.6], [0.5, 0.5]])
    assert msg is not None and msg.startswith("row 0")
    assert validate([[0.5, 0.5], [0.0, 1.0]]) is None
    assert validate([[0.5, -0.1, 0.6]]) is not None


def test_validate_messages_print_plain_numbers():
    assert validate([[0.5, 0.5], [1.5, -0.5]]) == "row 1: entry 1.5 outside [0, 1]"
    assert validate(np.array([[-0.25, 1.25]])) == "row 0: entry -0.25 outside [0, 1]"


def test_cascade_rounding_to_one_plus_ulp_is_accepted():
    # row-stochastic in exact arithmetic; the cascade's entry (0, 0) rounds to 1 + 2^-52
    main = channel_from_rows([[0.28806230906384017, 0.28883473413812755, 0.4231029567980324], [0.5, 0.25, 0.25]])
    triple = ChannelTriple(main, channel_from_rows([[1.0, 0.0]] * 3))
    assert triple.cascade.rows[0, 0] == 1.0 + 2.0 ** -52
    assert validate([[1.0 + 2e-12, 0.0]]) == "row 0: entry 1.000000000002 outside [0, 1]"


def test_construction_rejects_bad_rows():
    with pytest.raises(ValidationError):
        channel_from_rows([[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(ValidationError):
        TransitionMatrix(Alphabet(2), Alphabet(3), np.eye(2))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_validate_rejects_non_finite_entries(bad):
    msg = validate([[0.5, 0.5], [bad, 0.5]])
    assert msg is not None and msg.startswith("row 1: non-finite")
    with pytest.raises(ValidationError):
        channel_from_rows([[bad, 0.5], [0.5, 0.5]])


def test_rows_are_read_only():
    ch = bsc(0.2)
    with pytest.raises(ValueError):
        ch.rows[0, 0] = 0.0


def test_renormalized():
    ch = channel_from_rows([[0.5, 0.5], [0.25, 0.75]])
    again = ch.renormalized()
    assert np.allclose(again.rows, ch.rows)


def test_writable_rows_are_copied():
    rows = np.array([[0.5, 0.5], [0.25, 0.75]])
    ch = TransitionMatrix(Alphabet(2), Alphabet(2), rows)
    rows[0] = [1.0, 0.0]
    assert ch.rows.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    # a read-only view of a writable array can still change through that array
    base = np.array([[0.5, 0.5], [0.25, 0.75]])
    view = base.view()
    view.setflags(write=False)
    ch = TransitionMatrix(Alphabet(2), Alphabet(2), view)
    base[0] = [1.0, 0.0]
    assert ch.rows.tolist() == [[0.5, 0.5], [0.25, 0.75]]
    assert not ch.rows.flags.writeable


def test_read_only_rows_are_kept():
    frozen = np.array([[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]])
    frozen.setflags(write=False)
    ch = TransitionMatrix(Alphabet(3), Alphabet(2), frozen.reshape(3, 2))
    assert np.shares_memory(ch.rows, frozen)
    # other layouts and dtypes are copied, as before
    assert not np.shares_memory(channel_from_rows(frozen[::2]).rows, frozen)
    assert channel_from_rows(np.array([[1, 0], [0, 1]])).rows.dtype == np.float64
    again = ch.renormalized()
    assert again.rows.tolist() == ch.rows.tolist() and not again.rows.flags.writeable


def test_cascade_of_bscs_is_bsc():
    # crossover of the composition is p1 + p2 - 2 p1 p2
    rng = np.random.default_rng(8)
    for _ in range(25):
        p1, p2 = rng.random(2) * 0.5
        comp = cascade(bsc(p1), bsc(p2))
        q = p1 + p2 - 2 * p1 * p2
        assert np.allclose(comp.rows, bsc(q).rows)


def test_cascade_shape_mismatch():
    with pytest.raises(ValidationError):
        cascade(channel_from_rows(np.full((2, 3), 1 / 3)), bsc(0.1))


def test_triple_cascade_is_product():
    rng = np.random.default_rng(5)
    main = _random_channel(rng, 3, 4)
    wire = _random_channel(rng, 4, 2)
    triple = ChannelTriple(main, wire)
    assert np.allclose(triple.cascade.rows, main.rows @ wire.rows)
    assert triple.cascade.in_alphabet.size == 3
    assert triple.cascade.out_alphabet.size == 2


def test_sample_deterministic_and_unbiased():
    ch = bsc(0.3)
    x = sequence_from_array(np.zeros(20000, dtype=int), 2)
    y1 = sample(ch, x, 123)
    y2 = sample(ch, x, 123)
    assert y1.data == y2.data
    flips = sum(y1.data) / len(y1)
    assert abs(flips - 0.3) < 0.012  # ~3.7 sigma at 20000 draws
    y3 = sample(ch, x, 124)
    assert y3.data != y1.data


def test_sample_alphabet_check():
    ch = bsc(0.1)
    x = SymbolSequence(Alphabet(3), (0, 1, 2))
    with pytest.raises(ValidationError):
        sample(ch, x, 1)


def test_identity_channel_passthrough():
    ch = identity_channel(4)
    x = SymbolSequence(Alphabet(4), (3, 0, 2, 1, 1))
    assert sample(ch, x, 9).data == x.data


def test_load_dump_round_trip(tmp_path):
    rng = np.random.default_rng(31)
    for trial in range(10):
        ch = _random_channel(rng, int(rng.integers(2, 5)), int(rng.integers(2, 5)))
        path = tmp_path / f"c{trial}.ch"
        dump_channel(ch, path)
        back = load_channel(path)
        assert np.array_equal(back.rows, ch.rows)


@st.composite
def _stochastic_rows(draw):
    n_in, n_out = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    weights = draw(st.lists(st.lists(st.floats(0.0, 1.0), min_size=n_out, max_size=n_out), min_size=n_in, max_size=n_in))
    # an offset of 0 keeps zero entries; an all-zero row becomes a point mass
    rows = np.array(weights) + draw(st.sampled_from([0.0, 1e-300, 1.0]))
    rows[rows.sum(axis=1) == 0.0, 0] = 1.0
    return rows / rows.sum(axis=1, keepdims=True)


@settings(max_examples=150, deadline=None)
@given(_stochastic_rows())
def test_load_dump_round_trip_property(tmp_path_factory, rows):
    ch = channel_from_rows(rows)
    path = tmp_path_factory.getbasetemp() / "round-trip.ch"
    dump_channel(ch, path)
    assert np.array_equal(load_channel(path).rows, ch.rows)


# Lines of channel files: whole rows, so that some files load, or tokens:
# the header word, integers, floats and non-finite values, and comments. A
# header of small sizes comes first in one of three draws; raw bytes cover
# bytes that are not UTF-8.
_channel_token = st.sampled_from(
    [b"channel", b"0", b"1", b"2", b"-1", b"0.5", b"0.75", b"1e999", b"nan", b"-inf", b"-0.0", b"1e-320",
     b"99999999999999999999", b"0x1", b"1_0", b".", b"#", "\u0663".encode(), "\xa0".encode()]
)
_channel_line = st.one_of(
    st.sampled_from([b"0.5 0.5", b"1 0", b"0.25\t0.75", b"1.0", b"0.5 0.25 0.25", b"channel 1 1", b"channel 2 3"]),
    st.tuples(st.lists(_channel_token, min_size=1, max_size=4), st.sampled_from([b" ", b"\t", b"\x1c"])).map(
        lambda t: t[1].join(t[0])
    ),
)
_channel_lines = st.lists(_channel_line, max_size=5).map(b"\r\n".join)


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.binary(max_size=60), _channel_lines, _channel_lines.map(lambda b: b"channel 2 2\n" + b)))
def test_load_channel_fuzz(tmp_path_factory, data):
    # a loaded file is a valid channel; every other file raises one of the two errors
    path = tmp_path_factory.getbasetemp() / "fuzz.ch"
    path.write_bytes(data)
    try:
        ch = load_channel(path)
    except (ValidationError, BudgetError):
        return
    assert validate(ch) is None


def test_load_rejects_bad_files(tmp_path):
    cases = {
        "empty": "",
        "noheader": "0.5 0.5\n",
        "rows": "channel 2 2\n0.5 0.5\n",
        "width": "channel 2 2\n0.5 0.5\n0.1 0.2 0.7\n",
        "token": "channel 2 2\n0.5 0.5\nx 1.0\n",
        "sum": "channel 2 2\n0.5 0.5\n0.6 0.6\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.ch"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_channel(path)
        assert str(path) in str(err.value)
