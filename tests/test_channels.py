import numpy as np
import pytest

from secwire.errors import ValidationError
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
