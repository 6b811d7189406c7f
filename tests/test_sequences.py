import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire.errors import ValidationError
from secwire.sequences import (
    Alphabet,
    SymbolSequence,
    _single_digit_bytes,
    dump_sequence,
    load_sequence,
    pack_symbols,
    sequence_from_array,
    symbol_width,
    unpack_symbols,
)


def test_alphabet_validation():
    assert Alphabet(2).size == 2
    assert Alphabet(1).size == 1
    with pytest.raises(ValidationError):
        Alphabet(0)
    with pytest.raises(ValidationError):
        Alphabet(2.0)


def test_symbol_sequence_basics():
    u = SymbolSequence(Alphabet(3), (0, 2, 1, 2))
    assert len(u) == 4
    assert u[1] == 2
    assert list(u) == [0, 2, 1, 2]
    assert u.prefix(2).data == (0, 2)
    assert np.array_equal(u.array(), np.array([0, 2, 1, 2]))


def test_symbol_out_of_range_rejected():
    with pytest.raises(ValidationError):
        SymbolSequence(Alphabet(2), (0, 1, 2))
    with pytest.raises(ValidationError):
        SymbolSequence(Alphabet(2), (0, -1))


def test_sequence_from_array():
    u = sequence_from_array(np.array([1, 0, 1]), 2)
    assert u.data == (1, 0, 1)


def test_load_dump_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    for trial in range(20):
        size = int(rng.integers(2, 6))
        n = int(rng.integers(1, 200))
        u = sequence_from_array(rng.integers(0, size, n), size)
        path = tmp_path / f"t{trial}.seq"
        dump_sequence(u, path)
        v = load_sequence(path)
        assert v.data == u.data
        assert v.alphabet.size == size


def test_load_rejects_bad_files(tmp_path):
    cases = {
        "empty": "",
        "noheader": "0 1 0\n",
        "badsize": "alphabet zero\n0\n",
        "badtoken": "alphabet 2\n0 x 1\n",
        "range": "alphabet 2\n0 3\n",
        "negative": "alphabet 2\n0 -1\n",
    }
    for name, text in cases.items():
        path = tmp_path / f"{name}.seq"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_sequence(path)
        assert str(path) in str(err.value)


# The loader contract: each file gives these values, or this ValidationError
# message after "<path>: ", whichever path (bulk or token loop) reads its body.
LOADER_CASES = {
    "22-digit token": (
        "alphabet 10000000000000000000001\n1234567890123456789012 0\n",
        (1234567890123456789012, 0),
    ),
    "22-digit token out of range": (
        "alphabet 2\n0 1234567890123456789012\n",
        "symbol 1234567890123456789012 outside alphabet of size 2",
    ),
    "leading zeros": ("alphabet 10\n007 0 09\n", (7, 0, 9)),
    "plus sign": ("alphabet 2\n0 +1\n", (0, 1)),
    "minus sign": ("alphabet 2\n0 -1\n", "symbol -1 outside alphabet of size 2"),
    "decimal point": ("alphabet 2\n0 1.0\n", "symbol '1.0' is not an integer"),
    "non-ASCII digit": ("alphabet 4\n0 ٣ 1\n", (0, 3, 1)),
    "tab, CRLF and \\x1c separators": ("alphabet 3\r\n0\t1\r\n2\x1c1\x0b0\x0c2\n", (0, 1, 2, 1, 0, 2)),
    "header only": ("alphabet 2\n", ()),
    "header only, trailing blank lines": ("alphabet 2\n\n  \n", ()),
    "symbol on the header line": ("alphabet 2 1 0\n1\n", (1, 0, 1)),
    "first bad symbol is named": ("alphabet 3\n0 1 2 5 7 1\n", "symbol 5 outside alphabet of size 3"),
    "bad size": ("alphabet 0\n0 1\n", "alphabet size must be a positive integer, got 0"),
    "non-integer before range": ("alphabet 0\n0 x\n", "symbol 'x' is not an integer"),
}


@pytest.mark.parametrize("name", sorted(LOADER_CASES))
def test_loader_contract(tmp_path, name):
    text, expected = LOADER_CASES[name]
    path = tmp_path / "case.seq"
    path.write_bytes(text.encode("utf-8"))
    if isinstance(expected, tuple):
        u = load_sequence(path)
        assert u.data == expected
        assert all(type(s) is int for s in u.data)
    else:
        with pytest.raises(ValidationError) as err:
            load_sequence(path)
        assert str(err.value) == f"{path}: {expected}"


def _token_loop(text):
    """The plain reading of a sequence file: every token after the header through int()."""
    tokens = text.split()
    return int(tokens[1]), tuple(int(t) for t in tokens[2:])


def test_load_long_file_matches_token_loop(tmp_path):
    rng = np.random.default_rng(3)
    symbols = rng.integers(0, 7, 100_000)
    seps = rng.choice([" ", "  ", "\n", "\t", "\r\n"], size=symbols.size)
    text = "alphabet 7\n" + "".join(f"{s}{sep}" for s, sep in zip(symbols.tolist(), seps.tolist()))
    path = tmp_path / "long.seq"
    path.write_bytes(text.encode("utf-8"))
    u = load_sequence(path)
    assert (u.alphabet.size, u.data) == _token_loop(text)


def test_load_rejects_non_utf8(tmp_path):
    path = tmp_path / "bad.seq"
    path.write_bytes(b"alphabet 2\n0 1 \xff\xfe 1\n")
    with pytest.raises(ValidationError) as err:
        load_sequence(path)
    assert str(path) in str(err.value)


def test_symbol_sequence_from_int_array():
    u = SymbolSequence(Alphabet(3), np.array([0, 2, 1], dtype=np.uint8))
    assert u.data == (0, 2, 1) and all(type(s) is int for s in u.data)
    assert SymbolSequence(Alphabet(2), np.array([], dtype=np.int64)).data == ()
    with pytest.raises(ValidationError, match="symbol 5 outside alphabet of size 3"):
        SymbolSequence(Alphabet(3), np.array([0, 5, -1, 7]))
    with pytest.raises(ValidationError, match="symbol -1 outside alphabet of size 3"):
        SymbolSequence(Alphabet(3), (0, 1, -1, 5))
    # a float array is rejected, not truncated to (1, 0)
    with pytest.raises(ValidationError, match="is not an integer"):
        SymbolSequence(Alphabet(2), np.array([1.7, 0.2]))


@pytest.mark.parametrize(
    "symbols, message",
    [
        ((0.7, 1.2), "symbol 0.7 is not an integer"),
        ([0, 1.0], "symbol 1.0 is not an integer"),
        (np.array([0.5, 1.9]), "is not an integer"),
        ((0, float("nan")), "symbol nan is not an integer"),
        (np.array([0.0, np.nan]), "is not an integer"),
        (("0", "1"), "symbol '0' is not an integer"),
        (np.array([[0, 1], [1, 0]]), "symbols must form a 1-D array, got 2-D"),
        (np.array(1), "symbols must form a 1-D array, got 0-D"),
    ],
)
def test_symbol_sequence_rejects_non_integer_symbols(symbols, message):
    with pytest.raises(ValidationError, match=re.escape(message)):
        SymbolSequence(Alphabet(2), symbols)


def test_symbol_sequence_accepts_integer_types():
    u = SymbolSequence(Alphabet(3), [np.int64(2), np.uint8(1), True, 0])
    assert u.data == (2, 1, 1, 0) and all(type(s) is int for s in u.data)
    assert SymbolSequence(Alphabet(3), np.array([2, 1], dtype=object)).data == (2, 1)


@pytest.mark.parametrize("size", [1, 2, 256, 257, 2 ** 16, 2 ** 16 + 1, 2 ** 32 + 1, 2 ** 64, 2 ** 64 + 1, 3 ** 50])
def test_packed_symbols_round_trip(size):
    width = symbol_width(size)
    assert width in (1, 2, 4, 8, 16) and size - 1 < 256 ** width
    symbols = (0, size - 1, (size - 1) // 2, 0)
    u = SymbolSequence(Alphabet(size), symbols)
    assert len(u.packed()) == len(symbols) * width
    assert u.packed()[:width] == (0).to_bytes(width, "big")
    assert u.packed()[width : 2 * width] == (size - 1).to_bytes(width, "big")
    assert tuple(unpack_symbols(u.packed(), size).tolist()) == symbols
    assert pack_symbols(np.array(symbols, dtype=object), size) == u.packed()


def test_packed_bytes_are_a_cache_outside_equality():
    from_array = SymbolSequence(Alphabet(4), np.array([3, 0, 2], dtype=np.uint8))
    from_tuple = SymbolSequence(Alphabet(4), (3, 0, 2))
    assert from_array._packed == b"\x03\x00\x02"
    assert from_array == from_tuple and hash(from_array) == hash(from_tuple)
    assert repr(from_array) == repr(from_tuple)
    assert from_tuple.packed() == from_array.packed()
    assert from_tuple.packed() is from_tuple.packed()
    # a uint8 array over more than 256 symbols packs two bytes a symbol
    wide = SymbolSequence(Alphabet(300), np.array([1, 255], dtype=np.uint8))
    assert wide.packed() == b"\x00\x01\x00\xff"


@pytest.mark.parametrize("size", [1, 2, 256, 257, 2 ** 16 + 1, 2 ** 40])
@pytest.mark.parametrize("data_read", [True, False])
def test_prefix_and_slices_cut_the_packed_bytes(size, data_read):
    # cuts read only the packed bytes, whether or not u's tuple was built first
    rng = np.random.default_rng(size)
    data = (0, size - 1) + tuple(int(v) % size for v in rng.integers(0, 2 ** 62, 40))
    u = SymbolSequence(Alphabet(size), data)
    if data_read:
        assert u.data == data
    for n in (0, 1, 17, len(data) - 1):
        p = u.prefix(n)
        assert p == SymbolSequence(Alphabet(size), data[:n]) and hash(p) == hash(SymbolSequence(Alphabet(size), data[:n]))
        assert p.packed() == pack_symbols(p.data, size)
    for sl in (slice(3, 30), slice(-7, None), slice(30, 3), slice(None, None, 3), slice(25, 2, -2)):
        cut = u[sl]
        assert cut.alphabet == u.alphabet and cut.data == data[sl]
        assert cut.packed() == pack_symbols(data[sl], size)


# alphabet sizes at both ends of each packed width: 1, 2, 4, 8 and 16 bytes
_width_sizes = st.sampled_from([2, 256, 257, 2 ** 16, 2 ** 16 + 1, 2 ** 32, 2 ** 32 + 1, 2 ** 64, 2 ** 64 + 1, 3 ** 50])


@st.composite
def _sized_symbols(draw):
    size = draw(_width_sizes)
    # symbols that fit a uint8 array, an int64 array, or only an object array
    top = draw(st.sampled_from([min(size, 256), min(size, 2 ** 63), size]))
    return size, tuple(draw(st.lists(st.integers(0, top - 1), max_size=40)))


@settings(max_examples=200, deadline=None)
@given(case=_sized_symbols(), sl=st.slices(40), n=st.integers(0, 40))
def test_every_input_form_is_one_sequence(case, sl, n):
    # the tuple is the model: every input form packs to the same sequence,
    # and data, array(), packed(), slices and prefixes agree with the model
    size, model = case
    forms = [model, list(model), np.array(model, dtype=object)]
    if all(s < 2 ** 63 for s in model):
        forms.append(np.array(model, dtype=np.int64))
    if all(s < 256 for s in model):
        forms.append(np.array(model, dtype=np.uint8))
    want = SymbolSequence(Alphabet(size), model)
    for form in forms:
        u = SymbolSequence(Alphabet(size), form)
        assert u == want and hash(u) == hash(want) and repr(u) == repr(want)
        assert len(u) == len(model) and u.data == model and all(type(s) is int for s in u.data)
        assert u.packed() == pack_symbols(model, size)
        if all(s < 2 ** 63 for s in model):
            assert u.array().dtype == np.int64 and u.array().tolist() == list(model)
        cut = u[sl]
        assert cut.data == model[sl] and cut == SymbolSequence(Alphabet(size), model[sl])
        assert cut.packed() == pack_symbols(model[sl], size)
        if n <= len(model):
            assert u.prefix(n).data == model[:n] and u.prefix(n) == SymbolSequence(Alphabet(size), model[:n])


def test_pack_symbols_packs_a_tuple_as_its_bytes():
    values = tuple(range(256)) + (0, 255, 7)
    assert pack_symbols(values, 256) == bytes(values) == np.asarray(values, dtype=">u1").tobytes()
    assert pack_symbols(values, 300) == np.asarray(values, dtype=">u2").tobytes()
    assert pack_symbols(np.array(values), 256) == bytes(values)


def test_full_prefix_is_the_sequence():
    u = SymbolSequence(Alphabet(2), (0, 1, 1))
    assert u.prefix(3) is u
    assert u.prefix(2).data == (0, 1)
    with pytest.raises(ValidationError):
        u.prefix(4)


@settings(max_examples=60, deadline=None)
@given(
    size=st.integers(2, 10),
    symbols=st.lists(st.integers(0, 9), max_size=500),
    width=st.integers(1, 60),
)
def test_dump_load_round_trip_property(tmp_path_factory, size, symbols, width):
    u = SymbolSequence(Alphabet(size), [s % size for s in symbols])
    path = tmp_path_factory.getbasetemp() / "round-trip.seq"
    dump_sequence(u, path, width=width)
    v = load_sequence(path)
    assert v.alphabet.size == size and v.data == u.data


_wide_tokens = st.tuples(st.integers(0, 2), st.integers(0, 10 ** 21)).map(lambda t: "0" * t[0] + str(t[1]))
_single_digits = st.integers(0, 9).map(str)


@settings(max_examples=200, deadline=None)
@given(
    tokens=st.one_of(
        st.lists(_wide_tokens, max_size=40),
        st.lists(_single_digits, max_size=40),
        st.lists(st.one_of(_single_digits, _wide_tokens), max_size=40),
    ),
    # runs of the six ASCII separators; the first one follows the header, the last one ends the file
    seps=st.lists(st.text(alphabet=" \n\t\r\x0b\x0c", min_size=1, max_size=4), min_size=41, max_size=41),
)
def test_digit_bodies_match_token_loop(tmp_path_factory, tokens, seps):
    text = "alphabet 1000000000000000000000000" + "".join(
        sep + tok for sep, tok in zip(seps, tokens + [""])
    )
    path = tmp_path_factory.getbasetemp() / "digits.seq"
    path.write_bytes(text.encode("utf-8"))
    u = load_sequence(path)
    assert (u.alphabet.size, u.data) == _token_loop(text)
    if all(len(tok) == 1 for tok in tokens):
        body = text.split(maxsplit=2)[2] if tokens else ""
        assert _single_digit_bytes(body) == body.encode("ascii")


_body_pieces = st.one_of(
    st.text(alphabet="0123456789 \t\n\r\x0b\x0c\x1c\xa0٣+-._a", max_size=6),
    st.integers(15, 22).map(lambda k: "7" * k),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_body_pieces, max_size=8).map("".join))
def test_bulk_check_is_the_two_regex_test(body):
    regex_test = bool(re.fullmatch(r"[0-9\s]*", body, re.ASCII)) and not re.search(r"[0-9]{2}", body)
    assert (_single_digit_bytes(body) is not None) == regex_test


# Pieces of sequence-file bodies: digits and the six ASCII separators, the
# other whitespace str.split knows, signs, non-ASCII digits, bytes that are not
# UTF-8, and runs of 19 digits.
_body_bytes = st.lists(
    st.sampled_from(
        [b"0", b"1", b"7", b"9", b"00", b"9" * 19, b" ", b"\n", b"\t", b"\r\n", b"\x0b", b"\x0c", b"\x1c",
         "\xa0".encode(), "\u0663".encode(), b"+", b"-", b"_", b".", b"x", b"\xff", b"\xc3"]
    ),
    max_size=30,
).map(b"".join)


@settings(max_examples=400, deadline=None)
@given(size=st.integers(-1, 12), body=st.one_of(st.binary(max_size=40), _body_bytes))
def test_loader_fuzz(tmp_path_factory, size, body):
    data = f"alphabet {size}".encode() + body
    path = tmp_path_factory.getbasetemp() / "fuzz.seq"
    path.write_bytes(data)
    try:
        expected = _token_loop(data.decode("utf-8"))
    except (UnicodeDecodeError, ValueError):
        expected = None
    if expected is not None and expected[0] >= 1 and all(0 <= s < expected[0] for s in expected[1]):
        u = load_sequence(path)
        assert (u.alphabet.size, u.data) == expected
    else:
        # pytest.raises lets any other exception through, which fails the test
        with pytest.raises(ValidationError) as err:
            load_sequence(path)
        assert str(err.value).startswith(f"{path}: ")
