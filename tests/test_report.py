import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from secwire import ValidationError
from secwire.report import fmt_float, flatten, render_csv, render_csv_rows, render_json


def test_fmt_float_ten_significant_digits():
    assert fmt_float(1 / 3) == "0.3333333333"
    assert fmt_float(123456789012.0) == "1.23456789e+11"
    assert fmt_float(2.0) == "2"
    assert fmt_float(1e-12) == "1e-12"
    assert fmt_float(0.5) == "0.5"


def test_fmt_float_special_values():
    assert fmt_float(float("nan")) == "NaN"
    assert fmt_float(float("inf")) == "Infinity"
    assert fmt_float(float("-inf")) == "-Infinity"


def test_render_json_indented_exact():
    assert render_json({"b": 1, "a": [2, 3]}) == '{\n  "b": 1,\n  "a": [\n    2,\n    3\n  ]\n}'


def test_render_json_single_line():
    assert render_json({"b": 1, "a": [2, 3]}, indent=None) == '{"b": 1, "a": [2, 3]}'
    assert render_json({}, indent=None) == "{}"
    assert render_json([], indent=None) == "[]"


def test_render_json_scalars():
    assert render_json(None, indent=None) == "null"
    assert render_json(True, indent=None) == "true"
    assert render_json(False, indent=None) == "false"
    assert render_json("a\nb", indent=None) == json.dumps("a\nb")
    assert render_json(0.1, indent=None) == "0.1"


def test_render_json_numpy_coercion():
    doc = {"x": np.float64(0.25), "n": np.int64(3), "v": np.arange(3)}
    assert render_json(doc, indent=None) == '{"x": 0.25, "n": 3, "v": [0, 1, 2]}'


def test_render_json_special_floats_parse_back():
    text = render_json({"x": float("nan"), "y": float("inf")}, indent=None)
    assert text == '{"x": NaN, "y": Infinity}'
    parsed = json.loads(text)
    assert math.isnan(parsed["x"]) and parsed["y"] == float("inf")


def test_render_json_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        render_json({1: "a"})
    with pytest.raises(ValidationError):
        render_json({"a": {2, 3}})


def test_flatten_paths():
    doc = {"a": {"b": 1, "c": [2.5, {"d": None}]}, "e": True}
    assert flatten(doc) == [
        ("a.b", 1),
        ("a.c[0]", "2.5"),
        ("a.c[1].d", ""),
        ("e", "true"),
    ]
    assert flatten([1, 2]) == [("[0]", 1), ("[1]", 2)]


def test_render_csv_single_row():
    assert render_csv({"a": 1, "b": 0.5, "s": "hi,x"}) == 'a,b,s\n1,0.5,"hi,x"\n'


def test_render_csv_rows_union_header():
    text = render_csv_rows([{"a": 1}, {"b": 2.0, "a": 3}], common={"run": 1})
    assert text == "run,a,b\n1,1,\n1,3,2\n"


def _sample_reports():
    return [
        {
            "command": "capacity",
            "config": {"main": "m.ch", "grid-step": 0.02},
            "results": {"c_s": 0.3577507789, "certificate": {"gap": 1.25e-11, "iters": 40}},
        },
        {
            "command": "bound",
            "results": {"terms": [0.25, 1 / 3, 0.0721264155], "ell": 4, "ok": True, "note": None},
        },
        {
            "command": "wyner",
            "results": {
                "leakage_bits": 0.069314718,
                "bins": 4,
                "rows": [{"n": 4, "e": 0.05}, {"n": 6, "e": 0.041}],
            },
        },
    ]


def test_json_round_trip_preserves_flattened_values():
    for doc in _sample_reports():
        reparsed = json.loads(render_json(doc))
        assert flatten(reparsed) == flatten(doc)


def test_csv_agrees_with_flatten():
    for doc in _sample_reports():
        header, row = list(csv.reader(io.StringIO(render_csv(doc))))
        pairs = flatten(doc)
        assert header == [k for k, _ in pairs]
        assert row == [str(v) for _, v in pairs]


def test_renderings_are_deterministic():
    for doc in _sample_reports():
        assert render_json(doc) == render_json(doc)
        assert render_csv(doc) == render_csv(doc)


# The two-pass writer that render_json replaced (coerce the whole document,
# then print it), kept verbatim as the reference for the single-pass one.
def _old_coerce(obj):
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_old_coerce(v) for v in obj.tolist()]
    if isinstance(obj, (list, tuple)):
        return [_old_coerce(v) for v in obj]
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if not isinstance(k, str):
                raise ValidationError(f"report keys must be strings, got {k!r}")
            out[k] = _old_coerce(v)
        return out
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    raise ValidationError(f"cannot render object of type {type(obj).__name__}")


def _old_render(obj, indent, level):
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, list):
        if not obj:
            return "[]"
        items = [_old_render(v, indent, level + 1) for v in obj]
        if indent is None:
            return "[" + ", ".join(items) + "]"
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
        return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [f"{json.dumps(k)}: {_old_render(v, indent, level + 1)}" for k, v in obj.items()]
        if indent is None:
            return "{" + ", ".join(items) + "}"
        pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
        return "{\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "}"
    raise ValidationError(f"cannot render object of type {type(obj).__name__}")


def _old_render_json(obj, indent=2):
    return _old_render(_old_coerce(obj), indent, 0)


_numpy_scalars = st.one_of(
    st.integers(-(2 ** 63), 2 ** 63 - 1).map(np.int64),
    st.integers(0, 255).map(np.uint8),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    st.floats(width=32, allow_nan=True, allow_infinity=True).map(np.float32),
)
_numpy_arrays = st.one_of(
    st.lists(st.integers(-1000, 1000), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=6).map(np.array),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
)
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=5),
    _numpy_scalars,
    _numpy_arrays,
)
_documents = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=5),
    ),
    max_leaves=40,
)


@settings(max_examples=150, deadline=None)
@given(doc=_documents, indent=st.sampled_from([None, 2]))
def test_render_json_matches_two_pass_writer(doc, indent):
    assert render_json(doc, indent=indent) == _old_render_json(doc, indent=indent)


def test_render_json_errors_match_two_pass_writer():
    for doc in ({"a": [1, {2: "x"}]}, {"a": {1, 2}}, [np.bool_(True)], [1j], {"a": [1, (x for x in ())]}):
        with pytest.raises(ValidationError) as new:
            render_json(doc)
        with pytest.raises(ValidationError) as old:
            _old_render_json(doc)
        assert str(new.value) == str(old.value)


# flatten as it was before it coerced the document once at the top: every
# level of the recursion coerced its whole subtree again.
def _old_flatten(obj, prefix=""):
    obj = _old_coerce(obj)
    out = []
    if isinstance(obj, dict):
        for k, v in obj.items():
            key = f"{prefix}.{k}" if prefix else k
            out.extend(_old_flatten(v, key))
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            out.extend(_old_flatten(v, f"{prefix}[{i}]"))
    else:
        if isinstance(obj, float):
            obj = fmt_float(obj)
        elif isinstance(obj, bool):
            obj = "true" if obj else "false"
        elif obj is None:
            obj = ""
        out.append((prefix, obj))
    return out


@settings(max_examples=150, deadline=None)
@given(doc=_documents, prefix=st.sampled_from(["", "run"]))
def test_flatten_matches_per_level_coercion(doc, prefix):
    assert flatten(doc, prefix) == _old_flatten(doc, prefix)


def test_flatten_errors_match_per_level_coercion():
    for doc in ({"a": [1, {2: "x"}]}, {"a": {1, 2}}, [1j]):
        with pytest.raises(ValidationError) as new:
            flatten(doc)
        with pytest.raises(ValidationError) as old:
            _old_flatten(doc)
        assert str(new.value) == str(old.value)


# The one-pass recursive renderer as it was before integer lists and integer
# rows were printed through one template, kept verbatim as the reference.
def _recursive_render(obj, indent, level):
    t = type(obj)
    if t is int:
        return str(obj)
    if t is float:
        return fmt_float(obj)
    if t is str:
        return json.dumps(obj)
    if obj is None:
        return "null"
    if t is bool:
        return "true" if obj else "false"
    if isinstance(obj, (list, tuple)):
        return _recursive_render_list(obj, indent, level)
    if isinstance(obj, dict):
        return _recursive_render_dict(obj, indent, level)
    if isinstance(obj, np.ndarray):
        return _recursive_render_list(obj.tolist(), indent, level)
    if isinstance(obj, np.floating):
        return fmt_float(float(obj))
    if isinstance(obj, np.integer):
        return str(int(obj))
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    raise ValidationError(f"cannot render object of type {type(obj).__name__}")


def _recursive_render_list(obj, indent, level):
    items = [_recursive_render(v, indent, level + 1) for v in obj]
    if not items:
        return "[]"
    if indent is None:
        return "[" + ", ".join(items) + "]"
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    return "[\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "]"


def _recursive_render_dict(obj, indent, level):
    items = []
    for k, v in obj.items():
        if not isinstance(k, str):
            raise ValidationError(f"report keys must be strings, got {k!r}")
        items.append(f"{json.dumps(k)}: {_recursive_render(v, indent, level + 1)}")
    if not items:
        return "{}"
    if indent is None:
        return "{" + ", ".join(items) + "}"
    pad, pad_in = " " * (indent * level), " " * (indent * (level + 1))
    return "{\n" + ",\n".join(pad_in + it for it in items) + "\n" + pad + "}"


_row_ints = st.one_of(st.integers(-(2 ** 70), 2 ** 70), st.integers(-3, 3))
_int_rows = st.integers(0, 4).flatmap(
    lambda width: st.lists(
        st.tuples(st.lists(_row_ints, min_size=width, max_size=width), st.booleans()).map(
            lambda t: tuple(t[0]) if t[1] else t[0]
        ),
        max_size=6,
    )
)


def _spoil(rows, spoiler, where, inside):
    """rows with spoiler put in place of one item of one row (inside) or as an extra row."""
    rows = list(rows)
    i = where % len(rows)
    if inside and rows[i]:
        row = list(rows[i])
        row[where % len(row)] = spoiler
        rows[i] = row
    else:
        rows.insert(i, spoiler)
    return rows


# integer rows with one item of another kind, or one row of another width
_spoiled_rows = st.builds(
    _spoil,
    _int_rows.filter(bool),
    st.one_of(
        st.booleans(),
        st.floats(allow_nan=False),
        st.integers(-5, 5).map(np.int64),
        st.lists(_row_ints, max_size=5),
        st.just(()),
    ),
    st.integers(0, 30),
    st.booleans(),
)
_report_leaves = st.one_of(
    st.integers(),
    st.integers(2 ** 63, 2 ** 80),
    st.booleans(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.none(),
    st.integers(-1000, 1000).map(np.int64),
    st.lists(st.integers(-(2 ** 64), 2 ** 64), max_size=6),
    st.lists(st.integers(-9, 9), max_size=6).map(tuple),
    st.lists(st.integers(-1000, 1000), max_size=6).map(lambda v: np.array(v, dtype=np.int64)),
    st.lists(st.integers(0, 9), min_size=1, max_size=6).map(lambda v: np.array(v, dtype=np.int64).reshape(-1, 1)),
    st.lists(st.booleans(), max_size=4).map(lambda v: np.array(v, dtype=bool)),
    _int_rows,
    _spoiled_rows,
    st.just([]),
)
_reports = st.recursive(
    _report_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=3), children, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(doc=_reports, indent=st.sampled_from([None, 2, 4]))
def test_render_json_matches_recursive_renderer(doc, indent):
    assert render_json(doc, indent=indent) == _recursive_render(doc, indent, 0)


def test_render_json_long_integer_rows_match_recursive_renderer():
    rng = np.random.default_rng(8)
    ends = np.cumsum(rng.integers(1, 9, 5000)).tolist()
    spans = list(zip([0] + ends[:-1], ends))
    doc = {"results": {"phrases": spans, "lists": [list(s) for s in spans], "multiplicities": ends}}
    for indent in (None, 2, 4):
        assert render_json(doc, indent=indent) == _recursive_render(doc, indent, 0)
