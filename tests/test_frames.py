import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from civex.estimation import provenance_hash
from civex.frames import Frame, FrameError

from oracles import line_parse, per_value_encode, per_value_parse


def small_frame() -> Frame:
    return Frame(columns=("T", "Y", "x"),
                 data=np.array([[1.0, 2.5, -0.125], [0.0, 1.0, 3.0]]))


class TestCanonicalForm:
    def test_exact_text(self):
        assert small_frame().canonical_text() == "T,Y,x\n1.0,2.5,-0.125\n0.0,1.0,3.0"

    def test_no_trailing_newline(self):
        assert not small_frame().canonical_text().endswith("\n")

    def test_shortest_roundtrip_decimals(self):
        f = Frame(columns=("T", "Y"), data=np.array([[1.0, 0.1], [0.0, 1 / 3]]))
        text = f.canonical_text()
        assert "0.1" in text
        assert "0.3333333333333333" in text
        assert Frame.from_canonical_text(text) == f

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=24))
    @example([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, -1.7e308])
    # Where ``repr`` starts and stops writing an exponent.
    @example([float(np.nextafter(1e-4, 0)), 1e-4, 9.99e-05, 1.5e-07,
              float(np.nextafter(1e16, 0)), 1e16])
    # Only the second and fourth rows are written with ``repr``.
    @example([0.5, -2.0, -3e-05, 1.0, 0.0, 123.25, 7.0, 2e16, 1e15, -0.0])
    @example([])  # no rows
    def test_encoder_matches_per_value_repr(self, values):
        # Reference: the per-value encoding the format is defined by.
        data = np.array(values + [0.0] * (len(values) % 2)).reshape(-1, 2)
        f = Frame(columns=("a", "b"), data=data)
        assert f.canonical_bytes() == per_value_encode(f)
        assert f.canonical_text() == per_value_encode(f).decode("utf-8")

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_encoder_matches_per_value_repr_without_columns(self, n_rows):
        f = Frame(columns=(), data=np.zeros((n_rows, 0)))
        assert f.canonical_bytes() == per_value_encode(f) == b"\n" * n_rows

    def test_canonical_roundtrip_bytes(self):
        f = small_frame()
        assert Frame.from_canonical_bytes(f.canonical_bytes()) == f

    def test_json_roundtrip_is_exact(self):
        import json

        f = Frame(columns=("T", "Y"),
                  data=np.array([[1.0, np.pi], [0.0, np.e]]))
        blob = json.dumps(f.to_json_obj())
        assert Frame.from_json_obj(json.loads(blob)) == f


class TestProvenance:
    def test_same_frame_same_digest(self):
        assert provenance_hash(small_frame()) == provenance_hash(small_frame())

    def test_row_swap_changes_digest(self):
        f = small_frame()
        swapped = Frame(columns=f.columns, data=f.data[::-1])
        assert provenance_hash(f) != provenance_hash(swapped)

    def test_digest_matches_independent_sha256(self):
        # The oracle builds the canonical byte string by hand.
        f = small_frame()
        manual = "\n".join([
            "T,Y,x",
            ",".join([repr(1.0), repr(2.5), repr(-0.125)]),
            ",".join([repr(0.0), repr(1.0), repr(3.0)]),
        ]).encode("utf-8")
        assert provenance_hash(f) == hashlib.sha256(manual).hexdigest()
        assert len(provenance_hash(f)) == 64

    def test_single_value_change_changes_digest(self):
        f = small_frame()
        data = f.data.copy()
        data[1, 2] += 1e-9
        assert provenance_hash(f) != provenance_hash(Frame(columns=f.columns, data=data))


class TestValidation:
    def test_ragged_rejected(self):
        with pytest.raises(FrameError):
            Frame(columns=("a", "b"), data=np.array([[1.0], [2.0]]))

    def test_nan_rejected(self):
        with pytest.raises(FrameError):
            Frame(columns=("a",), data=np.array([[np.nan]]))

    @pytest.mark.parametrize("value", [np.inf, -np.inf])
    def test_infinity_rejected(self, value):
        with pytest.raises(FrameError):
            Frame(columns=("a", "b"), data=np.array([[1.0, value]]))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(FrameError):
            Frame(columns=("a", "a"), data=np.zeros((1, 2)))

    def test_unknown_column_lookup(self):
        with pytest.raises(FrameError):
            small_frame().column("missing")

    def test_data_is_immutable(self):
        f = small_frame()
        with pytest.raises(ValueError):
            f.data[0, 0] = 9.0


def _parse(text: str | bytes) -> Frame:
    if isinstance(text, str):
        return Frame.from_canonical_text(text)
    return Frame.from_canonical_bytes(text)


def _text(text: str | bytes) -> str:
    return text if isinstance(text, str) else text.decode("utf-8")


class TestCanonicalParser:
    """The bulk parser against the per-value ``float()`` parser it replaced,
    and its refusals against the line-by-line parser's (``line_parse``)."""

    @pytest.mark.parametrize("text", [
        "a,b\n1,2,3\n4",        # ragged rows that add up to a full grid
        "a,b\n1,2,3,4",          # one row holding two rows' values
        "a,b\n1,2\n",           # trailing newline
        "a,b\n1,2\n\n3,4",       # blank line
        "a,b\n1,\n3,4",          # empty field
        "a\n",                  # one column, one empty row
        "a,b\n1,2\n3",
        "a\n1,0",                # a decimal comma is a second value
        "a,b\n1,x",
        "a,b\n1,0x1p3",          # hex floats are not decimal text
        "a,b\n1,nan",
        "a,b\n1,-inf",
        "a,b\n1,1e400",          # overflows to infinity
        "a,b\ntrue,1",           # JSON literals and arrays are not numbers
        "a,b\nnull,1",
        "a,b\n[1],2",
        "a,b\n1,2e",             # exponent without digits
        "a,b\n1,\ud800",         # a lone surrogate, which UTF-8 cannot encode
        "a,a\n1,2",
        "",
        "\n1,2",
        "a,b\n1\n2,3\n4,5",     # bad first line
        "a,b\n1,2\n3\n4,5",     # bad middle line
        "a,b\n1,2\n3,4\n5,6,7",  # bad last line
        "a,b\n1,2\n3,4\n",      # trailing newline after several rows
        "a,b\n\n1,2",           # blank first line
        "a,b\n",                # a header with an empty body
        "a,b\nnan,1\n2,3",       # nan on a well-formed line
        "a,b\n1,2\n3,-nan",
        "a\n1\n\n2",
        b"a,b\n1,\xff",         # invalid UTF-8
        b"\xff,b\n1,2",
        b"a,b\n1,\xc3",         # a truncated two-byte sequence
    ])
    def test_refuses_what_the_per_value_parser_refuses(self, text):
        with pytest.raises(ValueError):
            per_value_parse(_text(text))
        with pytest.raises(FrameError) as refused:
            _parse(text)
        try:
            blob = text.encode("utf-8") if isinstance(text, str) else text
        except UnicodeEncodeError:
            return  # a lone surrogate: no bytes to hand the line parser
        with pytest.raises(FrameError) as expected:
            line_parse(blob)
        assert type(refused.value) is type(expected.value)
        assert str(refused.value) == str(expected.value)

    @pytest.mark.parametrize("text", [
        "a,b",                    # header only: no rows
        "a\n1\n2.5",              # single column
        "a,b\n 1.0 ,\t2\r",       # surrounding whitespace
        "a,b\n1_0,-0.0",          # underscores and negative zero
        "a,b\n١٢,5e-324",        # non-ASCII digits and the smallest subnormal
        "a,b\n+.5,1E3",
        "a,b\n12345678901234567890,9007199254740993",  # integers past 2**53
        "a,b\n-0,1\n2,-0",       # the integer -0 is -0.0, not JSON's +0
        "a\n1\n-0",
        "a,b\n-0.0,-0e0\n0,-0",
        "a",                      # a header alone
        "a,b\n 1.5,2\n3,4",      # whitespace on a well-formed line
        "a,b\n1,2\n1_0,4",       # an underscore on a well-formed line
        "\u00e9,b\n1,2\n3,4",     # valid non-ASCII UTF-8 in the header
        "a,b\n1,2\n3,\u0664",     # and in a value
        b"\xc3\xa9,b\n1,2",
    ])
    def test_accepts_what_the_per_value_parser_accepts(self, text):
        expected = per_value_parse(_text(text))
        got = _parse(text)
        assert got.columns == expected.columns
        assert got.data.shape == expected.data.shape
        assert got.data.tobytes() == expected.data.tobytes()

    def test_ragged_row_is_named(self):
        with pytest.raises(FrameError, match="line 3 has 1 values for 2 columns"):
            Frame.from_canonical_text("a,b\n1,2\n3")

    def test_non_utf8_bytes_are_a_frame_error(self):
        with pytest.raises(FrameError, match="UTF-8"):
            Frame.from_canonical_bytes(b"a,b\n1,\xff")
