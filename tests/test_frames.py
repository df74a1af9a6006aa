import functools
import hashlib
import itertools
import math
import pickle
import re

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

import civex.frames
from civex.cli import main
from civex.estimation import provenance_hash
from civex.frames import DeferredFrame, Frame, FrameError
from civex.scm import BenchmarkSpec, build_benchmark

from oracles import line_parse, per_value_encode, per_value_parse


def small_frame() -> Frame:
    return Frame(columns=("T", "Y", "x"),
                 data=np.array([[1.0, 2.5, -0.125], [0.0, 1.0, 3.0]]))


def _frame(rows) -> Frame:
    data = np.array(rows, dtype=np.float64)
    return Frame(columns=tuple(f"c{j}" for j in range(data.shape[1])), data=data)


# Any finite float, and a share of the values ``repr`` writes in exponent
# form: nonzero magnitudes below 1e-4 and at or above 1e16.
_VALUES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=-1e-4, max_value=1e-4, exclude_min=True, exclude_max=True),
    st.floats(min_value=1e16, allow_infinity=False),
    st.floats(max_value=-1e16, allow_infinity=False),
    st.sampled_from([0.0, -0.0]),
)


@functools.lru_cache(maxsize=1)
def _seed_42_frames() -> tuple[Frame, ...]:
    """The observational and experimental frames of the default seed 42."""
    instances, _ = build_benchmark(BenchmarkSpec(seeds=(42,)))
    return tuple(f for inst in instances for f in (inst.observational, inst.experimental))


@st.composite
def _frames(draw) -> Frame:
    n_cols = draw(st.integers(1, 6))
    n_rows = draw(st.integers(0, 8))
    values = draw(st.lists(_VALUES, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    return _frame(np.array(values, dtype=np.float64).reshape(n_rows, n_cols))


class TestCanonicalForm:
    def test_exact_text(self):
        assert small_frame().canonical_bytes() == b"T,Y,x\n1.0,2.5,-0.125\n0.0,1.0,3.0"

    def test_no_trailing_newline(self):
        assert not small_frame().canonical_bytes().endswith(b"\n")

    def test_shortest_roundtrip_decimals(self):
        f = Frame(columns=("T", "Y"), data=np.array([[1.0, 0.1], [0.0, 1 / 3]]))
        blob = f.canonical_bytes()
        assert b"0.1" in blob
        assert b"0.3333333333333333" in blob
        assert Frame.from_canonical_bytes(blob) == f

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

    @given(_frames())
    @example(_frame([[1.0], [-2.5], [0.1], [3.0]]))  # every comma is a row break
    @example(_frame([[1.0], [2e16], [-0.0], [1e-7]]))
    @example(_frame([[1.0, -0.0, 0.25, 7.0]]))  # one row
    @example(_frame([[1e-5, 1.0], [2.0, 3.0], [4.0, 5.0]]))  # exponent-form row first
    @example(_frame([[1.0, 2.0], [3.0, 4.0], [5.0, -1e16]]))  # ... last
    @example(_frame([[1.5e-7, 0.5, -0.0]]))  # ... alone
    @example(_frame([[1.0, 2.0], [3e-5, 4e20], [5e-300, 6.0], [7.0, 8.0]]))  # two in a row
    def test_encoder_matches_per_value_repr_at_any_width(self, frame):
        assert frame.canonical_bytes() == per_value_encode(frame)

    def test_every_frame_of_a_default_seed_matches_per_value_repr(self):
        frames = _seed_42_frames()
        assert len(frames) == 540
        for frame in frames:
            assert frame.canonical_bytes() == per_value_encode(frame)

    @pytest.mark.parametrize("n_rows", [0, 3])
    def test_encoder_matches_per_value_repr_without_columns(self, n_rows):
        f = Frame(columns=(), data=np.zeros((n_rows, 0)))
        assert f.canonical_bytes() == per_value_encode(f) == b"\n" * n_rows

    def test_canonical_roundtrip_bytes(self):
        f = small_frame()
        assert Frame.from_canonical_bytes(f.canonical_bytes()) == f

    def test_json_object_is_lossless(self):
        import json

        f = Frame(columns=("T", "Y"),
                  data=np.array([[1.0, np.pi], [-0.0, np.e], [1e-300, 5e-324]]))
        obj = json.loads(json.dumps(f.to_json_obj()))
        assert obj["columns"] == ["T", "Y"]
        assert np.array(obj["rows"], dtype=np.float64).tobytes() == f.data.tobytes()


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


def _signed_zero_frames() -> list[Frame]:
    """Every frame of up to two rows and two columns over 0.0, -0.0 and 1.5,
    under two orders of names, and frames without columns."""
    frames = [Frame((), np.zeros((n_rows, 0))) for n_rows in range(3)]
    for columns in (("a",), ("b",), ("a", "b"), ("b", "a")):
        for n_rows in range(3):
            for values in itertools.product((0.0, -0.0, 1.5), repeat=n_rows * len(columns)):
                frames.append(Frame(columns, np.reshape(values, (n_rows, len(columns)))))
    return frames


class TestEquality:
    def test_signed_zeros_make_different_frames(self):
        plus, minus = Frame(("a",), [[0.0]]), Frame(("a",), [[-0.0]])
        assert plus != minus
        assert minus not in {plus}
        assert plus.sha256() != minus.sha256()

    def test_equal_exactly_when_the_canonical_bytes_are(self):
        frames = _signed_zero_frames()
        twins = [Frame(f.columns, f.data.copy()) for f in frames]
        blobs = [f.canonical_bytes() for f in frames]
        assert len(set(blobs)) == len(frames)
        for f, blob in zip(frames, blobs):
            for twin, other in zip(twins, blobs):
                assert (f == twin) is (blob == other)
                if f == twin:
                    assert hash(f) == hash(twin)
        assert set(frames) == set(twins)
        assert len(set(frames)) == len(frames)


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

    @pytest.mark.parametrize("columns, name", [
        (("a,b", "c"), "a,b"),
        (("a", "b,c"), "b,c"),
        (("a", "b\nc"), "b\nc"),
    ])
    def test_separator_in_a_column_name_rejected(self, columns, name):
        # ("a,b", "c") and ("a", "b,c") would share their canonical bytes,
        # and so their digest, though the frames differ.
        with pytest.raises(FrameError, match=re.escape(repr(name))):
            Frame(columns=columns, data=np.array([[1.0, 2.0]]))

    def test_column_name_that_is_not_a_string_rejected(self):
        with pytest.raises(FrameError, match="column names must be strings"):
            Frame(columns=("a", 1), data=np.array([[1.0, 2.0]]))

    def test_unknown_column_lookup(self):
        with pytest.raises(FrameError):
            small_frame().column("missing")

    def test_data_is_immutable(self):
        f = small_frame()
        with pytest.raises(ValueError):
            f.data[0, 0] = 9.0

    @pytest.mark.parametrize("blob", [
        b"T,Y\n1.0,2.5\n0.0,1.0",  # the orjson path, whose array the frame takes as it is
        b"T,Y\n1,2\n0,1",          # numpy's cast
    ])
    def test_parsed_data_is_immutable(self, blob):
        f = Frame.from_canonical_bytes(blob)
        assert not f.data.flags.writeable
        with pytest.raises(ValueError):
            f.data[0, 0] = 9.0

    def test_frame_keeps_a_copy_of_the_callers_array(self):
        data = np.array([[1.0, 2.0], [3.0, 4.0]])
        f = Frame(columns=("a", "b"), data=data)
        data[0, 0] = 9.0
        assert f.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        assert data.flags.writeable

    def test_fortran_ordered_data_is_held_in_row_order(self):
        f = Frame(columns=("a", "b"), data=np.asfortranarray([[1.0, 2.0], [3.0, 4.0]]))
        assert f.data.flags.c_contiguous
        assert f.canonical_bytes() == b"a,b\n1.0,2.0\n3.0,4.0"


def _parse(text: str | bytes) -> Frame:
    return Frame.from_canonical_bytes(text.encode("utf-8") if isinstance(text, str) else text)


def _text(text: str | bytes) -> str:
    return text if isinstance(text, str) else text.decode("utf-8")


class TestDeferredFrame:
    """A frame drawn on the first read of its data, through every check of
    the constructor."""

    ROWS = [[1.0, 2.5], [0.0, -0.0]]

    @staticmethod
    def _counted(rows, columns=("T", "Y")):
        """A deferred frame of ``rows`` and the list its draws append to."""
        calls = []

        def draw():
            calls.append(1)
            return np.array(rows, dtype=np.float64)

        return DeferredFrame(columns, draw), calls

    def test_first_read_draws_once(self):
        frame, calls = self._counted(self.ROWS)
        assert not frame.drawn and not calls
        eager = Frame(("T", "Y"), np.array(self.ROWS))
        assert frame == eager and hash(frame) == hash(eager)
        assert frame.drawn and len(calls) == 1
        assert frame.canonical_bytes() == eager.canonical_bytes()
        assert frame.sha256() == eager.sha256()
        assert frame.data is frame.data and not frame.data.flags.writeable
        assert len(calls) == 1

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_a_draw_that_is_not_finite_is_refused_at_every_read(self, bad):
        frame, calls = self._counted([[1.0, bad], [0.0, 1.0]])
        for attempt in (1, 2):
            with pytest.raises(FrameError, match="missing or infinite"):
                frame.data
            # Nothing of the failed draw is kept: the next read draws again.
            assert not frame.drawn and len(calls) == attempt
            assert frame._sha256 is None and frame._fits is None
        with pytest.raises(FrameError):
            frame.canonical_bytes()

    @pytest.mark.parametrize("columns, rows, message", [
        (("T",), ROWS, "1 columns declared but rows have 2 values"),
        (("T", "T"), ROWS, "duplicate column names"),
        (("T", "Y,Z"), ROWS, "holds a comma or a newline"),
        (("T", "Y"), [1.0, 2.0], "expected 2-D data"),
    ])
    def test_the_constructor_checks_run_at_first_read(self, columns, rows, message):
        frame, _ = self._counted(rows, columns)
        with pytest.raises(FrameError, match=message):
            frame.n_rows
        assert not frame.drawn

    def test_only_data_is_deferred(self):
        frame, calls = self._counted(self.ROWS)
        assert frame.columns == ("T", "Y")
        assert not hasattr(frame, "rows")
        assert not calls

    def test_pickle_keeps_an_undrawn_frame_undrawn(self):
        frame = DeferredFrame(("T", "Y"), functools.partial(np.array, self.ROWS))
        copy = pickle.loads(pickle.dumps(frame))
        assert type(copy) is DeferredFrame and not copy.drawn
        assert not frame.drawn
        assert copy.canonical_bytes() == frame.canonical_bytes() == b"T,Y\n1.0,2.5\n0.0,-0.0"
        drawn = pickle.loads(pickle.dumps(frame))
        assert type(drawn) is Frame and drawn == frame


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
        "a,b\n1.0e999,2.0",      # the same with a point: orjson refuses it, numpy's cast takes it
        "a,b\ntrue,1",           # JSON literals and arrays are not numbers
        "a,b\nnull,1",
        "a,b\n[1],2",
        "a,b\n1,2e",             # exponent without digits
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
        "a,b\n1..5,2.5",          # one value with two points
        "a,b\n1.5,2.5,3.5\n4.5",  # one point a value and two rows' worth, but a row break moved
        b"a,b\n1,\xff",         # invalid UTF-8
        b"\xff,b\n1,2",
        b"a,b\n1,\xc3",         # a truncated two-byte sequence
    ])
    def test_refuses_what_the_per_value_parser_refuses(self, text):
        with pytest.raises(ValueError):
            per_value_parse(_text(text))
        with pytest.raises(FrameError) as refused:
            _parse(text)
        with pytest.raises(FrameError) as expected:
            line_parse(text.encode("utf-8") if isinstance(text, str) else text)
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
        "a,b\n1.5,-0",           # the integer -0 beside values with a point
        "a,b\n-0,1.5\n2.5,3.5",
        "a,b\n1e-05,-0",         # exponents without a point
        "a,b\n5e-324,1e+16",
        "a,b\n-.5,1.5",          # one point a value, but not JSON numbers
        "a,b\n+1.5,2.5",
        b"\xc3\xa9,b\n1,2",
    ])
    def test_accepts_what_the_per_value_parser_accepts(self, text):
        expected = per_value_parse(_text(text))
        got = _parse(text)
        assert got.columns == expected.columns
        assert got.data.shape == expected.data.shape
        assert got.data.tobytes() == expected.data.tobytes()

    def test_generated_text_never_reaches_the_str_cast(self, tmp_path, monkeypatch):
        # Every data file of a seed-42 run, and every seed-42 frame's bytes.
        # Text that leaves the one-point-per-value path ends in the cast.
        run = CliRunner().invoke(main, ["run", "--seed-list", "42", "--out", str(tmp_path)])
        assert run.exit_code == 0, run.output
        files = sorted(tmp_path.glob("certificates/*/*.data.txt"))
        assert files
        texts = [(p.read_bytes(), per_value_parse(p.read_text(encoding="utf-8")).data)
                 for p in files]
        texts += [(f.canonical_bytes(), f.data) for f in _seed_42_frames()]

        def str_cast(fields):
            raise AssertionError("canonical text reached the str-to-float64 cast")

        monkeypatch.setattr(civex.frames, "_str_cast", str_cast)
        for blob, data in texts:
            assert Frame.from_canonical_bytes(blob).data.tobytes() == data.tobytes()

    def test_ragged_row_is_named(self):
        with pytest.raises(FrameError, match="line 3 has 1 values for 2 columns"):
            Frame.from_canonical_bytes(b"a,b\n1,2\n3")

    def test_non_utf8_bytes_are_a_frame_error(self):
        with pytest.raises(FrameError, match="UTF-8"):
            Frame.from_canonical_bytes(b"a,b\n1,\xff")
