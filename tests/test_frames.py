import hashlib

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from civex.estimation import provenance_hash
from civex.frames import Frame, FrameError


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

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=24))
    @example([-0.0, 5e-324, 2.2250738585072014e-308, 1e16, 1e-5, 0.1, -1.7e308])
    def test_encoder_matches_per_value_repr(self, values):
        # Reference: the per-value encoding the format is defined by.
        data = np.array(values + [0.0] * (len(values) % 2)).reshape(-1, 2)
        f = Frame(columns=("a", "b"), data=data)
        rows = [",".join(repr(float(v)) for v in row) for row in f.data]
        assert f.canonical_bytes() == "\n".join(["a,b", *rows]).encode("utf-8")

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
