"""Small immutable column table with a bit-exact serialization contract.

The canonical text form feeds provenance hashing, so it is defined down to
the byte: UTF-8, line 1 is the comma-joined header, one comma-joined row per
line in generation order, floats rendered as their shortest round-trip
decimal (Python ``repr``), LF line endings, no trailing newline.

The encoder writes all values with one ``orjson.dumps`` call on the
raveled array, whose Ryu shortest digits equal ``repr``'s.  The flat dump
is cheaper than a 2-D one, which pays for every row, and its commas are its
only separators.  So the rows are cut by position, in one buffer that
already holds the header: the dump's opening ``[`` becomes the header's
newline, every k-th comma of a k-column frame becomes a row break, and the
closing ``]`` is dropped.  orjson and ``repr`` differ only in how they write
an exponent (``0.00001``/``1e-05``, ``1.5e-7``/``1.5e-07``,
``1e16``/``1e+16``), which ``repr`` does for a nonzero magnitude below 1e-4
or at or above 1e16; a row holding such a value is then rewritten with
``repr`` in place.  A frame without columns has no values to dump, so it is
a newline per row.

The parser works on the bytes.  It checks that they are UTF-8 only when
they are not all ASCII, and it decodes only the header, plus the body on the
numpy path below.  One ``translate`` deletes the characters of numbers but
the decimal point from the body.  Where every value has one point, as
``repr`` writes it outside exponent form, a k-column body then leaves
``.,`` k - 1 times and a ``.`` per row, with a newline between rows.  So one
comparison checks every row's value count and the character set, and shows
that no value is an integer, least of all the integer ``-0``, which JSON
reads as +0.  Such a body, its newlines turned into commas, is converted
with one ``orjson.loads`` call.  Any other body (an exponent without a
point such as ``1e-05``, an integer, whitespace, ``nan``, non-ASCII digits,
a ragged row), or one that orjson refuses, takes a per-line scan that names
the first row with the wrong number of values, then numpy's str-to-float64
cast.  orjson and numpy both round as ``float()`` does, so the texts
accepted and the bits parsed do not depend on which path ran.  A generated
value leaves the first path only if ``repr`` writes it as one significant
digit with an exponent, which continuous draws practically never give.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
import orjson

__all__ = ["Frame", "FrameError"]

# orjson keeps an 8 MiB parse buffer from its first ``loads`` on.  Take it
# at import, while malloc still maps a block that large on its own.  Taken
# after the process has freed a larger block, it is carved out of the heap
# instead, where it holds 8 MiB that later allocations cannot reuse, and the
# peak RSS of a certificate audit grew by up to 5 MB from run to run.
orjson.loads("[0]")

# ``repr`` writes a float in exponent form below and from these magnitudes.
_REPR_EXPONENT_BELOW = 1e-4
_REPR_EXPONENT_FROM = 1e16
# The characters of JSON numbers, but the decimal point.
_NUMBER_BYTES_BUT_POINT = b"0123456789eE+-"
_COMMA, _NEWLINE = b",\n"


class FrameError(ValueError):
    """Malformed table: ragged rows, unparseable values, NaNs or infinities,
    duplicate or unknown columns, a column name that is not a string or that
    holds a comma or a newline."""


def _str_cast(fields: list[str]) -> np.ndarray:
    """The parser's fallback: numpy's str-to-float64 cast, which accepts and
    rounds as ``float()`` does.  Text whose every value has one decimal point
    never needs it."""
    try:
        return np.array(fields, dtype=np.float64)
    except ValueError as exc:
        raise FrameError(f"unparseable value: {exc}") from None


@dataclass(frozen=True)
class Frame:
    columns: tuple[str, ...]
    data: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        # The caller keeps its array and may change it, so the frame holds a copy.
        self._own(np.array(self.data, dtype=np.float64, order="C"), finite=False)

    @classmethod
    def _adopt(cls, columns: tuple[str, ...], data: np.ndarray, *,
               finite: bool = False) -> "Frame":
        """A frame that takes ``data``, a C-ordered float64 array no one else
        holds, without copying it.

        The constructor's checks all run, but the finiteness scan is skipped
        when ``finite`` says that the caller has shown every value finite.
        """
        frame = object.__new__(cls)
        object.__setattr__(frame, "columns", columns)
        frame._own(data, finite=finite)
        return frame

    def _own(self, arr: np.ndarray, *, finite: bool) -> None:
        if arr.ndim != 2:
            raise FrameError(f"expected 2-D data, got shape {arr.shape}")
        if arr.shape[1] != len(self.columns):
            raise FrameError(
                f"{len(self.columns)} columns declared but rows have {arr.shape[1]} values"
            )
        if len(set(self.columns)) != len(self.columns):
            raise FrameError("duplicate column names")
        # A separator inside a name would move a header field boundary, and
        # two different frames would share their canonical bytes.
        try:
            header = ",".join(self.columns)
        except TypeError:
            raise FrameError(f"column names must be strings, got {self.columns!r}") from None
        if self.columns and header.count(",") + header.count("\n") >= len(self.columns):
            bad = next(name for name in self.columns if "," in name or "\n" in name)
            raise FrameError(f"column name {bad!r} holds a comma or a newline")
        if not finite and not np.isfinite(arr).all():
            raise FrameError("missing or infinite values are not allowed")
        arr.setflags(write=False)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        # Bitwise, as the hash and the digest are: 0.0 and -0.0 differ.  The
        # shape tells apart frames without columns, whose bytes are all empty.
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.columns == other.columns and self.data.shape == other.data.shape
                and self.data.tobytes() == other.data.tobytes())

    def __hash__(self) -> int:
        return hash((self.columns, self.data.tobytes()))

    @property
    def n_rows(self) -> int:
        return self.data.shape[0]

    def column(self, name: str) -> np.ndarray:
        try:
            idx = self.columns.index(name)
        except ValueError:
            raise FrameError(f"no column named '{name}'") from None
        return self.data[:, idx]

    def canonical_bytes(self) -> bytes:
        header = ",".join(self.columns).encode("utf-8")
        n_rows, k = self.data.shape
        if not n_rows:
            return header
        if not k:
            return b"\n" * n_rows  # the header is empty, and so is every row
        dump = orjson.dumps(self.data.ravel(), option=orjson.OPT_SERIALIZE_NUMPY)
        text = bytearray(header)
        text += dump
        text[len(header)] = _NEWLINE  # the dump's "["
        text.pop()  # and its "]"
        # Commas are the dump's only separators: every k-th one ends a row.
        breaks = np.flatnonzero(np.frombuffer(dump, np.uint8) == _COMMA)[k - 1::k]
        breaks += len(header)
        np.frombuffer(text, np.uint8)[breaks] = _NEWLINE
        # Rows where ``repr`` writes an exponent, which orjson spells
        # differently.  Most frames have none, which the magnitudes show
        # without a row mask.  The rows are rewritten last to first, which
        # keeps the earlier rows' offsets.  ``tolist`` yields Python floats.
        magnitude = np.abs(self.data)
        if (magnitude.max(initial=0.0) >= _REPR_EXPONENT_FROM
                or magnitude[magnitude < _REPR_EXPONENT_BELOW].any()):
            exponent_form = ((magnitude < _REPR_EXPONENT_BELOW) & (magnitude != 0.0)
                             | (magnitude >= _REPR_EXPONENT_FROM)).any(axis=1)
            bounds = np.concatenate(([len(header)], breaks, [len(text)]))
            for i in np.flatnonzero(exponent_form)[::-1]:
                text[bounds[i] + 1:bounds[i + 1]] = ",".join(
                    map(repr, self.data[i].tolist())).encode("utf-8")
        return bytes(text)

    def sha256(self) -> str:
        """SHA-256 of ``canonical_bytes()``, lowercase hex.

        Computed on first use and kept on the frame.  Only the digest is
        kept, never the bytes: a run certifies hundreds of frames, and their
        text would dominate the process's memory.
        """
        digest = self.__dict__.get("_sha256")
        if digest is None:
            digest = hashlib.sha256(self.canonical_bytes()).hexdigest()
            object.__setattr__(self, "_sha256", digest)
        return digest

    @classmethod
    def from_canonical_bytes(cls, blob: bytes) -> "Frame":
        """Parse the canonical bytes; anything malformed raises ``FrameError``.

        All values are converted in one call, which accepts and rounds
        exactly as Python ``float()`` does (see the module docstring).  Every
        row must hold one value per column: a blank line, an empty field or a
        trailing newline is refused.
        """
        if not blob.isascii():
            try:
                blob.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FrameError(f"data is not UTF-8: {exc}") from None
        header, newline, body = blob.partition(b"\n")
        if not header:
            raise FrameError("empty canonical text")
        columns = tuple(header.decode("utf-8").split(","))
        k = len(columns)
        # A flat count would take "1,2,3\n4" for two rows of two; the pattern
        # holds each row's separators in place.  With one point per value,
        # no value is an integer, so none is the integer ``-0``.
        points = body.translate(None, _NUMBER_BYTES_BUT_POINT)
        row = b".," * (k - 1) + b"."
        n_rows, uneven = divmod(len(points) + 1, 2 * k)
        if newline and not uneven and points == (row + b"\n") * (n_rows - 1) + row:
            try:
                values = orjson.loads(b"[%b]" % body.replace(b"\n", b","))
            except orjson.JSONDecodeError:
                pass
            else:
                # Every value is a Python float; packing them is about twice
                # as fast as ``np.fromiter``, and the bits are the same.
                # orjson refuses infinities (and has no NaN), so no rescan.
                data = np.frombuffer(struct.pack(f"{n_rows * k}d", *values), np.float64)
                return cls._adopt(columns, data.reshape(n_rows, k), finite=True)
        # Any other text: name the first ragged row, then cast the values.
        lines = body.split(b"\n") if newline else []
        for i, line in enumerate(lines):
            if line.count(b",") != k - 1:
                raise FrameError(f"line {i + 2} has {line.count(b',') + 1} values "
                                 f"for {k} columns")
        values = _str_cast(body.decode("utf-8").replace("\n", ",").split(",")
                           if newline else [])
        return cls._adopt(columns, values.reshape(len(lines), k))

    def to_json_obj(self) -> dict:
        return {"columns": list(self.columns), "rows": self.data.tolist()}

    @classmethod
    def from_columns(cls, named: Sequence[tuple[str, Iterable[float]]]) -> "Frame":
        columns = tuple(name for name, _ in named)
        data = np.column_stack([np.asarray(vals, dtype=np.float64) for _, vals in named])
        return cls(columns=columns, data=data)

