"""Small immutable column table with a bit-exact serialization contract.

The canonical text form feeds provenance hashing, so it is defined down to
the byte: UTF-8, line 1 is the comma-joined header, one comma-joined row per
line in generation order, floats rendered as their shortest round-trip
decimal (Python ``repr``), LF line endings, no trailing newline.
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

__all__ = ["Frame", "FrameError"]


class FrameError(ValueError):
    """Malformed table: ragged rows, unparseable values, NaNs or infinities,
    duplicate or unknown columns."""


@dataclass(frozen=True)
class Frame:
    columns: tuple[str, ...]
    data: np.ndarray = field(compare=False)

    def __post_init__(self) -> None:
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim != 2:
            raise FrameError(f"expected 2-D data, got shape {arr.shape}")
        if arr.shape[1] != len(self.columns):
            raise FrameError(
                f"{len(self.columns)} columns declared but rows have {arr.shape[1]} values"
            )
        if len(set(self.columns)) != len(self.columns):
            raise FrameError("duplicate column names")
        if not np.isfinite(arr).all():
            raise FrameError("missing or infinite values are not allowed")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "data", arr)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return self.columns == other.columns and np.array_equal(self.data, other.data)

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

    def canonical_text(self) -> str:
        # ``tolist`` yields Python floats, whose ``repr`` is the shortest
        # round-trip decimal.
        lines = [",".join(self.columns)]
        lines.extend(",".join(map(repr, row)) for row in self.data.tolist())
        return "\n".join(lines)

    def canonical_bytes(self) -> bytes:
        return self.canonical_text().encode("utf-8")

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
    def from_canonical_text(cls, text: str) -> "Frame":
        """Parse the canonical text form; anything malformed raises ``FrameError``.

        All values are converted in one numpy call, whose str-to-float64 cast
        accepts and rounds exactly as Python ``float()`` does.  Every row
        must hold one value per column: a blank line, an empty field or a
        trailing newline is refused.
        """
        header, newline, body = text.partition("\n")
        if not header:
            raise FrameError("empty canonical text")
        columns = tuple(header.split(","))
        lines = body.split("\n") if newline else []
        commas = len(columns) - 1
        # Counted per line: a flat count would take "1,2,3\n4" for two rows of two.
        if set(map(str.count, lines, itertools.repeat(","))) - {commas}:
            i = next(i for i, line in enumerate(lines) if line.count(",") != commas)
            raise FrameError(f"line {i + 2} has {lines[i].count(',') + 1} values "
                             f"for {len(columns)} columns")
        try:
            values = np.array(body.replace("\n", ",").split(",") if lines else [],
                              dtype=np.float64)
        except ValueError as exc:
            raise FrameError(f"unparseable value: {exc}") from None
        return cls(columns=columns, data=values.reshape(len(lines), len(columns)))

    @classmethod
    def from_canonical_bytes(cls, blob: bytes) -> "Frame":
        try:
            text = blob.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise FrameError(f"data is not UTF-8: {exc}") from None
        return cls.from_canonical_text(text)

    def to_json_obj(self) -> dict:
        return {"columns": list(self.columns), "rows": self.data.tolist()}

    @classmethod
    def from_json_obj(cls, obj: Mapping) -> "Frame":
        rows = obj["rows"]
        columns = tuple(obj["columns"])
        data = np.array(rows, dtype=np.float64).reshape(len(rows), len(columns))
        return cls(columns=columns, data=data)

    @classmethod
    def from_columns(cls, named: Sequence[tuple[str, Iterable[float]]]) -> "Frame":
        columns = tuple(name for name, _ in named)
        data = np.column_stack([np.asarray(vals, dtype=np.float64) for _, vals in named])
        return cls(columns=columns, data=data)
