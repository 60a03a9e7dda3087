"""Run traces: per-step records plus a reproducibility header, as CSV.

The on-disk format is a ``#``-prefixed header block (config snapshot,
block manifest, seed), a CSV column row, then one row per step.  Floats
are written with ``repr`` (shortest round-trip form) so a given run
always produces byte-identical files.  A header that reads two ways
(config line without ``=``, config key or seed set twice) does not load.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .blocked import BlockPartition

__all__ = ["RunTrace", "TraceFormatError"]

FIXED_COLUMNS = ("step", "lr", "loss", "grad_l2", "grad_phi", "update_l2", "param_mean")


class TraceFormatError(ValueError):
    """Trace file does not parse."""


def _header_int(text: str, lineno: int) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise TraceFormatError(f"line {lineno}: {exc}") from None


@dataclass
class RunTrace:
    """In-memory trace: header metadata and per-step column arrays."""

    partition: BlockPartition
    seed: int
    config: dict[str, str]
    rows: list[list[float]] = field(default_factory=list)
    diverged_at: int | None = None

    @property
    def columns(self) -> tuple[str, ...]:
        return FIXED_COLUMNS + tuple(f"bnorm_{name}" for name in self.partition.names)

    def append(
        self,
        step: int,
        lr: float,
        loss: float,
        grad_l2: float,
        grad_phi: float,
        update_l2: float,
        param_mean: float,
        block_norms: list[float],
    ) -> None:
        if len(block_norms) != self.partition.D:
            raise ValueError("wrong number of block norms")
        # coerce to builtin floats: repr() of numpy scalars would not parse back
        row = [step, lr, loss, grad_l2, grad_phi, update_l2, param_mean, *block_norms]
        self.rows.append([float(v) for v in row])

    def column(self, name: str) -> np.ndarray:
        try:
            j = self.columns.index(name)
        except ValueError:
            raise KeyError(f"unknown trace column {name!r}") from None
        return np.array([row[j] for row in self.rows])

    @property
    def steps(self) -> int:
        return len(self.rows)

    # attribute-style access used by the convergence audit
    @property
    def grad_l2(self) -> np.ndarray:
        return self.column("grad_l2")

    @property
    def grad_phi(self) -> np.ndarray:
        return self.column("grad_phi")

    @property
    def loss(self) -> np.ndarray:
        return self.column("loss")

    @property
    def lr(self) -> np.ndarray:
        return self.column("lr")

    # -- serialization -------------------------------------------------------

    def dumps(self) -> str:
        lines = []
        for key in sorted(self.config):
            lines.append(f"# config {key} = {self.config[key]}")
        for manifest_line in self.partition.manifest().splitlines():
            lines.append(f"# block {manifest_line}")
        lines.append(f"# seed {self.seed}")
        lines.append(",".join(self.columns))
        for row in self.rows:
            cells = [str(int(row[0]))] + [repr(v) for v in row[1:]]
            lines.append(",".join(cells))
        if self.diverged_at is not None:
            lines.append(f"# diverged step={self.diverged_at}")
        return "\n".join(lines) + "\n"

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.dumps())

    @classmethod
    def loads(cls, text: str) -> "RunTrace":
        config: dict[str, str] = {}
        manifest_lines: list[str] = []
        seed = None
        diverged_at = None
        header_row: list[str] | None = None
        rows: list[list[float]] = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if body.startswith("config "):
                    key, eq, value = (part.strip() for part in body[len("config "):].partition("="))
                    if not eq:
                        raise TraceFormatError(f"line {lineno}: config line has no '='")
                    if key in config:
                        raise TraceFormatError(f"line {lineno}: config {key} is set twice")
                    config[key] = value
                elif body.startswith("block "):
                    manifest_lines.append(body[len("block "):])
                elif body.startswith("seed "):
                    if seed is not None:
                        raise TraceFormatError(f"line {lineno}: seed is set twice")
                    seed = _header_int(body[len("seed "):], lineno)
                elif body.startswith("diverged step="):
                    diverged_at = _header_int(body[len("diverged step="):], lineno)
                continue
            if header_row is None:
                header_row = line.split(",")
                continue
            cells = line.split(",")
            if len(cells) != len(header_row):
                raise TraceFormatError(f"line {lineno}: {len(cells)} cells, the column row has {len(header_row)}")
            try:
                rows.append([float(cell) for cell in cells])
            except ValueError as exc:
                raise TraceFormatError(f"line {lineno}: {exc}") from None
        if header_row is None:
            raise TraceFormatError("no column header found")
        if seed is None:
            raise TraceFormatError("no seed in header")
        if not manifest_lines:
            raise TraceFormatError("no block manifest in header")
        try:
            partition = BlockPartition.from_manifest("\n".join(manifest_lines))
        except ValueError as exc:
            raise TraceFormatError(f"block manifest: {exc}") from None
        trace = cls(partition=partition, seed=seed, config=config, rows=rows, diverged_at=diverged_at)
        if tuple(header_row) != trace.columns:
            raise TraceFormatError(f"column row {header_row} does not match manifest-derived columns")
        return trace

    @classmethod
    def read(cls, path) -> "RunTrace":
        """``loads`` of a UTF-8 file; a format or decode error names the path."""
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return cls.loads(fh.read())
        except (TraceFormatError, UnicodeDecodeError) as exc:
            raise TraceFormatError(f"{path}: {exc}") from None
