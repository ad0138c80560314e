"""Result rendering: fixed-width tables plus persisted result files."""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite, isnan
from pathlib import Path


def _format_cell(value) -> str:
    if isinstance(value, float):
        if isnan(value):
            return "nan"
        if not isfinite(value):
            return "inf" if value > 0 else "-inf"
        if value == 0:  # covers -0.0: a sign on zero is table noise
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.3g}"
        return f"{value:.4g}"
    return str(value)


@dataclass
class Table:
    """A paper artifact reproduction: title, columns, rows, commentary.

    ``notes`` carries the paper-vs-measured commentary that also lands in
    ``EXPERIMENTS.md``.
    """

    title: str
    headers: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        if len(values) != len(self.headers):
            raise ValueError(
                f"row has {len(values)} cells, table has {len(self.headers)} columns"
            )
        self.rows.append(list(values))

    def column(self, name: str) -> list:
        """Values of one column, by header name."""
        try:
            idx = self.headers.index(name)
        except ValueError:
            raise KeyError(f"no column {name!r} in {self.headers}") from None
        return [row[idx] for row in self.rows]

    def render(self) -> str:
        cells = [[_format_cell(c) for c in row] for row in self.rows]
        widths = [
            max(len(h), *(len(r[i]) for r in cells)) if cells else len(h)
            for i, h in enumerate(self.headers)
        ]
        lines = [self.title, "=" * len(self.title)]
        lines.append("  ".join(h.rjust(w) for h, w in zip(self.headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in cells:
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def save(self, directory: str | Path, name: str) -> Path:
        """Write the rendered table to ``<directory>/<name>.txt``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(self.render() + "\n")
        return path

    def __str__(self) -> str:  # pragma: no cover - convenience
        return self.render()
