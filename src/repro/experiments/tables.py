"""Result tables for the experiment harness.

Every experiment returns an :class:`ExperimentResult`: an identifier, a
title, a list of rows (dictionaries) and free-form notes.  The result
renders itself as an aligned text table, which is what the benchmark
harness prints so that the regenerated numbers can be compared with the
paper's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence


@dataclass
class ExperimentResult:
    """The outcome of one experiment (one table or figure of the paper)."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: str = ""

    def add_row(self, **values) -> None:
        self.rows.append(dict(values))

    def columns(self) -> List[str]:
        ordered: List[str] = []
        for row in self.rows:
            for column in row:
                if column not in ordered:
                    ordered.append(column)
        return ordered

    def column(self, name: str) -> List[object]:
        """All values of one column (missing cells become ``None``)."""
        return [row.get(name) for row in self.rows]

    def render(self) -> str:
        """Aligned text table with the experiment id and title on top."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        if not self.rows:
            lines.append("  (no rows)")
            return "\n".join(lines)
        columns = self.columns()
        rendered_rows = [
            {column: _format_cell(row.get(column)) for column in columns} for row in self.rows
        ]
        widths = {
            column: max(len(column), *(len(row[column]) for row in rendered_rows))
            for column in columns
        }
        header = "  " + " | ".join(column.ljust(widths[column]) for column in columns)
        separator = "  " + "-+-".join("-" * widths[column] for column in columns)
        lines.append(header)
        lines.append(separator)
        for row in rendered_rows:
            lines.append("  " + " | ".join(row[column].ljust(widths[column]) for column in columns))
        if self.notes:
            lines.append(f"  note: {self.notes}")
        return "\n".join(lines)

    def __str__(self):
        return self.render()


def _format_cell(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.3f}"
    return str(value)
