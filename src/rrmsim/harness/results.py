"""Tabular sweep results and their CSV persistence.

The CSV format is fixed: UTF-8, LF line endings, header
`experiment,sweep_name,sweep_value,metric,value,ci_half_width,seed`, floats
printed with 9 significant digits. Identical result sets serialize to
byte-identical files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

CSV_HEADER = "experiment,sweep_name,sweep_value,metric,value,ci_half_width,seed"


def fmt9(value) -> str:
    """Format a number with 9 significant digits."""
    return f"{float(value):.9g}"


@dataclass(frozen=True)
class Row:
    experiment: str
    sweep_name: str
    sweep_value: float | str
    metric: str
    value: float
    ci_half_width: float | None
    seed: int

    def __post_init__(self):
        if not math.isfinite(self.value):
            raise ValueError(f"metric {self.metric}: value must be finite")


@dataclass
class ResultSet:
    """Result rows in the order they were added."""

    rows: list[Row] = field(default_factory=list)

    def add(
        self,
        experiment: str,
        sweep_name: str,
        sweep_value,
        metric: str,
        value: float,
        ci_half_width: float | None = None,
        seed: int = 0,
    ) -> None:
        self.rows.append(
            Row(experiment, sweep_name, sweep_value, metric, float(value), ci_half_width, seed)
        )


def emit_csv(results: ResultSet, path) -> None:
    """Write a result set in the fixed CSV format.

    Raises:
        ValueError: empty result set.
        OSError: I/O failure.
    """
    if not results.rows:
        raise ValueError("refusing to write an empty result set")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        for r in results.rows:
            sweep = r.sweep_value if isinstance(r.sweep_value, str) else fmt9(r.sweep_value)
            ci = "" if r.ci_half_width is None else fmt9(r.ci_half_width)
            fh.write(
                f"{r.experiment},{r.sweep_name},{sweep},{r.metric},"
                f"{fmt9(r.value)},{ci},{r.seed}\n"
            )
