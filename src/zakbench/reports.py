"""The verdict type, the report writer, and the sample-file codec.

A Verdict pairs a report with its table of checks, the command's whole
pass rule; a flag the report carries is the ok of its row, so each rule
is evaluated once.  Each report is a frozen dataclass of plain JSON values,
declared in the layer that fills it, and carries every parameter of the
run with the measured values, so with the seed a report file is
reproducible from its own content.  The writer puts the timestamp and
the checks in a separate metadata field, so equal runs serialise to
identical bytes without it.  The sample files of weights and theta
grids share one writer and one parser here.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["Verdict", "dump_report_json"]


def _check(value: float, limit: float, bound: str = "upper") -> dict:
    """A row of Verdict.checks, ok when value <= limit ("upper") or value >= limit ("lower")."""
    ok = value <= limit if bound == "upper" else value >= limit
    return {"value": float(value), "limit": float(limit), "bound": bound, "ok": bool(ok)}


@dataclass(frozen=True)
class Verdict:
    """A report and its checks, each name mapped to a row from _check.

    It passes when every row is ok; ``detail`` names the failing rows.
    ``rows`` are the CSV rows: the levels a verdict gives, else one
    (name, value, ok) row per check.
    """

    report: Any
    checks: dict[str, dict]
    rows: list[tuple] | None = None

    def __post_init__(self):
        if self.rows is None:
            object.__setattr__(self, "rows", [(name, c["value"], c["ok"]) for name, c in self.checks.items()])

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks.values())

    @property
    def detail(self) -> str:
        failing = sorted(name for name, c in self.checks.items() if not c["ok"])
        return f"failing: {', '.join(failing)}" if failing else "all checks passed"


def dump_report_json(report: Any, metadata: dict) -> str:
    """Serialise a report deterministically, with metadata under "metadata".

    The payload is key-sorted so byte equality only depends on the data.
    Anything run-specific (timestamps, host names) belongs in metadata,
    which comparers are expected to drop.
    """
    # A shallow read: asdict's deep copy of the sweep's levels costs milliseconds and encodes the same.
    payload = {f.name: getattr(report, f.name) for f in dataclasses.fields(report)}
    payload["metadata"] = metadata
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_samples(path: str | Path, header: dict, samples: np.ndarray) -> None:
    """Write the header items, then "samples" as [re, im] pairs in row-major order."""
    pairs = np.ascontiguousarray(samples, dtype=complex).view(np.float64).reshape(-1, 2)
    payload = {**header, "samples": pairs.tolist()}
    Path(path).write_text(json.dumps(payload) + "\n")


def _read_samples(path: str | Path, size_key: str, header: dict, ndim: int) -> np.ndarray:
    """Samples of a file from _write_samples, shaped (size,) * ndim.

    ``size`` is the positive integer under ``size_key``.  Any other
    header, payload shape, boolean or non-finite sample, file that is
    not UTF-8 JSON, or nesting too deep to decode, raises a one-line
    ValueError.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except RecursionError:
        raise ValueError("sample file nests deeper than the JSON decoder can read") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"sample file is not UTF-8: {exc.reason} at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"sample file is not JSON: {exc}") from None
    if not isinstance(payload, dict):
        raise ValueError(f"sample file must hold a JSON object, got {type(payload).__name__}")
    for key, value in header.items():
        if payload.get(key) != value:
            raise ValueError(f"unsupported {key} {payload.get(key)!r}")
    size = payload.get(size_key)
    if type(size) is not int or size < 1:  # JSON true loads as a bool, which is an int
        raise ValueError(f"{size_key} must be a positive integer, got {size!r}")
    pairs = payload.get("samples")
    try:
        samples = np.array([complex(re, im) for re, im in pairs], dtype=complex)
        if any(type(part) is bool for pair in pairs for part in pair):
            raise TypeError  # complex() takes JSON true and false as 1 and 0
    except (TypeError, ValueError, OverflowError):
        raise ValueError("samples must be a list of [re, im] number pairs") from None
    if samples.size != size**ndim:
        raise ValueError(f"sample count does not match declared {size_key}")
    if not np.all(np.isfinite(samples)):
        raise ValueError("samples must be finite")
    return samples.reshape((size,) * ndim)
