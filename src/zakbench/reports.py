"""The verdict type, the report writer, and the sample-file codec.

Each report is a frozen dataclass, declared in the one layer that fills
it (expsys.SweepReport, zak.LadderReport and zak.ZakValidationReport,
reproducing.ExcessReport and reproducing.RpCheckReport).  Every field
holds a plain JSON value, so the fields as they are form the JSON
object written to disk, the report's ``asdict`` image.  Reports carry
every parameter that went into the run plus the measured values and
pass/fail flags, so a report file is reproducible from its own
content together with the seed.  Timestamps never enter these records;
the writer attaches them in a separate metadata field so two runs with
the same configuration and seed serialise to identical bytes.  The
sample files of weights and theta grids share one writer and one parser
here.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["Verdict", "dump_report_json"]


@dataclass(frozen=True)
class Verdict:
    """A report with the outcome of its pass rule.

    ``detail`` is a one-line summary of the values behind ``passed``;
    ``rows`` holds (level, value, flag) rows for the CSV.
    """

    report: Any
    passed: bool
    detail: str
    rows: list[tuple]


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
    header, payload shape, boolean or non-finite sample raises a
    one-line ValueError.
    """
    payload = json.loads(Path(path).read_text())
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
