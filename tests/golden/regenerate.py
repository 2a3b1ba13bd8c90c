"""Rewrite the golden payloads from the current tree: python tests/golden/regenerate.py

Each file is the report of one op of tests/test_golden.py's OPS at
--seed 1, without ``metadata``, as json.dumps(indent=2, sort_keys=True).
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE.parent)]

from test_golden import run_ops  # noqa: E402

with tempfile.TemporaryDirectory() as tmp:
    for name, payload in run_ops(Path(tmp)).items():
        (HERE / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {HERE / name}.json")
