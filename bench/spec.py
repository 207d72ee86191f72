"""What ``BENCHMARK.json`` fixes: workload and metric names, units, bounds.

Imported by the driver process, which never imports ``repro``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent

#: workers of the program's own pool, the only concurrency in a run
J = min(2, os.cpu_count() or 1)

#: ``--seconds`` at which the frozen sizes in ``workloads.py`` apply
NOMINAL_SECONDS = 10


def load() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def workload_names(spec: dict) -> List[str]:
    return [w["name"] for w in spec["workloads"]]


def metrics_by_name(spec: dict, kind: str) -> Dict[str, dict]:
    """``kind`` is ``end_to_end`` or ``per_layer``; insertion order kept."""
    return {m["name"]: m for m in spec[kind]}
