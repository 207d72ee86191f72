"""Deterministic fault injection for the experiment engine.

The fault-tolerance layer (``docs/robustness.md``) is only trustworthy if
every recovery path is exercised end-to-end: a worker raising mid-cell, a
worker hanging past the cell timeout, a worker exiting hard (taking the
process pool with it), and a model artifact gone bad.  Real
versions of those faults are flaky by nature; this module injects them
*deterministically*, driven by an environment variable so the injection
crosses process boundaries into pool workers for free (the pool forks or
spawns workers with the parent's environment).

Arming the harness::

    REPRO_FAULT_SPEC='[{"kind": "crash", "scheme": "Vegas", "times": 1}]'

The value is a JSON list of clause objects.  Each clause:

``kind``
    ``crash`` — raise :class:`InjectedFault` from inside the cell;
    ``hang`` — sleep ``seconds`` (default 3600) before running the cell,
    so a ``cell_timeout`` expires first;
    ``exit`` — ``os._exit(exit_code)``, killing the worker process hard
    (this is what breaks a ``ProcessPoolExecutor``);
    ``corrupt`` — drop every rate model this process holds (the
    :func:`~repro.core.rate_model.shared_rate_model` memo), then (when
    ``strict``) raise :class:`InjectedCorruptArtifact` so the cell fails
    and its *retry* must rebuild the model from scratch.
``scheme``, ``link``
    ``fnmatch`` patterns against the cell's scheme/link display names;
    default ``"*"``.
``index``
    Restrict to one batch position (the engine passes each cell's index);
    default matches any.  Use this to target one cell of a grid whose
    cells share a scheme and link.
``times``
    Fire only while the cell's attempt number is ≤ ``times``; ``null``
    (default) fires on every attempt.  ``"times": 1`` makes a
    retry-then-succeed cell.
``probability``, ``seed``
    Bernoulli gate, deterministic: the decision hashes (seed, kind,
    scheme, link, attempt), so reruns of the same spec make identical
    choices.  Default probability 1.0.
``seconds``, ``exit_code``, ``strict``
    Knobs of ``hang`` / ``exit`` / ``corrupt`` respectively.

The hook (:func:`fire_faults`) is called by the engine's cell entry point
and costs one environment lookup when unarmed — the no-fault path stays
bit-identical and effectively free.
"""

from __future__ import annotations

import fnmatch
import hashlib
import json
import os
import time
from dataclasses import dataclass, fields
from typing import List, Optional

#: environment variable carrying the JSON fault spec
FAULT_SPEC_ENV = "REPRO_FAULT_SPEC"

FAULT_KINDS = ("crash", "hang", "exit", "corrupt")


class InjectedFault(RuntimeError):
    """Raised by a ``crash`` clause (and identifies injected failures)."""


class InjectedCorruptArtifact(RuntimeError):
    """Raised by a strict ``corrupt`` clause after dropping the model artifacts."""


@dataclass(frozen=True)
class FaultClause:
    """One parsed clause of a ``REPRO_FAULT_SPEC`` list."""

    kind: str
    scheme: str = "*"
    link: str = "*"
    index: Optional[int] = None
    times: Optional[int] = None
    probability: float = 1.0
    seed: int = 0
    seconds: float = 3600.0
    exit_code: int = 42
    strict: bool = True

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"fault kind must be one of {', '.join(FAULT_KINDS)}; "
                f"got {self.kind!r}"
            )
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.times is not None and self.times < 1:
            raise ValueError(f"times must be at least 1, got {self.times}")

    def matches(
        self, scheme: str, link: str, attempt: int, index: Optional[int]
    ) -> bool:
        if not fnmatch.fnmatchcase(scheme, self.scheme):
            return False
        if not fnmatch.fnmatchcase(link, self.link):
            return False
        if self.index is not None and index != self.index:
            return False
        if self.times is not None and attempt > self.times:
            return False
        if self.probability < 1.0:
            if _coin(self.seed, self.kind, scheme, link, attempt) >= self.probability:
                return False
        return True


def _coin(seed: int, kind: str, scheme: str, link: str, attempt: int) -> float:
    """Deterministic uniform [0, 1) draw for one (clause, cell, attempt)."""
    digest = hashlib.sha256(
        f"{seed}|{kind}|{scheme}|{link}|{attempt}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def parse_fault_spec(text: str) -> List[FaultClause]:
    """Parse the JSON clause list; unknown keys and bad shapes are errors."""
    try:
        raw = json.loads(text)
    except ValueError as error:
        raise ValueError(f"{FAULT_SPEC_ENV} is not valid JSON: {error}") from error
    if not isinstance(raw, list):
        raise ValueError(f"{FAULT_SPEC_ENV} must be a JSON list of clause objects")
    known = {f.name for f in fields(FaultClause)}
    clauses = []
    for entry in raw:
        if not isinstance(entry, dict):
            raise ValueError(f"fault clause must be an object, got {entry!r}")
        unknown = set(entry) - known
        if unknown:
            raise ValueError(
                f"unknown fault clause keys: {', '.join(sorted(unknown))}"
            )
        clauses.append(FaultClause(**entry))
    return clauses


def _drop_model_artifacts() -> None:
    """Forget every rate model this process holds, so the next one builds."""
    from repro.core.rate_model import clear_shared_models

    clear_shared_models()


def _fire(clause: FaultClause, scheme: str, link: str, attempt: int) -> None:
    if clause.kind == "crash":
        raise InjectedFault(
            f"injected crash in cell ({scheme}, {link}) attempt {attempt}"
        )
    if clause.kind == "hang":
        time.sleep(clause.seconds)
        return
    if clause.kind == "exit":
        os._exit(clause.exit_code)
    if clause.kind == "corrupt":
        _drop_model_artifacts()
        if clause.strict:
            raise InjectedCorruptArtifact(
                f"injected loss of the model artifacts before "
                f"cell ({scheme}, {link}) attempt {attempt}"
            )


def fire_faults(
    scheme: str, link: str, attempt: int = 1, index: Optional[int] = None
) -> None:
    """Fire every armed fault clause matching this cell execution.

    Called by the engine at the top of each cell attempt (in whichever
    process runs the cell).  A missing or empty ``REPRO_FAULT_SPEC`` is a
    single dict lookup — the production path pays nothing.
    """
    spec = os.environ.get(FAULT_SPEC_ENV)
    if not spec:
        return
    for clause in parse_fault_spec(spec):
        if clause.matches(scheme, link, attempt, index):
            _fire(clause, scheme, link, attempt)
