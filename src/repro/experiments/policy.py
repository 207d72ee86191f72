"""Fault-tolerance policy layer for the experiment engine.

Fail-fast alone — the first cell exception aborts the whole batch, a worker
dying hard (OOM kill, ``os._exit``) tears down the shared process pool with
it — turns one poison cell into a total loss on the grids the ROADMAP aims
at, hours of emulation across thousands of cells.  This module holds the
*policy* vocabulary that the one pooled engine of
:mod:`repro.experiments.parallel` executes; the policy selects outcomes
(and the engine's in-flight window), never a code path:

* :class:`ErrorPolicy` — what to do when a cell fails: ``fail_fast`` (the
  default: propagate and cancel the rest), ``collect`` (record a structured
  :class:`CellError` in the cell's result slot and keep going), or
  ``retry`` (re-run the cell up to ``retries`` times, then record).  The
  policy also carries the per-cell wall-clock timeout, the checkpoint
  journal path, and the pool-rebuild bound.
* :class:`CellError` — the structured record of one failed cell: the cell
  identity (scheme, link), the exception type and message, the full
  traceback text, how many attempts were made, and the failure kind
  (``error`` / ``timeout``).  It occupies the failed cell's position in the
  result list, so grid slicing stays positional, and it flows through the
  exports and the report's failure sections.
* :class:`CheckpointJournal` — an append-only JSONL journal of completed
  :class:`~repro.metrics.summary.SchemeResult` rows keyed on cell *content*
  (:func:`cell_key`), so an interrupted grid resumes by re-running only the
  cells that never finished.

Everything here is engine-agnostic: no imports from the execution modules,
so every engine and the CLI can import the policy types without cycles.
See ``docs/robustness.md`` for the user-level story.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import traceback as traceback_module
from dataclasses import dataclass, fields
from typing import Any, Dict, Optional, Tuple

from repro.cache import content_key
from repro.metrics.summary import SchemeResult

#: the three failure-handling modes, in documentation order
ERROR_MODES = ("fail_fast", "collect", "retry")

#: bump when the checkpoint line format or the cell-key payload changes;
#: stale journals from another version are then simply not matched
CHECKPOINT_FORMAT_VERSION = 1


class CellTimeoutError(RuntimeError):
    """A cell exceeded its :attr:`ErrorPolicy.cell_timeout` wall-clock."""


class IncompleteBatchError(RuntimeError):
    """The engine finished a batch with unfilled cell slots.

    This is the completeness invariant of ``run_cells``: every cell index
    must end up holding either a ``SchemeResult`` or a :class:`CellError`.
    A hole means an engine bug (or a worker returning ``None``) and is
    reported loudly with the missing indices instead of being silently
    dropped from the result list.
    """

    def __init__(self, missing, total: int):
        self.missing = list(missing)
        self.total = total
        shown = ", ".join(str(i) for i in self.missing[:20])
        if len(self.missing) > 20:
            shown += ", ..."
        super().__init__(
            f"cell runner lost {len(self.missing)} of {total} cells "
            f"(indices {shown}); every cell must produce a SchemeResult or "
            "a CellError — this indicates an engine bug or a worker that "
            "returned None"
        )


@dataclass(frozen=True)
class ErrorPolicy:
    """How a batch of cells responds to per-cell failure.

    Attributes:
        on_error: ``"fail_fast"`` propagates the first cell exception and
            cancels the rest (the default);
            ``"collect"`` records a :class:`CellError` in the failed cell's
            slot and keeps going; ``"retry"`` re-runs a failed cell before
            recording (``collect`` with a retry budget).
        retries: extra attempts granted to a failing cell before its error
            is recorded.  Honored by both ``collect`` and ``retry``
            (``retry`` defaults it to 1 when left at 0); ignored by
            ``fail_fast``.
        cell_timeout: per-cell wall-clock limit in seconds, enforced on the
            process-pool path by terminating the hung worker's pool and
            healing it.  ``None`` disables.  The serial path (``jobs=1``)
            cannot preempt a running cell and ignores the timeout.
        checkpoint: path of the resume journal (:class:`CheckpointJournal`).
            When set, completed cells are journaled as they finish and a
            later run over the same cells skips the ones already recorded.
        max_pool_rebuilds: how many times one batch may rebuild a broken
            (or deliberately killed, after a timeout) worker pool before
            degrading to serial in-parent execution for the remainder.
    """

    on_error: str = "fail_fast"
    retries: int = 0
    cell_timeout: Optional[float] = None
    checkpoint: Optional[str] = None
    max_pool_rebuilds: int = 8

    def __post_init__(self) -> None:
        if self.on_error not in ERROR_MODES:
            raise ValueError(
                f"on_error must be one of {', '.join(ERROR_MODES)}; "
                f"got {self.on_error!r}"
            )
        if self.retries < 0:
            raise ValueError(f"retries must be non-negative, got {self.retries}")
        if self.on_error == "retry" and self.retries == 0:
            object.__setattr__(self, "retries", 1)
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError(
                f"cell_timeout must be positive seconds, got {self.cell_timeout}"
            )
        if self.max_pool_rebuilds < 0:
            raise ValueError(
                f"max_pool_rebuilds must be non-negative, got {self.max_pool_rebuilds}"
            )

    @property
    def fail_fast(self) -> bool:
        """Whether failures propagate instead of being recorded."""
        return self.on_error == "fail_fast"

    @property
    def retry_budget(self) -> int:
        """Extra attempts granted per failing cell under this policy."""
        return 0 if self.fail_fast else self.retries


@dataclass
class CellError:
    """Structured record of one failed matrix cell.

    Occupies the failed cell's position in the engine's result list under
    the ``collect``/``retry`` policies, exactly where the
    :class:`~repro.metrics.summary.SchemeResult` would have been, so grid
    slicing and point chunking stay positional.
    """

    scheme: str
    link: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1
    #: ``"error"`` (the cell raised) or ``"timeout"`` (cell_timeout expired)
    kind: str = "error"

    def as_dict(self) -> dict:
        return {
            "scheme": self.scheme,
            "link": self.link,
            "error_type": self.error_type,
            "message": self.message,
            "traceback": self.traceback,
            "attempts": self.attempts,
            "kind": self.kind,
        }

    @property
    def summary(self) -> str:
        """``"RuntimeError: boom"`` — the one-line rendering."""
        return f"{self.error_type}: {self.message}"

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "CellError":
        known = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})

    @classmethod
    def from_exception(
        cls,
        cell: Tuple[Any, Any, Any],
        error: BaseException,
        attempts: int = 1,
        kind: str = "error",
    ) -> "CellError":
        scheme, link, _ = cell
        formatted = "".join(
            traceback_module.format_exception(type(error), error, error.__traceback__)
        )
        return cls(
            scheme=cell_scheme_name(scheme),
            link=cell_link_name(link),
            error_type=type(error).__name__,
            message=str(error),
            traceback=formatted,
            attempts=attempts,
            kind=kind,
        )


def cell_scheme_name(scheme: Any) -> str:
    """Display name of a cell's scheme (a registry name or a spec)."""
    return scheme if isinstance(scheme, str) else getattr(scheme, "name", str(scheme))


def cell_link_name(link: Any) -> str:
    """Display name of a cell's link (a registry name or a spec)."""
    return link if isinstance(link, str) else getattr(link, "name", str(link))


def is_cell_error(outcome: Any) -> bool:
    """Whether one engine outcome is a failure record."""
    return isinstance(outcome, CellError)


# ------------------------------------------------------------ cell identity


def _describe_callable(value: Any) -> Tuple:
    """A stable (address-free) description of a factory callable.

    ``functools.partial`` factories (the registry's ``sprout_variant``
    idiom) decompose into the wrapped function plus the ``repr`` of their
    arguments — dataclass reprs, so deterministic across processes and
    runs.  Plain functions describe as module + qualname.  Anything else
    falls back to ``repr``, which may embed a memory address: such cells
    get a fresh key every run, so they are re-executed rather than ever
    wrongly skipped on resume.
    """
    if isinstance(value, functools.partial):
        return (
            "partial",
            _describe_callable(value.func),
            repr(value.args),
            repr(sorted((value.keywords or {}).items())),
        )
    qualname = getattr(value, "__qualname__", None)
    if qualname is not None:
        return ("callable", getattr(value, "__module__", ""), qualname)
    return ("repr", repr(value))


def describe_cell(cell: Tuple[Any, Any, Any]) -> Tuple:
    """The canonical content payload behind :func:`cell_key`.

    Covers everything that determines the cell's result: the scheme
    identity (name, category, queue options, and the full factory
    configuration for ad-hoc variants), the link spec (the dataclass repr
    covers the channel model, queue config, and propagation settings), and
    the run parameters.  The batch's error policy is no part of a cell, so a
    resume under a different policy still matches.
    """
    scheme, link, config = cell
    if isinstance(scheme, str):
        scheme_payload: Tuple = ("name", scheme)
    else:
        scheme_payload = (
            "spec",
            getattr(scheme, "name", ""),
            getattr(scheme, "category", ""),
            getattr(scheme, "use_codel", False),
            _describe_callable(getattr(scheme, "factory", None)),
        )
    link_payload = ("name", link) if isinstance(link, str) else ("spec", repr(link))
    config_payload = ("default",) if config is None else ("config", repr(config))
    return (CHECKPOINT_FORMAT_VERSION, scheme_payload, link_payload, config_payload)


def cell_key(cell: Tuple[Any, Any, Any]) -> str:
    """Content key of one cell (sha256 over :func:`describe_cell`)."""
    return content_key(describe_cell(cell))


# -------------------------------------------------------------- checkpoints


class CheckpointJournal:
    """Append-only JSONL journal of completed cells, keyed on content.

    One line per completed cell::

        {"v": 1, "key": "<sha256 of describe_cell(...)>", "result": {...}}

    ``result`` is :meth:`SchemeResult.as_dict`.  Lines are flushed as they
    are written, so a run killed mid-grid loses at most the in-flight
    cells; :meth:`load` stops at the first unparsable line, which makes a
    torn final line (the crash case) harmless.  Only *successful* results
    are journaled — failed cells are re-executed on resume by design.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None

    def load(self) -> Dict[str, SchemeResult]:
        """Every journaled result, keyed by cell key; ``{}`` if no file."""
        entries: Dict[str, SchemeResult] = {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    try:
                        record = json.loads(line)
                        if record.get("v") != CHECKPOINT_FORMAT_VERSION:
                            continue
                        entries[record["key"]] = SchemeResult.from_dict(
                            record["result"]
                        )
                    except (ValueError, KeyError, TypeError):
                        # A torn tail (the writer was killed mid-line) ends
                        # the readable prefix; everything before it stands.
                        break
        except OSError:
            return {}
        return entries

    def record(self, key: str, result: SchemeResult) -> None:
        """Append one completed cell (thread-safe, flushed immediately)."""
        line = json.dumps(
            {"v": CHECKPOINT_FORMAT_VERSION, "key": key, "result": result.as_dict()}
        )
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a", encoding="utf-8")
            self._handle.write(line + "\n")
            self._handle.flush()

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None
