"""Real-socket Sprout transport (the paper's artifact ran over real UDP).

The rest of the repository measures Sprout inside the deterministic
trace-driven emulator.  This package runs the *same* protocol objects —
:class:`~repro.core.sender.SproutSender` and
:class:`~repro.core.receiver.SproutReceiver`, unmodified — over actual UDP
datagrams, opening the emulation-vs-reality scenario axis
(``docs/transport.md``):

* :mod:`repro.transport.wire` — the struct-packed, versioned wire format
  for data/feedback/close frames, including the mod-2\\ :sup:`16` sequence
  arithmetic helpers;
* :mod:`repro.transport.reliable` — socket-free selective-repeat machinery:
  the sender-side retransmit buffer with SACK-driven loss detection, the
  receiver-side reorder/dedup window, and the RFC 6298-style adaptive RTO
  (SRTT/RTTVAR) that paces retransmissions when the feedback channel goes
  quiet;
* :mod:`repro.transport.endpoint` — UDP endpoints, a sender and a receiver
  role on one shared socket lifecycle: a wall-clock
  :class:`~repro.transport.endpoint.WallClockContext` stands in for the
  simulator's ``HostContext``, and a
  :class:`~repro.core.forecaster.TickFromWallClock` adapter maps real time
  onto the forecaster's 20 ms tick lattice;
* :mod:`repro.transport.impair` — the seed-deterministic adversarial
  impairment pipeline (``--impair``, and ``--loss`` as its sender-side
  ``loss`` stage): uniform and Gilbert–Elliott bursty loss, reordering,
  duplication, byte corruption, rate throttling, and blackout windows
  composed per direction at the socket boundary — the transport's only
  injector — plus the
  :class:`~repro.transport.impair.EventRing` /
  :class:`~repro.transport.impair.PeerQuarantine` lifecycle helpers;
* :mod:`repro.transport.harness` — the live measurement harness behind
  ``repro live``: sized transfers over loopback with configurable repeats,
  deterministic impairment injection, a watchdog that turns
  hangs into structured :class:`~repro.transport.endpoint.TransferAborted`
  diagnoses, and throughput / per-packet delay percentile reporting in the
  same :class:`~repro.metrics.summary.SchemeResult` shape the sweep/export
  stack consumes.

Everything here is stdlib ``socket``/``select`` plus the repo's own code —
no new dependencies.
"""

from repro.transport.endpoint import (  # noqa: F401
    TransferAborted,
    TransferDiagnosis,
    default_watchdog,
)
from repro.transport.harness import (  # noqa: F401
    LiveConfig,
    LiveTransferResult,
    run_live_suite,
    run_live_transfer,
    sockets_available,
)
from repro.transport.impair import (  # noqa: F401
    EventRing,
    ImpairSpecError,
    ImpairmentPipeline,
    PeerQuarantine,
    build_pipelines,
    parse_impair_spec,
)
from repro.transport.reliable import AdaptiveRTO, ReorderWindow, RetransmitBuffer  # noqa: F401
from repro.transport.wire import (  # noqa: F401
    DataFrame,
    FeedbackFrame,
    WIRE_VERSION,
    WireFormatError,
    decode_frame,
)
