"""Execution-trace recording and PO atomic broadcast property checking.

The paper specifies Zab by six properties (integrity, total order,
agreement, local primary order, global primary order, primary integrity).
This package turns them into executable checks: peers record broadcast and
delivery events into a :class:`Trace`, and :mod:`repro.checker.properties`
validates a finished trace, returning a structured report of violations.
The same checker runs against the Paxos baseline, where it *detects* the
primary-order violations the paper uses to motivate Zab (experiment E4).
"""

from repro.checker.properties import check_all, PropertyReport, Violation
from repro.checker.trace import BroadcastEvent, DeliveryEvent, Trace

__all__ = [
    "Trace",
    "BroadcastEvent",
    "DeliveryEvent",
    "check_all",
    "PropertyReport",
    "Violation",
]
