"""Failure classification and retry backoff shared by every supervisor.

The sweep harness (inline and isolated) and the service queue retry
failed attempts on the same two rules, kept here in a dependency-free
leaf module so the inline sweep path can use them without importing the
process supervisor in :mod:`repro.service.workers`.
"""

from __future__ import annotations

from typing import Any

__all__ = ["PERMANENT_ERRORS", "retry_delay"]

#: error classes retrying cannot fix: deterministic programming or
#: configuration mistakes.  Everything else — worker crashes, timeouts,
#: OS-level I/O hiccups — is treated as transient and retried.
PERMANENT_ERRORS = (
    ValueError,
    TypeError,
    KeyError,
    AttributeError,
    NotImplementedError,
)


def retry_delay(
    attempt: int, backoff: float, *, cap: float = 30.0, rng: Any = None
) -> float:
    """Seconds to wait before retrying after ``attempt`` failures.

    Exponential (``backoff * 2**(attempt-1)``) capped at ``cap``; with an
    ``rng`` (anything exposing ``random()``), full-jitter in the upper
    half of the window so a thundering herd of retries decorrelates — the
    service queue passes one, the sweep harness keeps its deterministic
    schedule by passing none.
    """
    delay = min(cap, backoff * (2 ** (attempt - 1)))
    if rng is None:
        return delay
    return delay * (0.5 + 0.5 * rng.random())
