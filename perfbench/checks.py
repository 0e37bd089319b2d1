"""Answer classification: every operation is correct or a failure.

A failure is any 5xx (503 shed load and 504 timeouts included), any
status the contract does not allow for that input, a dropped
connection (status None), or a body whose answer differs from the
reference.  A 422 on a graph the reference rejects with the same
taxonomy error is a correct answer.

Checks never read ``reschedules`` or ``batched``: both are slated for
deletion and neither is part of an answer.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

#: Response fields that are not part of any answer (see module docs).
UNCHECKED = ("reschedules", "batched")


def decode(raw: Optional[bytes]) -> Any:
    try:
        return json.loads(raw.decode("utf-8")) if raw is not None else None
    except (UnicodeDecodeError, ValueError):
        return None


def schedule_failure(status: Optional[int], raw: Optional[bytes],
                     expected: Any) -> Optional[str]:
    """Why a ``/schedule`` answer is wrong, or None when it is right.

    *expected* is ``("ok", offsets)`` or ``("error", error_type)``.
    """
    if status is None:
        return "dropped connection"
    body = decode(raw)
    if not isinstance(body, dict):
        return f"HTTP {status} with an undecodable body"
    kind, value = expected
    if status == 200 and kind == "ok":
        schedule = body.get("schedule")
        offsets = schedule.get("offsets") if isinstance(schedule, dict) else None
        return None if offsets == value else "offsets differ from reference"
    if status == 422 and kind == "error":
        got = body.get("error_type")
        return None if got == value else f"422 {got}, reference {value}"
    want = 200 if kind == "ok" else 422
    return f"HTTP {status} ({body.get('error_type')}), expected {want}"


def strip_unchecked(body: Any) -> Any:
    """*body* without the UNCHECKED fields, at any depth."""
    if isinstance(body, dict):
        return {k: strip_unchecked(v) for k, v in body.items()
                if k not in UNCHECKED}
    if isinstance(body, list):
        return [strip_unchecked(v) for v in body]
    return body


def log_failure(status: Optional[int], raw: Optional[bytes],
                expected_log: Dict[str, Dict[str, int]]) -> Optional[str]:
    """Why a session's final log (a DELETE or GET body) is wrong."""
    if status is None:
        return "dropped connection"
    body = decode(raw)
    if status != 200 or not isinstance(body, dict):
        return f"HTTP {status}"
    log = body.get("log")
    if not isinstance(log, dict):
        return "no log in body"
    for key in ("issues", "done"):
        if log.get(key) != expected_log[key]:
            return f"{key} differ from execute_stream"
    return None


def status_failure(status: Optional[int], want: int = 200) -> Optional[str]:
    if status is None:
        return "dropped connection"
    return None if status == want else f"HTTP {status}, expected {want}"
