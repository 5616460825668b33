"""The one result shape of every verification check.

A check reports ``{"check", "params", "max_abs_err", "pass", "detail"}``:
its name, the inputs it ran with, its worst error, the verdict, and
check-specific evidence.  For a check of a bound the worst error is how far
the bound is missed, so 0.0 when it holds.  ``max_abs_err`` is a finite
float so the report always serializes to strict JSON.
"""

from __future__ import annotations

import math


def check_report(check: str, params: dict, max_abs_err: float, passed: bool,
                 detail: dict) -> dict:
    """Build one check's report; raises ValueError on a non-finite error."""
    err = float(max_abs_err)
    if not math.isfinite(err):
        raise ValueError(f"check {check!r}: max_abs_err must be finite, got {err}")
    return {"check": check, "params": params, "max_abs_err": err,
            "pass": bool(passed), "detail": detail}
