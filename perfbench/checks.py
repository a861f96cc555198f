"""Failure checker: decides whether one request's outcome is correct.

A request fails when
  - its exit code is not one of the codes recorded with it;
  - it raised an uncaught exception;
  - its report is not strict JSON (NaN, Infinity);
  - its report is invalid against report_schema.json;
  - a bound report has lower > upper by more than the quadrature tolerance
    it was computed with (a linear g makes the two sides equal, so they may
    cross by rounding);
  - a bound report's Monte-Carlo variance lies outside the sandwich by more
    than MC_SIGMAS standard errors.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import jsonschema

MC_SIGMAS = 4.0


@dataclass
class Outcome:
    """What one request produced; filled in by the runner."""

    latency_s: float
    exit_code: int | None = None
    exception: str = ""
    payloads: list = field(default_factory=list)  # report texts


def _reject_constant(name):
    raise ValueError(f"non-strict JSON constant {name}")


def _bound_reports(payload: dict):
    results = payload.get("results", {})
    command = payload.get("command")
    if command == "bound":
        return [results]
    if command == "posterior":
        return [results.get("bounds", {})]
    if command == "verify":
        return [rep for s in results.get("scenarios", [])
                for rep in s.get("reports", [])]
    return []


def _sandwich_errors(rep: dict) -> list[str]:
    lower, upper = rep.get("lower"), rep.get("upper")
    var, se = rep.get("mc_variance"), rep.get("mc_se")
    errors = []
    rel_tol = rep.get("meta", {}).get("rel_tol", 0.0)
    if (lower is not None and upper is not None
            and lower - upper > 3 * rel_tol * max(abs(lower), abs(upper))):
        errors.append(f"{rep.get('method')}: lower {lower:.6g} > upper {upper:.6g}")
    if var is None or se is None or not math.isfinite(se):
        return errors
    slack = MC_SIGMAS * se
    if lower is not None and var < lower - slack:
        errors.append(f"{rep.get('method')}: MC variance {var:.6g} below "
                      f"lower {lower:.6g} by more than {MC_SIGMAS:g} se")
    if upper is not None and var > upper + slack:
        errors.append(f"{rep.get('method')}: MC variance {var:.6g} above "
                      f"upper {upper:.6g} by more than {MC_SIGMAS:g} se")
    return errors


class Checker:
    def __init__(self, schema: dict):
        self.validator = jsonschema.Draft7Validator(schema)

    def errors(self, request, outcome: Outcome) -> list[str]:
        """Reasons the outcome is a failure; empty when it is correct."""
        if outcome.exception:
            return [f"uncaught {outcome.exception}"]
        errors = []
        if outcome.exit_code not in request.expect:
            errors.append(f"exit {outcome.exit_code}, expected one of "
                          f"{list(request.expect)}")
        if request.argv and outcome.exit_code == 0 and not outcome.payloads:
            errors.append("exit 0 without a report")
        for text in outcome.payloads:
            try:
                payload = json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                errors.append(str(exc))
                continue
            schema_error = next(iter(self.validator.iter_errors(payload)), None)
            if schema_error is not None:
                path = "/".join(str(p) for p in schema_error.absolute_path)
                errors.append(f"schema: {path}: {schema_error.message[:120]}")
            for rep in _bound_reports(payload):
                errors += _sandwich_errors(rep)
        return errors
