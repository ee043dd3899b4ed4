"""Output check and schedule digest.

Every distinct artifact a round completed is fetched back over HTTP and
re-verified client-side with ``repro.qa.oracles.verify_artifact_payload``
(legality, II bounds against an MII recomputed in this process, and
simulator replay), and the job's reported II and MaxLive must match the
artifact.  The digest hashes (request label, II, MaxLive) in request
order, so two runs, or two commits, can be diffed for zero drift.
"""

from __future__ import annotations

import hashlib

from .client import Outcome, request_json


class Rejected(Exception):
    """The oracle battery rejected an artifact."""


def schedule_digest(labels: list[str], outcomes: list) -> str:
    """Hash of (label, II, MaxLive) per request, failures by error type.

    *outcomes* holds, per request, ``(ii, maxlive)`` or an error name.
    """
    hasher = hashlib.sha256()
    for label, outcome in zip(labels, outcomes):
        if isinstance(outcome, str):
            line = f"{label}\tFAILED\t{outcome}\n"
        else:
            line = f"{label}\t{outcome[0]}\t{outcome[1]}\n"
        hasher.update(line.encode())
    return hasher.hexdigest()[:16]


def digest_outcomes(outcomes: list[Outcome]) -> list:
    """HTTP outcomes in the form :func:`schedule_digest` takes."""
    return [
        (o.result["ii"], o.result["maxlive"])
        if o.status == "done"
        else (o.error or o.status)
        for o in outcomes
    ]


def verify_round(
    host: str, port: int, workload, outcomes: list[Outcome]
) -> dict[int, str]:
    """Re-verify every completed artifact.

    Returns ``request index -> reason`` for each completed request whose
    artifact was rejected or disagrees with what the job reported.
    """
    from repro.qa.oracles import verify_artifact_payload

    rejected: dict[int, str] = {}
    #: artifact key -> (II, MaxLive) it holds, or the rejection reason
    verified: dict[str, tuple[int, int] | str] = {}
    for outcome in outcomes:
        if outcome.status != "done":
            continue
        result = outcome.result
        key = result["artifact"]
        if key not in verified:
            try:
                verified[key] = _verify_artifact(
                    host, port, key, workload.graph_for(outcome.index),
                    verify_artifact_payload,
                )
            except Exception as exc:  # noqa: BLE001 - a rejection, reported
                verified[key] = f"{type(exc).__name__}: {exc}"
        held = verified[key]
        if isinstance(held, str):
            rejected[outcome.index] = held
        elif (result["ii"], result["maxlive"]) != held:
            rejected[outcome.index] = (
                f"job reported II {result['ii']} MaxLive "
                f"{result['maxlive']}, artifact holds {held}"
            )
    return rejected


def _verify_artifact(host, port, key, graph, verify) -> tuple[int, int]:
    status, envelope = request_json(host, port, "GET", f"/v1/artifacts/{key}")
    if status != 200:
        raise Rejected(f"GET /v1/artifacts/{key} returned {status}")
    payload = envelope["payload"]
    if envelope.get("kind") == "portfolio":
        payload = payload["schedule"]
    report = verify(payload, graph)
    if not report["ok"]:
        failed = [check for check in report["checks"] if not check["ok"]]
        raise Rejected(f"oracle checks failed: {failed}")
    return payload["ii"], payload["maxlive"]
