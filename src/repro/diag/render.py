"""Operator-facing rendering of diagnosis reports: traffic lights and
plain-language recommendations.

A :class:`~repro.diag.findings.DiagnosisReport` answers "what is
wrong?"; a live operator dashboard needs two further reductions the
related monitoring tools (docsight-style health views) converge on:

* a **traffic light** per subject — ``green`` (no finding), ``yellow``
  (degraded: lossy/asymmetric links, hotspots, interference) or ``red``
  (down: dead nodes, broken links) — with low-confidence red verdicts
  demoted to yellow so a single flaky probe round never paints a link
  red;
* a **recommendation** per finding — one imperative sentence telling
  the end user what to physically do about it, derived from the finding
  kind and its evidence.

:func:`health_view` assembles both into the JSON payload
``repro.serve`` publishes at ``/health``.  Everything here is pure data
→ data; no network access, no simulator imports.
"""

from __future__ import annotations

import typing as _t

from repro.diag.findings import FINDING_KINDS, DiagnosisReport, Finding

__all__ = [
    "GREEN",
    "YELLOW",
    "RED",
    "LIGHT_ORDER",
    "traffic_light",
    "recommendation",
    "worst_light",
    "health_view",
]

GREEN = "green"
YELLOW = "yellow"
RED = "red"

#: Severity order of the lights, for ``worst_light`` and numeric export
#: (``LIGHT_ORDER.index`` gives the 0/1/2 gauge values ``/metrics``
#: publishes).
LIGHT_ORDER = (GREEN, YELLOW, RED)

#: Base light per finding kind: outright failures are red, degradations
#: yellow.
_KIND_LIGHT = {
    "dead_node": RED,
    "broken_link": RED,
    "asymmetric_link": YELLOW,
    "lossy_link": YELLOW,
    "hotspot": YELLOW,
    "interference": YELLOW,
}

#: A red verdict below this confidence is demoted to yellow — one bad
#: probe round is a warning, not an outage.
_RED_CONFIDENCE_FLOOR = 0.5


def traffic_light(finding: Finding) -> str:
    """The traffic-light colour one finding paints its subject."""
    light = _KIND_LIGHT[finding.kind]
    if light == RED and finding.confidence < _RED_CONFIDENCE_FLOOR:
        return YELLOW
    return light


def worst_light(lights: _t.Iterable[str]) -> str:
    """The most severe light in ``lights`` (``green`` when empty)."""
    worst = GREEN
    for light in lights:
        if LIGHT_ORDER.index(light) > LIGHT_ORDER.index(worst):
            worst = light
    return worst


def recommendation(finding: Finding) -> str:
    """One imperative, plain-language sentence per finding.

    The paper's end user is not a networking specialist; the verdict
    alone ("asymmetric link") does not tell them what to *do*.  Each
    sentence names the subject and the physical remedy that matches the
    failure mode.
    """
    kind = finding.kind
    if kind == "dead_node":
        return (f"Check node {finding.node}: replace its batteries or "
                "power-cycle it — it no longer acknowledges an adjacent "
                "workstation.")
    if kind == "broken_link":
        a, b = finding.link  # type: ignore[misc]
        return (f"Restore the path between nodes {a} and {b}: move the "
                "nodes closer, raise transmit power, or place a relay "
                "node between them.")
    if kind == "asymmetric_link":
        a, b = finding.link  # type: ignore[misc]
        return (f"Raise transmit power at the weaker end of link "
                f"{a}->{b}, or route acknowledgment-dependent traffic "
                "around it — its two directions differ in quality.")
    if kind == "lossy_link":
        a, b = finding.link  # type: ignore[misc]
        loss = finding.evidence.get("loss_ratio")
        rate = f" ({loss:.0%} probe loss)" if isinstance(loss, float) else ""
        return (f"Shorten or reinforce link {a}->{b}{rate}: reduce the "
                "hop distance, raise transmit power, or clear "
                "obstructions.")
    if kind == "hotspot":
        return (f"Relieve node {finding.node}: traffic concentrates "
                "there — spread routes over alternative paths or "
                "increase its queue capacity.")
    if kind == "interference":
        where = (f" near node {finding.node}"
                 if finding.node is not None else "")
        return (f"Move the network off channel {finding.channel}{where}, "
                "or locate and remove the interference source.")
    raise ValueError(f"unknown finding kind {kind!r}")  # pragma: no cover


def _subject_entries(report: DiagnosisReport) -> dict[str, dict]:
    """Worst finding per subject, keyed by the subject's JSON key."""
    entries: dict[str, dict] = {}
    for finding in report.findings:
        if finding.link is not None:
            key = f"{finding.link[0]}->{finding.link[1]}"
            group = "links"
        elif finding.kind == "interference":
            key = str(finding.channel)
            group = "channels"
        else:
            key = str(finding.node)
            group = "nodes"
        light = traffic_light(finding)
        slot = entries.setdefault(f"{group}:{key}", {
            "group": group, "key": key, "status": GREEN,
        })
        # Findings arrive in severity order; only upgrade the light and
        # keep the first (= most severe) finding as the named cause.
        if LIGHT_ORDER.index(light) > LIGHT_ORDER.index(slot["status"]):
            slot["status"] = light
        if "kind" not in slot:
            slot.update(
                kind=finding.kind,
                confidence=round(finding.confidence, 3),
                summary=finding.summary,
                recommendation=recommendation(finding),
            )
    return entries


def health_view(report: DiagnosisReport, *,
                nodes: _t.Iterable[int] = (),
                links: _t.Iterable[tuple[int, int]] = (),
                sim_time: float | None = None,
                assessed_at: float | None = None) -> dict:
    """The docsight-style health payload for one diagnosis report.

    ``nodes``/``links`` are the *watched* subjects: every one appears in
    the payload (green unless a finding names it), so a dashboard can
    always draw the full fleet rather than only its problems.  Subjects
    named by findings but not watched are included too.  The result is
    JSON-ready and deterministic (sorted keys within each group).
    """
    groups: dict[str, dict[str, dict]] = {
        "nodes": {str(n): {"status": GREEN} for n in nodes},
        "links": {f"{a}->{b}": {"status": GREEN} for a, b in links},
        "channels": {},
    }
    for slot in _subject_entries(report).values():
        entry = {k: v for k, v in slot.items() if k not in ("group", "key")}
        groups[slot["group"]][slot["key"]] = entry
    all_lights = [entry["status"]
                  for group in groups.values() for entry in group.values()]
    payload: dict[str, object] = {
        "status": worst_light(all_lights),
        "healthy": report.healthy,
        "findings": [f.to_dict() for f in report.findings],
        "recommendations": [recommendation(f) for f in report.findings],
        "counts": {kind: len(report.of_kind(kind))
                   for kind in FINDING_KINDS
                   if report.of_kind(kind)},
        "probes_run": report.probes_run,
        "probes_failed": report.probes_failed,
        "nodes": dict(sorted(groups["nodes"].items(),
                             key=lambda kv: int(kv[0]))),
        "links": dict(sorted(groups["links"].items())),
    }
    if groups["channels"]:
        payload["channels"] = dict(sorted(groups["channels"].items(),
                                          key=lambda kv: int(kv[0])))
    if sim_time is not None:
        payload["sim_time"] = round(sim_time, 6)
    if assessed_at is not None:
        payload["assessed_at"] = round(assessed_at, 6)
    return payload
