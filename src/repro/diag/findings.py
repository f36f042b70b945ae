"""The unified finding schema: named verdicts with evidence.

The paper's deliverable is not a table of RTTs — it is an answer to
"what is wrong with my network?".  A :class:`Finding` is one such
answer: a *kind* drawn from a closed vocabulary (``broken_link``,
``asymmetric_link``, ``lossy_link``, ``hotspot``, ``interference``,
``dead_node``), the subject it names (a link, a node, a channel), a
confidence in [0, 1], and the evidence that produced it.

Findings serialize to **canonical JSON** — sorted keys, no whitespace,
``None`` fields omitted — so a diagnosis run under a fixed seed yields
byte-identical output, campaigns can hash reports into digests, and
golden fixtures can pin them.  This module imports nothing from
``repro.core``; it is pure data + rendering.
"""

from __future__ import annotations

import json
import typing as _t
from dataclasses import dataclass, field

__all__ = ["FINDING_KINDS", "Finding", "NewFindings", "DiagnosisReport"]

#: The closed verdict vocabulary, in severity order (worst first).
FINDING_KINDS = (
    "dead_node",
    "broken_link",
    "asymmetric_link",
    "lossy_link",
    "hotspot",
    "interference",
)


def _jsonable(value):
    """Evidence values → JSON-stable primitives (floats rounded)."""
    if isinstance(value, float):
        return round(value, 3)
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in sorted(value.items())}
    return value


@dataclass(frozen=True)
class Finding:
    """One named verdict about the network, with its evidence.

    Exactly the subject fields that apply are set: ``link`` for the
    link kinds, ``node`` for ``dead_node``/``hotspot``, ``channel``
    (plus ``node``) for ``interference``.
    """

    kind: str
    node: int | None = None
    link: tuple[int, int] | None = None
    channel: int | None = None
    confidence: float = 1.0
    summary: str = ""
    evidence: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in FINDING_KINDS:
            raise ValueError(
                f"unknown finding kind {self.kind!r}; "
                f"expected one of {FINDING_KINDS}"
            )
        if self.link is not None:
            object.__setattr__(self, "link", tuple(self.link))

    @property
    def subject(self) -> str:
        """Human-readable name of what the finding is about."""
        if self.link is not None:
            return f"link {self.link[0]}->{self.link[1]}"
        if self.channel is not None:
            if self.node is not None:
                return f"channel {self.channel} at node {self.node}"
            return f"channel {self.channel}"
        return f"node {self.node}"

    def sort_key(self) -> tuple:
        """Canonical report order: severity, then subject."""
        return (
            FINDING_KINDS.index(self.kind),
            self.node if self.node is not None else -1,
            self.link if self.link is not None else (),
            self.channel if self.channel is not None else -1,
        )

    def to_dict(self) -> dict:
        """Plain-dict form with ``None`` subjects omitted."""
        out: dict = {"kind": self.kind,
                     "confidence": round(self.confidence, 3)}
        if self.node is not None:
            out["node"] = self.node
        if self.link is not None:
            out["link"] = list(self.link)
        if self.channel is not None:
            out["channel"] = self.channel
        if self.summary:
            out["summary"] = self.summary
        if self.evidence:
            out["evidence"] = _jsonable(self.evidence)
        return out

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, no whitespace."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, data: _t.Mapping) -> "Finding":
        link = data.get("link")
        return cls(
            kind=data["kind"],
            node=data.get("node"),
            link=tuple(link) if link is not None else None,
            channel=data.get("channel"),
            confidence=data.get("confidence", 1.0),
            summary=data.get("summary", ""),
            evidence=dict(data.get("evidence", {})),
        )

    def render(self) -> str:
        """One verdict line, e.g. ``[broken_link] link 2->3 (0.97): …``."""
        head = f"[{self.kind}] {self.subject} ({self.confidence:.2f})"
        return f"{head}: {self.summary}" if self.summary else head


class NewFindings:
    """Which findings of an assessment were not named by the previous one.

    A finding is named by ``(kind, node, link, channel)``.  Its
    confidence and evidence (``silent_s``, a detector statistic) change
    at every assessment, so a standing finding is new only once.  Only
    the latest assessment's names are kept: memory is one report's
    worth, and a finding that clears and comes back is new again.
    """

    __slots__ = ("_named",)

    def __init__(self):
        self._named: set[tuple] = set()

    def sift(self, findings: _t.Sequence[Finding]) -> list[Finding]:
        """The findings in ``findings`` that the previous call's lacked,
        in order; ``findings`` becomes the previous call."""
        previous = self._named
        names = [(f.kind, f.node, f.link, f.channel) for f in findings]
        self._named = set(names)
        return [f for f, name in zip(findings, names)
                if name not in previous]


@dataclass
class DiagnosisReport:
    """Everything one diagnosis run concluded, plus how it got there.

    ``findings`` is kept in canonical order (severity, then subject);
    ``path_stories`` holds the hop-by-hop narratives of any path probes
    the plan ran, so :meth:`explain` can tell the same story the
    ``repro.obs`` tracer records as ``diag.*`` events.
    """

    findings: list[Finding] = field(default_factory=list)
    started_at: float = 0.0
    finished_at: float = 0.0
    probes_run: int = 0
    probes_failed: int = 0
    path_stories: list[str] = field(default_factory=list)

    def __iter__(self):
        return iter(self.findings)

    def __len__(self) -> int:
        return len(self.findings)

    def of_kind(self, kind: str) -> list[Finding]:
        """Findings of one kind, in canonical order."""
        if kind not in FINDING_KINDS:
            raise ValueError(f"unknown finding kind {kind!r}")
        return [f for f in self.findings if f.kind == kind]

    @property
    def healthy(self) -> bool:
        """No finding means no diagnosed problem."""
        return not self.findings

    def to_dict(self) -> dict:
        return {
            "findings": [f.to_dict() for f in self.findings],
            "started_at": round(self.started_at, 6),
            "finished_at": round(self.finished_at, 6),
            "probes_run": self.probes_run,
            "probes_failed": self.probes_failed,
        }

    def to_json(self) -> str:
        """Canonical JSON of the whole report."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    def explain(self) -> str:
        """Render the report as the story a field engineer would tell.

        Verdicts first (worst first), each with its evidence, then the
        hop-by-hop path narratives that back them up.
        """
        lines: list[str] = []
        if self.healthy:
            lines.append("No problems diagnosed: all probed subjects "
                         "look healthy.")
        else:
            lines.append(f"Diagnosed {len(self.findings)} problem(s):")
            for f in self.findings:
                lines.append(f"  {f.render()}")
                for key in sorted(f.evidence):
                    lines.append(f"      {key} = {_jsonable(f.evidence[key])}")
        lines.append(
            f"Ran {self.probes_run} probe(s), {self.probes_failed} "
            f"failed, over {self.finished_at - self.started_at:.1f} s "
            f"of network time."
        )
        for story in self.path_stories:
            lines.append("")
            lines.append(story)
        return "\n".join(lines)
