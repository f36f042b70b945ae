"""Export traces and metrics: JSONL and Chrome ``trace_event`` format.

Two formats, two audiences:

* **JSONL** — one JSON object per trace event, stable key order, compact
  separators.  Byte-identical across same-seed runs, which makes it the
  format the determinism tests diff and the format to commit as a
  regression artifact.
* **Chrome trace_event** — load the file at ``chrome://tracing`` (or
  Perfetto) to scrub through a simulation visually: rows are nodes,
  instants are lifecycle events, args carry the detail dict.

Metrics export comes in two flavours: a plain JSON dump of the registry
snapshot, and the **Prometheus text exposition format** (version 0.0.4)
for scraping — ``repro.serve`` feeds its ``/metrics`` endpoint from
:func:`metrics_to_prometheus`, and batch runs can
:func:`write_prometheus` a final snapshot for node-exporter-style
textfile collection.
"""

from __future__ import annotations

import json
import re
import typing as _t

if _t.TYPE_CHECKING:  # pragma: no cover
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.trace import Tracer

__all__ = [
    "trace_to_jsonl",
    "write_trace_jsonl",
    "trace_to_chrome",
    "write_chrome_trace",
    "metrics_to_json",
    "sanitize_metric_name",
    "escape_label_value",
    "prometheus_line",
    "metrics_to_prometheus",
    "write_prometheus",
]

_COMPACT = {"sort_keys": True, "separators": (",", ":")}


def trace_to_jsonl(tracer: "Tracer") -> str:
    """Serialise every trace event as one JSON line (trailing newline)."""
    lines = []
    for event in tracer.events:
        lines.append(json.dumps(
            {
                "time": event.time,
                "kind": event.kind,
                "node": event.node,
                "packet": event.packet,
                "detail": event.detail,
            },
            **_COMPACT,
        ))
    return "\n".join(lines) + ("\n" if lines else "")


def write_trace_jsonl(tracer: "Tracer", path: str) -> int:
    """Write the JSONL export to ``path``; returns the event count."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_jsonl(tracer))
    return len(tracer.events)


def trace_to_chrome(tracer: "Tracer") -> dict:
    """Render the trace in Chrome's ``trace_event`` JSON schema.

    Nodes become pids (so the viewer groups rows per node); each packet
    gets a small deterministic tid in first-seen order; sim seconds map
    to microseconds, the unit the schema expects.
    """
    packet_tids: dict[str, int] = {}
    events = []
    for event in tracer.events:
        tid = 0
        if event.packet is not None:
            tid = packet_tids.setdefault(event.packet,
                                         len(packet_tids) + 1)
        args = dict(event.detail)
        if event.packet is not None:
            args["packet"] = event.packet
        events.append({
            "name": event.kind,
            "ph": "i",           # instant event
            "s": "t",            # thread-scoped
            "ts": round(event.time * 1e6, 3),
            "pid": event.node if event.node is not None else 0,
            "tid": tid,
            "args": args,
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: "Tracer", path: str) -> int:
    """Write the Chrome trace to ``path``; returns the event count."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(trace_to_chrome(tracer), fh, **_COMPACT)
    return len(tracer.events)


def metrics_to_json(registry: "MetricsRegistry") -> str:
    """The registry snapshot as deterministic, indented JSON."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=2)


# -- Prometheus text exposition ------------------------------------------------

#: Characters legal in a Prometheus metric name body.
_NAME_ILLEGAL = re.compile(r"[^a-zA-Z0-9_:]")

#: Histogram-summary keys exported as one gauge each (the
#: "gauge-per-percentile" mapping: exact-sample percentiles become
#: ``<name>_p50`` etc., not native Prometheus quantile labels, so every
#: scraper — including the dumbest — can graph them directly).
_SUMMARY_GAUGES = ("min", "mean", "max", "p50", "p90", "p99")


def sanitize_metric_name(name: str) -> str:
    """A legal Prometheus metric name for ``name``.

    Registry names use dots (``mac.sent_frames``); Prometheus allows
    only ``[a-zA-Z0-9_:]`` with a non-digit first character.  Every
    illegal character becomes ``_``; a leading digit gets a ``_``
    prefix; an empty name is spelled out rather than emitted blank.
    """
    if not name:
        return "_empty_"
    sanitized = _NAME_ILLEGAL.sub("_", name)
    if sanitized[0].isdigit():
        sanitized = "_" + sanitized
    return sanitized


def escape_label_value(value: object) -> str:
    """Escape a label value per the text-format rules
    (backslash, double-quote and newline)."""
    return (str(value)
            .replace("\\", "\\\\")
            .replace('"', '\\"')
            .replace("\n", "\\n"))


def _format_value(value: float | int) -> str:
    """Deterministic sample-value rendering (ints stay integral)."""
    if isinstance(value, bool):  # pragma: no cover - defensive
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def prometheus_line(name: str, labels: "_t.Mapping[str, object] | None",
                    value: float | int) -> str:
    """One exposition sample line: ``name{k="v",...} value``.

    ``name`` is sanitized here, so callers can pass registry names
    verbatim; labels are rendered in sorted key order for determinism.
    """
    body = sanitize_metric_name(name)
    if labels:
        rendered = ",".join(
            f'{sanitize_metric_name(str(k))}="{escape_label_value(v)}"'
            for k, v in sorted(labels.items())
        )
        body += "{" + rendered + "}"
    return f"{body} {_format_value(value)}"


def metrics_to_prometheus(registry: "MetricsRegistry", *,
                          labels: "_t.Mapping[str, object] | None" = None,
                          ) -> str:
    """Render the whole registry in Prometheus text format 0.0.4.

    * counters → ``# TYPE <name> counter`` + one sample;
    * gauges → ``# TYPE <name> gauge`` + one sample;
    * histograms → the summary mapped to one gauge per statistic
      (``_min``/``_mean``/``_max``/``_p50``/``_p90``/``_p99``) plus a
      ``_count`` counter.  Empty histograms emit only ``_count 0`` —
      a percentile of nothing is not a sample.

    ``labels`` (e.g. ``{"fleet": "field", "node": 7}``) are attached to
    every sample.  Output is sorted by metric name, so equal registries
    render byte-identically.  An empty registry renders as the empty
    string.
    """
    lines: list[str] = []

    def emit(name: str, kind: str, value: float | int) -> None:
        full = sanitize_metric_name(name)
        lines.append(f"# TYPE {full} {kind}")
        lines.append(prometheus_line(full, labels, value))

    for name, value in sorted(registry.counters().items()):
        emit(name, "counter", value)
    for name, value in sorted(registry.gauges().items()):
        emit(name, "gauge", value)
    for name, hist in sorted(registry.histograms().items()):
        summary = hist.summary()
        emit(f"{name}_count", "counter", summary["count"])
        for key in _SUMMARY_GAUGES:
            stat = summary[key]
            if stat is None:
                continue
            emit(f"{name}_{key}", "gauge", stat)
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: "MetricsRegistry", path: str) -> int:
    """Write the Prometheus rendering to ``path``.

    Returns the number of sample lines written (comment lines not
    counted) — the textfile-collector analogue of
    :func:`write_trace_jsonl`'s event count.
    """
    text = metrics_to_prometheus(registry)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return sum(1 for line in text.splitlines()
               if line and not line.startswith("#"))
