"""Live views over a telemetry stream: the obs-top screen.

:func:`render_live` renders one :class:`~repro.obs.stream.
TelemetryStream`, mid-run (the stream folds epochs while workers
execute) or after the final epoch, as the ``obs-top`` terminal screen:
run header, SLO objective table with burn rates, per-group deadline
percentiles against the 30 us budget, conformance counts, recent alert
edges, and the full metric dashboard.

:func:`deterministic_exposition` drops the wall-clock families so CI
can pin a golden snapshot of a streamed run — everything else in the
plane is modelled/simulated time and byte-stable for a fixed spec.
"""

from __future__ import annotations

from typing import Any, Dict, Sequence

from repro.obs.exposition import render_dashboard, render_prometheus
from repro.obs.metrics import MetricsRegistry
from repro.obs.stream import TelemetryStream

#: Metric-family name fragments excluded from golden expositions: these
#: series measure host wall-clock time and legitimately differ run to
#: run (the digest excludes them for the same reason).
NONDETERMINISTIC_FRAGMENTS = ("wall",)

_WIDTH = 72


def _rule(char: str = "-") -> str:
    return char * _WIDTH


def deterministic_exposition(
    registry: MetricsRegistry,
    exclude_fragments: Sequence[str] = NONDETERMINISTIC_FRAGMENTS,
) -> str:
    """Prometheus text of every family whose results are seed-stable."""
    filtered = MetricsRegistry()
    filtered.merge_snapshot(
        {
            name: family
            for name, family in registry.snapshot().items()
            if not any(fragment in name for fragment in exclude_fragments)
        }
    )
    return render_prometheus(filtered)


def _format_slo_row(row: Dict[str, Any]) -> str:
    value = "-" if row["value"] is None else f"{row['value']:.6g}"
    burn = "-" if row["burn_rate"] is None else f"{row['burn_rate']:.2f}x"
    state = "FIRING" if row["firing"] else "ok"
    return (
        f"  {row['slo']:<28} {row['objective']:<27}"
        f" {value:>10} {burn:>8} {state:>6}"
    )


def render_live(
    stream: TelemetryStream, title: str = "obs-top: live telemetry"
) -> str:
    """The operator terminal screen over one (possibly mid-run) stream."""
    lines = [_rule("="), title.center(_WIDTH), _rule("=")]
    lines.append(
        f"epochs folded {stream.epochs}"
        f"{' (finalized)' if stream.finalized else ''}"
        f" | spans {stream.spans_seen}"
        f" (dropped {sum(stream.spans_dropped.values())})"
        f" | frames checked {stream.frames_checked}"
    )
    if stream.slo.specs:
        lines.append("")
        lines.append("slo objectives")
        lines.append(_rule())
        lines.append(
            f"  {'slo':<28} {'objective':<27}"
            f" {'value':>10} {'burn':>8} {'state':>6}"
        )
        for row in stream.slo.status():
            lines.append(_format_slo_row(row))
    if stream.accountants:
        lines.append("")
        lines.append("deadline accounting (per group, ns)")
        lines.append(_rule())
        lines.append(
            f"  {'group':<22} {'slots':>6} {'miss':>6}"
            f" {'p50':>10} {'p99':>10} {'budget':>10}"
        )
        for name in sorted(stream.accountants):
            accountant = stream.accountants[name]
            lines.append(
                f"  {name:<22} {len(accountant.accounts):>6}"
                f" {accountant.violations:>6}"
                f" {accountant.percentile(50):>10.0f}"
                f" {accountant.percentile(99):>10.0f}"
                f" {accountant.budget_ns:>10.0f}"
            )
        lines.append(
            f"  cross-shard p99 slot latency:"
            f" {stream.p99_slot_latency_ns():.0f} ns"
        )
    if stream.conformance_counts:
        lines.append("")
        lines.append("conformance violations")
        lines.append(_rule())
        for kind in sorted(stream.conformance_counts):
            lines.append(
                f"  {kind:<50} {stream.conformance_counts[kind]:>8}"
            )
    if stream.slo.alerts:
        lines.append("")
        lines.append("alert edges")
        lines.append(_rule())
        for alert in stream.slo.alerts:
            lines.append(f"  {alert.render()}")
    lines.append("")
    lines.append(render_dashboard(stream.registry, title="live metrics"))
    return "\n".join(lines)


__all__ = [
    "NONDETERMINISTIC_FRAGMENTS",
    "deterministic_exposition",
    "render_live",
]
