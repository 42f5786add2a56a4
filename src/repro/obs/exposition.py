"""Exposition: render a metrics registry for humans and scrapers.

Two views over one :meth:`~repro.obs.metrics.MetricsRegistry.snapshot`
(itself the JSON-ready form for programmatic consumers):

- :func:`render_prometheus` — the Prometheus text exposition format
  (``# HELP`` / ``# TYPE`` / samples), what a real deployment would serve
  on ``/metrics``;
- :func:`render_dashboard` — a plain-text operator dashboard (counter /
  gauge tables plus histogram summaries), which
  ``examples/prb_dashboard.py`` renders live.

All output is deterministic (families and label sets sorted), so golden
tests pin exact bytes.
"""

from __future__ import annotations

from typing import Any, List, Tuple

from repro.obs.metrics import MetricsRegistry


def _format_value(value: float) -> str:
    """Prometheus-style number: integers bare, floats as reprs."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _label_str(names: List[str], values: Tuple[str, ...], extra: str = "") -> str:
    parts = [f'{name}="{value}"' for name, value in zip(names, values)]
    if extra:
        parts.append(extra)
    if not parts:
        return ""
    return "{" + ",".join(parts) + "}"


#: Quantiles a sketch family exposes (Prometheus summary convention).
SKETCH_QUANTILES = (0.5, 0.9, 0.95, 0.99)


def render_prometheus(registry: MetricsRegistry) -> str:
    """Prometheus text format, families name-sorted, label sets sorted.

    Sketch families render as summaries: one ``{quantile="..."}`` sample
    per entry of :data:`SKETCH_QUANTILES`, plus ``_sum`` and ``_count``.
    """
    lines: List[str] = []
    for family in registry.families():
        lines.append(f"# HELP {family.name} {family.help_text}")
        prom_type = (
            "summary" if family.metric_type == "sketch"
            else family.metric_type
        )
        lines.append(f"# TYPE {family.name} {prom_type}")
        names = list(family.label_names)
        for values in sorted(family.children()):
            child = family.children()[values]
            if family.metric_type == "sketch":
                for q in SKETCH_QUANTILES:
                    q_label = f'quantile="{_format_value(q)}"'
                    lines.append(
                        f"{family.name}"
                        f"{_label_str(names, values, q_label)}"
                        f" {_format_value(child.quantile(q))}"
                    )
                lines.append(
                    f"{family.name}_sum{_label_str(names, values)}"
                    f" {_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_label_str(names, values)}"
                    f" {child.count}"
                )
            elif family.metric_type == "histogram":
                for bound, cumulative in child.cumulative_buckets():
                    le = "+Inf" if bound == float("inf") else _format_value(bound)
                    le_label = 'le="' + le + '"'
                    lines.append(
                        f"{family.name}_bucket"
                        f"{_label_str(names, values, le_label)}"
                        f" {cumulative}"
                    )
                lines.append(
                    f"{family.name}_sum{_label_str(names, values)}"
                    f" {_format_value(child.sum)}"
                )
                lines.append(
                    f"{family.name}_count{_label_str(names, values)}"
                    f" {child.count}"
                )
            else:
                lines.append(
                    f"{family.name}{_label_str(names, values)}"
                    f" {_format_value(child.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def _series_rows(family) -> List[Tuple[str, Any]]:
    rows = []
    names = list(family.label_names)
    for values in sorted(family.children()):
        child = family.children()[values]
        label = ",".join(
            f"{name}={value}" for name, value in zip(names, values)
        )
        rows.append((label or "-", child))
    return rows


def render_dashboard(registry: MetricsRegistry, title: str = "fronthaul observability") -> str:
    """Operator-facing plain-text dashboard of every registered series."""
    width = 72
    lines = ["=" * width, title.center(width), "=" * width]
    counters, gauges, histograms, sketches = [], [], [], []
    for family in registry.families():
        bucket = {
            "counter": counters, "gauge": gauges,
            "histogram": histograms, "sketch": sketches,
        }[family.metric_type]
        bucket.append(family)

    def emit_scalar_section(heading: str, families) -> None:
        if not families:
            return
        lines.append("")
        lines.append(heading)
        lines.append("-" * width)
        for family in families:
            for label, child in _series_rows(family):
                name = family.name if label == "-" else f"{family.name}{{{label}}}"
                lines.append(f"  {name:<54} {_format_value(child.value):>14}")

    emit_scalar_section("counters", counters)
    emit_scalar_section("gauges", gauges)
    if histograms:
        lines.append("")
        lines.append("histograms")
        lines.append("-" * width)
        lines.append(
            f"  {'series':<44} {'count':>7} {'mean':>11} {'sum':>11}"
        )
        for family in histograms:
            for label, child in _series_rows(family):
                name = family.name if label == "-" else f"{family.name}{{{label}}}"
                lines.append(
                    f"  {name:<44} {child.count:>7}"
                    f" {child.mean():>11.1f} {child.sum:>11.1f}"
                )
    if sketches:
        lines.append("")
        lines.append("sketches")
        lines.append("-" * width)
        lines.append(
            f"  {'series':<40} {'count':>7} {'p50':>10} {'p99':>10}"
        )
        for family in sketches:
            for label, child in _series_rows(family):
                name = family.name if label == "-" else f"{family.name}{{{label}}}"
                lines.append(
                    f"  {name:<40} {child.count:>7}"
                    f" {child.quantile(0.5):>10.1f}"
                    f" {child.quantile(0.99):>10.1f}"
                )
    lines.append("=" * width)
    return "\n".join(lines)
