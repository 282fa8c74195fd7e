"""Tabular result containers shared by benchmarks and reports."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ReproError


@dataclass
class Series:
    """Named x/y curves over a shared x-axis (one figure's content)."""

    name: str
    x_label: str
    y_label: str
    xs: list[float]
    curves: dict[str, list[float]] = field(default_factory=dict)

    def add_curve(self, label: str, ys: list[float]) -> None:
        if len(ys) != len(self.xs):
            raise ReproError(
                f"curve {label!r} has {len(ys)} points for {len(self.xs)} x-values"
            )
        self.curves[label] = list(ys)


def _fmt(v: float) -> str:
    if v == 0:
        return "0"
    if abs(v) >= 10000:
        return f"{v:,.0f}"
    if abs(v) >= 100:
        return f"{v:.1f}"
    if abs(v) >= 1:
        return f"{v:.2f}"
    return f"{v:.4f}"


def format_table(series: Series, x_format: str = "g") -> str:
    """Render a series as an aligned text table (one row per x)."""
    headers = [series.x_label, *series.curves.keys()]
    rows = []
    for i, x in enumerate(series.xs):
        vals = [format(x, x_format)] + [_fmt(series.curves[c][i]) for c in series.curves]
        rows.append(vals)
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows)) if rows else len(headers[c])
        for c in range(len(headers))
    ]
    out = ["  ".join(h.rjust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    out.extend("  ".join(v.rjust(w) for v, w in zip(r, widths)) for r in rows)
    return "\n".join(out)


def human_count(n: float) -> str:
    """4096 -> '4k', 65536 -> '64k' (axis labels like the paper's)."""
    if n >= 1024 and n % 1024 == 0:
        return f"{int(n // 1024)}k"
    return f"{int(n)}" if float(n).is_integer() else f"{n}"
