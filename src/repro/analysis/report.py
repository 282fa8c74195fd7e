"""Markdown report generation from saved benchmark results.

The benchmark harness writes every reproduced table/figure to
``benchmarks/results/<name>.txt``; this module assembles them into a
single markdown document (the regenerable core of EXPERIMENTS.md).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

#: The command that (re)produces every artifact below.
REGENERATE = "pytest benchmarks/"

#: Display order and titles for the known result artifacts.
ARTIFACTS: list[tuple[str, str]] = [
    ("fig3a_jugene", "Fig. 3a — parallel file creation, Jugene"),
    ("fig3b_jaguar", "Fig. 3b — parallel file creation, Jaguar"),
    ("fig4a_jugene", "Fig. 4a — bandwidth vs. #physical files, Jugene"),
    ("fig4b_jaguar", "Fig. 4b — bandwidth vs. #files and striping, Jaguar"),
    ("table1_alignment", "Table 1 — file-system block alignment"),
    ("fig5a_jugene", "Fig. 5a — SION vs. task-local bandwidth, Jugene"),
    ("fig5b_jaguar", "Fig. 5b — SION vs. task-local bandwidth, Jaguar"),
    ("fig6_mp2c", "Fig. 6 — MP2C restart I/O"),
    ("table2_scalasca", "Table 2 — Scalasca measurement activation"),
    ("ablation_alignment_sweep", "Ablation — alignment granularity sweep"),
    ("ablation_nfiles_tradeoff", "Ablation — number-of-files trade-off"),
    ("ablation_metadata_exchange", "Ablation — metadata exchange strategy"),
    ("ablation_tape_archive", "Ablation — tape archival (§1 motivation)"),
    ("ablation_interference", "Ablation — bystander interference (§1 motivation)"),
    ("weak_scaling_mp2c", "Weak scaling — MP2C checkpoints growing with the machine"),
    ("analyzer_trace_load", "Analyzer trace-load pass (§5.2 read path)"),
    ("extrapolation_million_tasks", "Extrapolation — toward a million tasks"),
]


@dataclass
class ReportSection:
    """One artifact's rendered block."""

    name: str
    title: str
    body: str
    missing: bool = False


def collect_sections(results_dir: str | pathlib.Path) -> list[ReportSection]:
    """Load every known artifact (missing ones are flagged, not fatal)."""
    root = pathlib.Path(results_dir)
    sections = []
    for name, title in ARTIFACTS:
        path = root / f"{name}.txt"
        if path.exists():
            sections.append(ReportSection(name, title, path.read_text().rstrip()))
        else:
            sections.append(
                ReportSection(
                    name,
                    title,
                    f"(missing — run `{REGENERATE}` to produce {path.name})",
                    missing=True,
                )
            )
    return sections


def render_markdown(sections: list[ReportSection], heading: str = "Reproduced results") -> str:
    """Assemble the sections into one markdown document."""
    lines = [f"# {heading}", ""]
    produced = sum(1 for s in sections if not s.missing)
    lines.append(
        f"{produced}/{len(sections)} artifacts present. Regenerate with "
        f"`{REGENERATE}`."
    )
    lines.append("")
    for s in sections:
        lines.append(f"## {s.title}")
        lines.append("")
        lines.append("```")
        lines.append(s.body)
        lines.append("```")
        lines.append("")
    return "\n".join(lines)


def write_report(
    results_dir: str | pathlib.Path, out_path: str | pathlib.Path
) -> pathlib.Path:
    """Collect + render + write; returns the output path."""
    out = pathlib.Path(out_path)
    out.write_text(render_markdown(collect_sections(results_dir)))
    return out
