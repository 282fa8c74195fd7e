#!/usr/bin/env python
"""Reproduce every table and figure of the paper in one command.

Runs the nine registered paper scenarios of the ``smoke`` suite on the
simulated machines and prints each one's table (with ASCII renderings of
the log-scale figures).  They are the same scenarios that ``python -m
repro.bench run --suite smoke`` gates against its baseline and that
``pytest benchmarks/`` renders under ``benchmarks/results/``; each checks
the paper's claims for its figure as it runs, so a claim that no longer
holds makes this script fail.

Run:  python examples/paper_figures.py          (~45 s)
"""

from repro.bench import get_scenario

#: The paper's evaluation in its own order: Figs. 3-4, Table 1, Figs. 5-6,
#: Table 2.
PAPER_SCENARIOS = (
    "fig3/filecreate-jugene",
    "fig3/filecreate-jaguar",
    "fig4/nfiles-jugene",
    "fig4/nfiles-jaguar",
    "table1/alignment",
    "fig5/taskbw-jugene",
    "fig5/taskbw-jaguar",
    "fig6/mp2c-restart",
    "table2/scalasca",
)


def main():
    for name in PAPER_SCENARIOS:
        print(f"\n{'=' * 72}\n{name}\n{'=' * 72}")
        print(get_scenario(name).execute().text)


if __name__ == "__main__":
    main()
