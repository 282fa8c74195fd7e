#!/usr/bin/env python
"""Reproduce every table and figure of the paper in one command.

Runs the complete evaluation suite on the simulated machines and prints
the paper-style tables (plus ASCII renderings of the log-scale figures).
Equivalent to ``pytest benchmarks/`` minus the harness.

Run:  python examples/paper_figures.py          (~30 s)
"""

from repro.analysis.plots import ascii_chart
from repro.analysis.results import Series, format_table
from repro.fs.systems import jaguar, jugene
from repro.workloads.alignment import run_table1
from repro.workloads.bandwidth import run_fig4a, run_fig4b
from repro.workloads.filecreate import (
    JAGUAR_TASK_COUNTS,
    JUGENE_TASK_COUNTS,
    run_fig3,
)
from repro.workloads.mp2c_io import crossover_particles_m, run_fig6
from repro.workloads.scalasca_io import run_table2
from repro.workloads.taskbw import run_fig5a, run_fig5b


def heading(title):
    print(f"\n{'=' * 72}\n{title}\n{'=' * 72}")


def main():
    ju, ja = jugene(), jaguar()

    heading("Fig. 3 — parallel creation of task-local files vs. SION multifile")
    for name, profile, counts, nfiles in (
        ("Jugene (GPFS)", ju, JUGENE_TASK_COUNTS, 1),
        ("Jaguar (Lustre)", ja, JAGUAR_TASK_COUNTS, 16),
    ):
        rows = run_fig3(profile, counts, nfiles)
        s = Series(name, "#tasks", "seconds", xs=[r.ntasks for r in rows])
        s.add_curve("create files", [r.create_files_s for r in rows])
        s.add_curve("open existing", [r.open_existing_s for r in rows])
        s.add_curve("SION create", [r.sion_create_s for r in rows])
        print(f"\n{name}:")
        print(format_table(s))

    heading("Fig. 4 — bandwidth vs. number of physical files")
    pts = run_fig4a(ju)
    s = Series("fig4a", "#files", "MB/s", xs=[p.nfiles for p in pts])
    s.add_curve("write", [p.write_mb_s for p in pts])
    s.add_curve("read", [p.read_mb_s for p in pts])
    print("\nJugene (64K tasks, 1 TB):")
    print(format_table(s))
    res = run_fig4b(ja)
    s = Series("fig4b", "#files", "MB/s", xs=[p.nfiles for p in res.default])
    s.add_curve("write default", [p.write_mb_s for p in res.default])
    s.add_curve("write optimized", [p.write_mb_s for p in res.optimized])
    print("\nJaguar (2K tasks, 1 TB; default 4x1MB vs optimized 64x8MB striping):")
    print(format_table(s))

    heading("Table 1 — file-system block alignment (Jugene, 32K tasks, 256 GB)")
    t1 = run_table1(ju)
    print(f"\naligned (2 MB):   write {t1.aligned.write_mb_s:7.1f}  "
          f"read {t1.aligned.read_mb_s:7.1f} MB/s")
    print(f"unaligned (16 KB): write {t1.unaligned.write_mb_s:7.1f}  "
          f"read {t1.unaligned.read_mb_s:7.1f} MB/s")
    print(f"factors: {t1.write_factor:.2f}x write (paper 2.53x), "
          f"{t1.read_factor:.2f}x read (paper 1.78x)")

    heading("Fig. 5 — SION vs. task-local bandwidth over task counts")
    for name, pts in (("Jugene", run_fig5a(ju)), ("Jaguar", run_fig5b(ja))):
        s = Series(name, "#tasks", "MB/s", xs=[p.ntasks for p in pts])
        s.add_curve("SION write", [p.sion_write for p in pts])
        s.add_curve("SION read", [p.sion_read for p in pts])
        s.add_curve("task-local write", [p.tasklocal_write for p in pts])
        s.add_curve("task-local read", [p.tasklocal_read for p in pts])
        print(f"\n{name}:")
        print(format_table(s))

    heading("Fig. 6 — MP2C restart I/O on 1000 Jugene cores")
    pts = run_fig6(ju)
    s = Series("fig6", "Mio. particles", "seconds", xs=[p.particles_m for p in pts])
    s.add_curve("write, SION", [p.sion_write_s for p in pts])
    s.add_curve("read, SION", [p.sion_read_s for p in pts])
    s.add_curve("write", [p.single_write_s for p in pts])
    s.add_curve("read", [p.single_read_s for p in pts])
    print(format_table(s))
    print()
    print(ascii_chart(s, log_x=True, log_y=True, width=56, height=14))
    by_m = {p.particles_m: p for p in pts}
    print(f"\ncrossover ~{crossover_particles_m(pts)} M particles; "
          f"33 M speedup: {by_m[33.0].write_speedup:.0f}x (paper: 1-2 orders)")

    heading("Table 2 — Scalasca trace measurement activation (32K tasks)")
    t2 = run_table2(ju)
    for row in (t2.tasklocal, t2.sion):
        print(f"{row.io_type:<10}  activation {row.activation_s:7.1f} s   "
              f"write BW {row.write_bw_mb_s:6.0f} MB/s")
    print(f"speedup: {t2.activation_speedup:.1f}x (paper: 13.1x)")


if __name__ == "__main__":
    main()
