#!/usr/bin/env python
"""Drive the simulated Jugene and Jaguar machines interactively.

Two demonstrations:

1. the full SION stack running unmodified on the simulated parallel file
   system (virtual clock, sparse terabyte files in megabytes of RAM);
2. a miniature of the paper's Fig. 3 experiment — why creating one file
   per task stops scaling — rendered as a table and an ASCII chart.

Run:  python examples/simulated_machines.py
"""

from repro import simmpi, sion
from repro.analysis.plots import ascii_chart
from repro.analysis.results import Series, format_table
from repro.backends.simfs_backend import SimBackend
from repro.fs.simfs import SimFS
from repro.fs.systems import jugene
from repro.workloads.filecreate import run_fig3


def main():
    # --- 1. The library on the simulated machine --------------------------
    profile = jugene()
    fs = SimFS(profile=profile)
    fs.mkdir("/scratch")
    backend = SimBackend(fs)

    def writer(comm):
        f = sion.paropen("/scratch/big.sion", "w", comm,
                         chunksize=16 * (1 << 20), backend=backend)
        # A few real bytes; the rest of each 16 MiB chunk stays sparse, no RAM cost.
        f.fwrite(b"header")
        f.parclose()

    simmpi.run_spmd(32, writer)
    st = fs.stat("/scratch/big.sion")
    print("simulated Jugene scratch file system:")
    print(f"  multifile logical size: {st.st_size / 1e6:.1f} MB "
          f"(allocated in RAM: {st.allocated_bytes / 1e3:.1f} KB)")
    print(f"  virtual clock after the run: {fs.clock * 1e3:.3f} ms")
    print(f"  metadata ops: { {k: v for k, v in fs.op_counts.items() if 'bytes' not in k} }\n")

    # --- 2. Fig. 3a in miniature ------------------------------------------
    counts = [1024, 4096, 16384, 65536]
    rows = run_fig3(profile, counts)
    s = Series("fig3a", "#tasks", "seconds", xs=[r.ntasks for r in rows])
    s.add_curve("create files", [r.create_files_s for r in rows])
    s.add_curve("open existing", [r.open_existing_s for r in rows])
    s.add_curve("SION create", [r.sion_create_s for r in rows])
    print("Fig. 3a (simulated Jugene): parallel file creation")
    print(format_table(s))
    print()
    print(ascii_chart(s, log_x=True, log_y=True, width=56, height=14))
    last = rows[-1]
    print(f"\nat 64K tasks, the SION multifile is created "
          f"{last.create_speedup:.0f}x faster than 64K task-local files")


if __name__ == "__main__":
    main()
