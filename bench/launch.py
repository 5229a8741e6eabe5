"""Run one sumrank CLI job with the benchmark's wrappers installed.

    python3 bench/launch.py spans|count OUT_JSON JOB T0 -- <sumrank cli argv>

`spans` records a span around each wrapped public function; `count` counts
`Field.add`, `Field.mul` and `Field.inv` calls only.  The job runs through
`sumrank.cli.main(argv)`, so the traced code path is the CLI's own.  T0 is
the launching process's `time.perf_counter()` just before the spawn (the
clock is system-wide), so `startup_s` covers interpreter start and imports.
When the job returns, the recorded spans and counters are written to
OUT_JSON and the process exits with the job's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import tracing


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[4] != "--" or argv[0] not in ("spans", "count"):
        print(__doc__, file=sys.stderr)
        return 4
    mode, out_path, job, t0 = argv[0], argv[1], argv[2], float(argv[3])
    cli_argv = argv[5:]

    import sumrank.cli
    import sumrank.spaces

    rec = tracing.Recorder(job)
    tables_before = sumrank.spaces._rank_array_cached.cache_info().misses
    if mode == "spans":
        patches = tracing.install_spans(rec)
        cells = {}
    else:
        patches, cells = tracing.install_field_counters()
    main_start = time.perf_counter()
    try:
        rc = sumrank.cli.main(cli_argv)
    finally:
        main_end = time.perf_counter()
        tracing.restore(patches)
    rec.counters["spaces.rank_tables_built"] = (
        sumrank.spaces._rank_array_cached.cache_info().misses - tables_before)
    for op, cell in cells.items():
        rec.counters[f"gf.{op}_calls"] = cell[0]
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"job": job, "mode": mode, "startup_s": main_start - t0,
                   "main_s": main_end - main_start, "spans": rec.records(),
                   "counters": rec.counters}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
