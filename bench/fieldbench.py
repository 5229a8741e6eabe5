"""Per-call cost of the public Field operations, in nanoseconds.

    python3 bench/fieldbench.py SEED

Times `Field.add`, `Field.mul` and `Field.inv` over fixed operand lists drawn
from SEED, on GF(9) and on GF(729) built as GF(9).extension(3) (the splitting
field `parity_check_code(GF(9), 91)` builds).  Each figure is the median of
several passes over the list, loop included, divided by its length.  Prints
one JSON object of `gf.<op>_ns.GF<order>` values.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time

OPS_PER_PASS = 20000
PASSES = 7


def _binary_pass(op, pairs) -> None:
    for a, b in pairs:
        op(a, b)


def _unary_pass(op, pairs) -> None:
    for _, b in pairs:
        op(b)


def per_call_ns(run_pass, op, pairs) -> float:
    times = []
    for _ in range(PASSES):
        start = time.perf_counter_ns()
        run_pass(op, pairs)
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / len(pairs)


def main(argv: list[str]) -> int:
    from sumrank.gf import make_field

    rng = random.Random(int(argv[0]))
    gf9 = make_field(3, [2])
    gf729 = gf9.extension(3)
    out = {}
    for field, ops in ((gf9, ("add", "mul")), (gf729, ("add", "mul", "inv"))):
        q = field.order
        pairs = [(rng.randrange(q), rng.randrange(1, q)) for _ in range(OPS_PER_PASS)]
        field.inv(1)  # fill the lazy log tables outside the timed loop
        for name in ops:
            run_pass = _unary_pass if name == "inv" else _binary_pass
            out[f"gf.{name}_ns.GF{q}"] = per_call_ns(run_pass, getattr(field, name), pairs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
