#!/usr/bin/env python3
"""Flag drift in the benchmark's deterministic counters between two result sets.

    python3 perfbench/drift.py OLD NEW

OLD and NEW are either two saved outputs of traced runs (`--trace 1`) or two
directories holding such outputs under matching file names, for example
`stitch-3.txt` for `--workload stitch --seed 3`. Only the last line of each
output, the JSON result, is read.

The counters compared here are pure functions of the code and the seed: for
one commit and one seed they repeat exactly, so any difference is a change in
what the program computes, not noise. A change that is only a speed-up must
leave every one of them identical. Exits 1 on drift, 2 on unusable input.
"""

import json
import os
import sys

DETERMINISTIC = [
    # tvs_core counts, which set m_ratio and t_ratio
    "cycle.steps",
    "cycle.shift_bits_saved",
    "cycle.reverted",
    "engine.stitched_vectors",
    "engine.extra_vectors",
    "flow.m_ratio",
    "flow.t_ratio",
    # constrained ATPG work, and the probe's sample of it
    "engine.atpg_attempts",
    "atpg.probe.calls",
    # fault simulation work (faultgrade isolates it)
    "faultsim.gate_evals",
    "faultsim.events_fired",
    "sim.event.gate_evals",
    "sim.event.full_passes",
    # SAT work of the equivalence checks (serve-mixed)
    "cec.sat.calls",
    "cec.sat.decisions",
]


def die(msg):
    print(f"drift: {msg}", file=sys.stderr)
    sys.exit(2)


def metrics(path):
    with open(path) as f:
        lines = [line for line in f.read().splitlines() if line.strip()]
    if not lines:
        die(f"{path}: empty")
    try:
        result = json.loads(lines[-1])
        return {k: v["value"] for k, v in result["metrics"].items()}
    except (ValueError, KeyError, TypeError) as e:
        die(f"{path}: last line is not a benchmark result ({e})")


def pairs(old, new):
    if os.path.isdir(old) and os.path.isdir(new):
        names = sorted(set(os.listdir(old)) & set(os.listdir(new)))
        if not names:
            die(f"{old} and {new} share no file names")
        return [(n, os.path.join(old, n), os.path.join(new, n)) for n in names]
    if os.path.isfile(old) and os.path.isfile(new):
        return [(os.path.basename(new), old, new)]
    die("give two result files or two directories of them")


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    drifted = 0
    for name, old_path, new_path in pairs(argv[1], argv[2]):
        old, new = metrics(old_path), metrics(new_path)
        for counter in DETERMINISTIC:
            if counter not in old or counter not in new:
                continue
            if old[counter] != new[counter]:
                drifted += 1
                print(f"DRIFT {name}: {counter} {old[counter]} -> {new[counter]}")
        print(f"checked {name}")
    print(f"{drifted} drifted counter(s)")
    return 1 if drifted else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
