"""Self-test of the benchmark (``run.py --self-test``).

1. ``BENCHMARK.json`` lists exactly the workloads and metric names, units
   and bounds of ``metrics.py``.
2. Determinism: two fresh interpreters, with different string-hash
   seeds, run the same seed of each workload and must report identical
   virtual-time results and counts (compared as one digest).
3. Shape: a second seed keeps the qualitative shape of each workload:
   one election and no catch-up sync on ``saturated-n5``; on
   ``failover-traced`` and the ``explore`` probe, one leader-crash gap
   and at least one SNAP sync per episode.
"""

import json
import os
import subprocess
import sys

import metrics

SEEDS = (7, 8)


def digest(root, workload, seed, hash_seed):
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    out = subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--digest", "--workload", workload, "--seed", str(seed)],
        cwd=root, env=env, capture_output=True, text=True, check=True,
        timeout=170)
    return json.loads(out.stdout.strip().splitlines()[-1])


def shape_problems(workload, shapes):
    problems = []
    for index, shape in enumerate(shapes):
        where = "%s episode %d" % (workload, index)
        if workload == "saturated-n5":
            if shape["elections"] != 1 or shape["long_gaps"] != 0:
                problems.append("%s: expected one election and no gap, "
                                "got %r" % (where, shape))
            if set(shape["sync"]) - {"diff"}:
                problems.append("%s: unexpected sync %r"
                                % (where, shape["sync"]))
        else:
            if shape["long_gaps"] != 1:
                problems.append("%s: expected one leader-crash gap, got %d"
                                % (where, shape["long_gaps"]))
            if shape["sync"].get("snap", 0) < 1:
                problems.append("%s: expected a SNAP sync, got %r"
                                % (where, shape["sync"]))
    return problems


def main(root):
    problems = []
    with open(os.path.join(root, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    expected = metrics.manifest()
    for key in ("end_to_end", "per_layer"):
        if manifest[key] != expected[key]:
            problems.append("BENCHMARK.json %s differs from metrics.py" % key)
    if [w["name"] for w in manifest["workloads"]] != list(metrics.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from metrics.py")
    for workload in metrics.WORKLOADS:
        first = digest(root, workload, SEEDS[0], 1)
        again = digest(root, workload, SEEDS[0], 2)
        if first["digest"] != again["digest"]:
            problems.append("%s: seed %d is not deterministic"
                            % (workload, SEEDS[0]))
        other = digest(root, workload, SEEDS[1], 3)
        if other["digest"] == first["digest"]:
            problems.append("%s: seeds %d and %d gave identical runs"
                            % (workload, SEEDS[0], SEEDS[1]))
        problems += shape_problems(workload, first["shapes"])
        problems += shape_problems(workload, other["shapes"])
        print("%-16s digest %s / %s" % (workload, first["digest"],
                                        other["digest"]))
    for problem in problems:
        print("FAIL " + problem)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0
