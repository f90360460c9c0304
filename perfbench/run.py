#!/usr/bin/env python3
"""End-to-end benchmark of the simulated Zab ensemble.

Run from the repository root::

    python3 perfbench/run.py --workload saturated-n5 --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run;
``--trace 1`` prints the per-layer table of a traced run, with the
tracing overhead against an untraced run of the same episodes.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it give the same numbers as a table, with sample counts and the host.
A failed correctness check names itself on standard error and exits 1.

``--self-test`` checks the benchmark itself (see ``selftest.py``).

The metrics and what each layer metric should move are listed in
``metrics.py``; the workloads are defined in ``workloads.py``.
"""

import argparse
import json
import os
import platform
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def load_program():
    """Put the checkout's program and this directory on the path."""
    package = os.path.join(SRC, "repro", "__init__.py")
    if not os.path.isfile(package):
        sys.exit("perfbench: no program source at %s" % package)
    sys.path[:0] = [SRC, HERE]
    import repro
    if os.path.abspath(repro.__file__) != package:
        sys.exit("perfbench: imported repro from %s, not from %s"
                 % (repro.__file__, package))


def host_facts():
    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine()}


def report(values, units, notes, totals):
    for name, unit in units.items():
        print("%-26s %16.6f %s" % (name, values[name], unit))
    print("notes: " + json.dumps(notes, sort_keys=True))
    print("host: " + json.dumps(host_facts(), sort_keys=True))
    print(json.dumps({
        "correct": True,
        "attempted": totals["attempted"],
        "failed": totals["failed"],
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--digest", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    load_program()
    import metrics
    if args.self_test:
        import selftest
        return selftest.main(ROOT)
    if args.workload not in metrics.WORKLOADS:
        parser.error("--workload must be one of %s"
                     % ", ".join(metrics.WORKLOADS))
    if args.setup_probe:
        # Import and build only what a user of the program would.
        import workloads
        workloads.Episode(workloads.SHAPES[args.workload], args.seed).build()
        print(repr(time.monotonic()))
        return 0
    import suite
    import workloads
    if args.digest:
        print(json.dumps(suite.digest(args.workload, args.seed)))
        return 0
    try:
        if args.trace:
            values, notes, totals = suite.per_layer(args.workload, args.seed)
            units = metrics.per_layer_units()
        else:
            values, notes, totals = suite.end_to_end(
                args.workload, args.seed, args.seconds)
            units = metrics.end_to_end_units()
    except workloads.CheckFailed as exc:
        print("perfbench: correctness check failed: %s" % exc,
              file=sys.stderr)
        return 1
    report(values, units, notes, totals)
    return 0


if __name__ == "__main__":
    sys.exit(main())
