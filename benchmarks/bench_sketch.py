"""E17 / bounded dedup memory: exact store with horizon + budget eviction.

A high-cardinality flood -- every record carrying a brand-new edge label --
runs through two engines, one with the default unbounded dedup memory and
one with ``dedup_memory_budget`` armed; a second phase pushes ``>= 1M *
scale`` distinct keys through a bare :class:`~repro.sketch.dedup.DedupMemory`
behind a retention horizon.

Assertions (all deterministic, so they run at every scale including the CI
smoke):

* **exactness** -- the bounded run emits byte-for-byte the unbounded run's
  events;
* **bounded memory** -- the engine's dedup store and the bare store both
  keep their *measured* high-water mark within budget, with in-horizon
  suppression recall intact.

The result is written to ``BENCH_sketch.json`` at the repository root for
later diffing.

Runnable standalone (CI smoke)::

    PYTHONPATH=src python benchmarks/bench_sketch.py --tiny
"""

import json
from pathlib import Path

from repro.harness.experiments import experiment_sketch_membership
from repro.harness.reporting import format_report

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sketch.json"


def check_result(result):
    """Shared assertions for the pytest and CLI entry points."""
    assert result["events_identical"], (
        "the dedup budget changed the emitted events -- bounded suppression "
        "is no longer exact"
    )
    assert result["events"] > 0, "flood carried no detectable signal (vacuous run)"
    assert result["dedup_peak_entries"] <= result["dedup_budget"]
    assert result["memory_bound_held"], (
        f"dedup store peaked at {result['memory_peak_entries']} entries "
        f"(budget {result['memory_budget']})"
    )
    assert result["memory_recall_failures"] == 0, (
        "in-horizon identities were forgotten -- suppression is no longer exact"
    )


def test_sketch_membership(run_experiment):
    result = run_experiment(
        experiment_sketch_membership,
        "E17 -- bounded dedup memory",
    )
    check_result(result)


if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--tiny",
        action="store_true",
        help="smoke-test scale (CI): all assertions still run -- they are "
        "deterministic exactness/bound properties, not wall-clock thresholds",
    )
    parser.add_argument("--scale", type=float, default=1.0, help="workload scale factor")
    args = parser.parse_args()

    scale = 0.1 if args.tiny else args.scale
    result = experiment_sketch_membership(scale=scale)
    print(format_report("E17 -- bounded dedup memory", result))
    check_result(result)
    OUTPUT.write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    print(
        f"exactness OK ({result['events']} events identical); engine dedup peaked "
        f"at {result['dedup_peak_entries']}/{result['dedup_budget']} entries; "
        f"bare store peaked at "
        f"{result['memory_peak_entries']}/{result['memory_budget']} entries over "
        f"{result['memory_keys']} distinct keys; wrote {OUTPUT.name}"
    )
