"""Print the per-layer split of a traced run's spans.

    python3 perfbench/spans.py .perfbench/spans-fleet-hetero-event-seed100.npz
    python3 perfbench/spans.py FILE --under fleet.policies

Lists calls, self and total seconds per layer; with ``--under`` only the
spans inside that layer's spans, i.e. where its time went.
"""

from __future__ import annotations

import argparse

import numpy as np

from tracer import layer_stats


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans")
    parser.add_argument("--under")
    args = parser.parse_args()
    data = np.load(args.spans)
    layers = [str(name) for name in data["layers"]]
    stats = layer_stats(layers, {k: data[k] for k in data.files}, args.under)
    print(f"{'layer':32s} {'calls':>8s} {'self_s':>9s} {'total_s':>9s}")
    for name, st in sorted(stats.items(), key=lambda kv: -kv[1]["self_s"]):
        if st["calls"]:
            print(f"{name:32s} {st['calls']:8d} {st['self_s']:9.3f} {st['total_s']:9.3f}")


if __name__ == "__main__":
    main()
