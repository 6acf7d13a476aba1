"""Instance files: write a model out, read it back, query the Gibbs oracle.

Usage:
    python demos/06_instance_files.py
"""

from fractions import Fraction

from holant import (
    brute_force_hol,
    cycle_graph,
    gibbs_oracle,
    parse_instance,
    serialize_instance,
    tractable_search,
)
from holant.models import ModelSpec, build_model


def main():
    inst = build_model(
        ModelSpec("subgraphs_world", {"lambda": Fraction(1, 2), "mu": Fraction(1, 3)}),
        cycle_graph(3),
    )
    text = serialize_instance(inst)
    print("== Serialized instance ==")
    print("\n".join("  " + line for line in text.splitlines()))

    again = parse_instance(text)
    print()
    print(f"round-trip value preserved: {brute_force_hol(again) == brute_force_hol(inst)}")
    print(f"model provenance survives: kind={again.model.kind},"
          f" base graph edges={again.model.base_graph.edges}")
    print(f"model completion still works: {tractable_search(again, {2: 1}) is not None}")

    print()
    print("== Exact conditional marginals from the Gibbs oracle ==")
    oracle = gibbs_oracle(again)
    for e in range(3):
        dist = oracle.marginal(e)
        print(f"  half-edge {e}: p(0) = {dist[0]}, p(1) = {dist[1]}")


if __name__ == "__main__":
    main()
