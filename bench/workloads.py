"""The four workloads: each is a list of ``engel-lab`` command lines.

One round runs every command once.  The seed fixes only the order of a
round's commands, so every seed does the same work and the traced counts
repeat exactly across seeds.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify-paper", "analyze-ladder", "engel-large", "group-census")

# Realised families of growing size plus the non-multipartite A:4 and S:4.
# F:3:37 (74 vertices, past the clique limit) carries the large-matrix
# charpoly, F:5:11 (44 vertices, 11 parts) the clique search.
LADDER_SPECS = (
    "D:24", "D:96", "Q:96", "F:3:37", "F:5:11",
    "P:(C:3)x(D:6)", "P:(Q:8)x(D:12)", "A:4", "S:4",
)

# (spec, graph kind): the pairwise Engel loops on groups of order 203..720.
# F:7:29 is exported both ways so the full graph can be checked against the
# directed one; D:256's complete digraph is the largest JSON document.
ENGEL_GRAPHS = (
    ("S:6", "directed"),
    ("A:6", "reduced"),
    ("D:384", "directed"),
    ("F:7:43", "directed"),
    ("F:7:29", "directed"),
    ("F:7:29", "full"),
    ("P:(S:4)x(D:12)", "directed"),
    ("D:256", "directed"),
)

CENSUS_MAX_ORDER = 180
CENSUS_EXTRA = ("S:5", "A:5", "A:6", "S:6")


def _primes(limit: int) -> list[int]:
    return [p for p in range(2, limit + 1) if all(p % d for d in range(2, p))]


def soluble_catalogue(max_order: int) -> list[list[str]]:
    """Built-in soluble groups of order <= max_order, one list per family,
    each ascending in order.  Written out here rather than taken from the
    program, so the workload stays the same when the program changes."""
    primes = _primes(max_order)
    return [
        [f"C:{n}" for n in range(2, max_order + 1)],
        [f"D:{n}" for n in range(4, max_order + 1, 2)],
        [f"Q:{n}" for n in range(8, max_order + 1, 4)],
        [f"F:{p}:{q}" for p in primes for q in primes
         if p < q and q % p == 1 and p * q <= max_order],
        [f"S:{n}" for n in (2, 3, 4)],
        [f"A:{n}" for n in (3, 4)],
    ]


def census_specs() -> list[str]:
    """One spec of each neighbouring pair of every catalogue family, the
    first and the second in turn (so both parities of n occur), plus the
    four non-soluble or large extras."""
    out = []
    for family in soluble_catalogue(CENSUS_MAX_ORDER):
        for k, i in enumerate(range(0, len(family), 2)):
            out.append(family[min(i + k % 2, len(family) - 1)])
    return out + list(CENSUS_EXTRA)


def operations(workload: str, seed: int) -> list[list[str]]:
    """The argv lists of one round, in the seed's order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verify-paper":
        return [["verify-paper", "--out", "json"]]
    if workload == "analyze-ladder":
        ops = [["analyze", s] for s in LADDER_SPECS]
    elif workload == "engel-large":
        ops = [["graph", s, f"--{kind}"] for s, kind in ENGEL_GRAPHS]
    elif workload == "group-census":
        ops = [["group", s] for s in census_specs()]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops

