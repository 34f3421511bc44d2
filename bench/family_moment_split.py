"""How many of a family target's signature matches exact T5 and T6 reject.

For each target, the candidates are the cones that `search_family` builds
and eigensolves, both read from `family._candidates`: every family member,
other than the target, whose T1..T4 equal the target's.  Their T5 = tr Q^5
and T6 come exactly from the block walk sums (`moments._cone_traces` at
order 6), with no matrix built.  Per target the script prints the number
of candidates, how many T5 rejects, how many of the rest T6 rejects, and
how many share T1..T6.

    python bench/family_moment_split.py "K1 v C20 + C8 + C6 + 3K2 + 2K1" \\
        "K1 v C45 + C3 + 2K2 + K1"
"""

from __future__ import annotations

import argparse
import json
from collections import Counter

from qcones import parse_spec_text
from qcones.family import _candidates
from qcones.graphs import _blocks
from qcones.moments import _cone_traces


def _traces(spec, order: int = 6) -> tuple[int, ...]:
    return _cone_traces(Counter((kind, size) for kind, _, size in _blocks(spec)), order)[0]


def split(target) -> dict:
    """The candidates of one target and where their moments first differ."""
    t = _traces(target)
    verdicts = Counter()
    for cand in _candidates(target)[1]:
        c = _traces(cand)
        assert c[:4] == t[:4], cand
        verdicts["t5" if c[4] != t[4] else "t6" if c[5] != t[5] else "same"] += 1
    return {
        "n": target.n,
        "candidates": sum(verdicts.values()),
        "rejected_by_t5": verdicts["t5"],
        "rejected_by_t6": verdicts["t6"],
        "share_t1_to_t6": verdicts["same"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("targets", nargs="+", help="cone specs, e.g. 'K1 v C45 + C3 + 2K2 + K1'")
    args = parser.parse_args(argv)
    print(json.dumps({text: split(parse_spec_text(text)) for text in args.targets}, indent=2))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
