"""Ablation — set-trie vs incidence bitsets vs linear scan for DynEI's
set queries.

Section VI-C: the violated-DC search (a subset query per evidence) and the
candidate-minimality check "can be naively implemented by comparing ... to
all (current) DCs"; the paper instead uses the tree structure of [2].
DynEI here keeps Σ as per-predicate incidence bitsets
(:class:`~repro.enumeration.incidence.IncidenceSet`), where both queries
are a bit-sliced count over the predicates outside the query mask.  This
ablation times all three on a real DC antichain; the set-trie is a
fixture in ``_set_structures.py``.
"""

import random

from _harness import ResultTable, rows_for, timed
from _set_structures import SetTrie

from repro.enumeration import IncidenceSet
from repro.enumeration.incidence import iter_slots
from repro.enumeration.mmcs import mmcs_enumerate
from repro.evidence import build_evidence_state
from repro.predicates import build_predicate_space
from repro.workloads import generate_dataset

DATASET = "Tax"


def test_ablation_settrie_vs_linear(benchmark):
    relation = generate_dataset(DATASET, rows_for(DATASET))
    space = build_predicate_space(relation)
    state = build_evidence_state(relation, space)
    evidence = list(state.evidence)
    sigma = mmcs_enumerate(space, evidence)
    trie = SetTrie(sigma)
    bitsets = IncidenceSet(sigma)
    rng = random.Random(0)
    queries = rng.sample(evidence, min(200, len(evidence)))

    def trie_subset_queries():
        return sum(len(trie.subsets_of(e)) for e in queries)

    def linear_subset_queries():
        total = 0
        for e in queries:
            total += sum(1 for mask in sigma if mask & e == mask)
        return total

    full_mask = space.full_mask

    def bitset_subset_queries():
        total = 0
        for e in queries:
            violated, _ = bitsets.count_outside(full_mask & ~e)
            total += len([bitsets.mask_at(slot) for slot in iter_slots(violated)])
        return total

    trie_hits, trie_time = timed(trie_subset_queries)
    bitset_hits, bitset_time = timed(bitset_subset_queries)
    linear_hits, linear_time = timed(linear_subset_queries)
    assert trie_hits == bitset_hits == linear_hits, "query structures disagree"

    candidates = [
        mask | (1 << rng.randrange(space.n_bits)) for mask in sigma[:500]
    ]

    def trie_minimality_checks():
        return sum(trie.has_subset_of(c) for c in candidates)

    def linear_minimality_checks():
        return sum(
            any(mask & c == mask for mask in sigma) for c in candidates
        )

    def bitset_minimality_checks():
        return sum(
            bool(bitsets.count_outside(full_mask & ~c)[0]) for c in candidates
        )

    trie_min, trie_min_time = timed(trie_minimality_checks)
    bitset_min, bitset_min_time = timed(bitset_minimality_checks)
    linear_min, linear_min_time = timed(linear_minimality_checks)
    assert trie_min == bitset_min == linear_min

    def speedup(time_s):
        return linear_time / time_s if time_s else float("inf")

    def min_speedup(time_s):
        return linear_min_time / time_s if time_s else float("inf")

    table = ResultTable(
        f"Ablation — set-trie vs incidence bitsets vs linear scan "
        f"(|Σ|={len(sigma)}, {DATASET})",
        ["operation", "set-trie (s)", "bitsets (s)", "linear scan (s)",
         "trie speedup", "bitset speedup"],
        "ablation_settrie.txt",
    )
    table.add(
        "violated-DC search (line 4)", trie_time, bitset_time, linear_time,
        speedup(trie_time), speedup(bitset_time),
    )
    table.add(
        "minimality check (line 8)", trie_min_time, bitset_min_time,
        linear_min_time, min_speedup(trie_min_time),
        min_speedup(bitset_min_time),
    )
    table.finish(
        shape_notes=[
            "speedups are over the linear scan; both structures answer "
            "one query mask at a time here, while refine_sigma asks the "
            "bitsets once per evidence for the violated DCs and the "
            "blockers of all its refinements together",
        ]
    )
    benchmark.pedantic(trie_subset_queries, rounds=1, iterations=1)
