"""Re-derive the complete classification mechanically.

An unknown operation table is parameterized by 32 fresh indeterminates on
the generator columns, the axiom residuals become a polynomial system, and
a depth-first solver (linear elimination + factor splitting into disjoint
cases) resolves every branch.  Resolved branches are verified by exact
substitution, deduplicated into maximal families, and matched against the
built-in tables.
"""

import time

from posthopf import builtin_families, classify, match_families, sweedler_h4
from posthopf.cli import render_table
from posthopf.triangleop import check_unitality

t0 = time.perf_counter()
result = classify(mode="relaxed", parameterization="generator32")
elapsed = time.perf_counter() - t0

print(
    f"solved in {elapsed:.1f}s: {result.stats['nodes']} case-tree nodes, "
    f"{result.stats['substitutions']} eliminations, {result.stats['splits']} splits"
)
print(
    f"branches: {result.stats['resolved']} resolved, {result.stats['pruned']} pruned, "
    f"{result.stats['unresolved']} unresolved"
)

match = match_families(result.maximal_families, builtin_families())
h4 = sweedler_h4()
print(f"\nmaximal families: {len(result.maximal_families)}\n")
for idx, fam in enumerate(result.maximal_families):
    label = next(lbl for i, lbl in match.pairs if i == idx)
    unital = check_unitality(h4, fam.table).passed
    kind = "weak" if unital else "relaxed only"
    print(f"family matching built-in ({label}) [{kind}]")
    print(render_table(fam.table, h4))
    if fam.branch.free_params:
        print(f"  free parameters: {', '.join(fam.branch.free_params)}")
    print()

print("bijection with the built-in tables:", "yes" if match.perfect else "NO")

# one resolved branch's derivation log, for flavor
sample = result.families[0].branch
print(f"\nfirst branch derivation ({len(sample.trace)} steps), first 6 steps:")
for step in sample.trace[:6]:
    print("  ", step)
