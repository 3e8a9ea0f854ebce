"""Brute-force enumeration against the classification arithmetic.

Two independent computations of the same number: an exhaustive backtracking
search over multiplication tables, and counting the canonical labels whose
size formula hits k.  They must agree at every size the search can reach.
"""

import time

from twovalued import all_labels_of_size, classify, enumerate_all

print(f"{'size':>4} {'search':>7} {'labels':>7}  classes")
for k in range(1, 8):
    t0 = time.time()
    groups = enumerate_all(k)
    dt = time.time() - t0
    labels = all_labels_of_size(k)
    found = sorted(str(classify(g)) for g in groups)
    expected = sorted(str(l) for l in labels)
    mark = "ok" if found == expected else "MISMATCH"
    print(f"{k:>4} {len(groups):>7} {len(labels):>7}  {', '.join(found)}  [{mark}, {dt:.2f}s]")

# general mode drops commutativity and involutivity
print("\nall two-valued groups (any flavor):")
for k in range(1, 5):
    gs = enumerate_all(k, involutive_commutative=False)
    print(f"  size {k}: {len(gs)}")
