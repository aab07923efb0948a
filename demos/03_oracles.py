"""The exact grid oracles, validated against brute force.

Bottleneck (minimize the path maximum) and widest (maximize the path
minimum) values are computed by threshold sweeps over ranked nodes; on tiny
grids the same questions are answered by exhaustive enumeration over all
simple paths, and the two must agree exactly.
"""
import numpy as np

from passlab import (GridGraph, bottleneck_value, catalog_field,
                     critical_scan, default_box, enumerate_small,
                     widest_value)
from passlab.fields import DomainBox

values = np.array([[0.0, 5.0, 0.0],
                   [1.0, 2.0, 9.0],
                   [4.0, 3.0, 4.0]])
g = GridGraph(values, connectivity=4)
print("3 x 3 example grid (4-connected):")
print(values)
p, q = g.flat((0, 0)), g.flat((0, 2))
sweep = bottleneck_value(g, p, q)
brute = enumerate_small(g, p, q, "bottleneck")
print(f"  bottleneck (0,0)->(0,2): sweep {sweep.value}, "
      f"brute force {brute.value}, witness nodes {sweep.witness}")
p, q = g.flat((2, 0)), g.flat((2, 2))
print(f"  widest     (2,0)->(2,2): sweep {widest_value(g, p, q).value}, "
      f"brute force {enumerate_small(g, p, q, 'widest').value}")
print()

print("Randomized cross-validation on 4 x 4 grids:")
rng = np.random.default_rng(0)
mismatches = 0
for _ in range(100):
    gg = GridGraph(rng.uniform(-1, 1, size=(4, 4)))
    a, b = (int(i) for i in rng.choice(16, size=2, replace=False))
    mismatches += bottleneck_value(gg, a, b).value \
        != enumerate_small(gg, a, b, "bottleneck").value
    mismatches += widest_value(gg, a, b).value \
        != enumerate_small(gg, a, b, "widest").value
print(f"  200 comparisons, {mismatches} mismatches")
print()

print("Oracle convergence on the double-well landscape (exact saddle = 1):")
field = catalog_field("well_to_saddle")
box = default_box("well_to_saddle")
for res in (65, 129, 257, 513, 1025):
    gg = GridGraph.from_field(field, box, res)
    v = bottleneck_value(gg, gg.nearest_node([0.0, 0.0]),
                         gg.nearest_node([1.0, 0.0])).value
    print(f"  resolution {res:4d}: bottleneck = {v:.6f}  (error {abs(v-1):.2e})")
print()

print("Critical-point scan (small-gradient clusters):")
scan_box = DomainBox(np.array([-1.0, -1.0]), np.array([3.0, 1.0]))
for cluster in critical_scan(field, scan_box, 401, 0.05):
    print(f"  center {np.round(cluster['center'], 3).tolist()}  "
          f"|grad| {cluster['min_grad']:.2e}  phi {cluster['phi']:.4f}")
