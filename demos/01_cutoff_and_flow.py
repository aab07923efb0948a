"""Walk through the level-band cutoff and the deformation flow it drives.

The configuration is the simplest possible: phi(x, y) = x on [-2, 2]^2 with
center level 0 and eps = 0.5.  The band structure is then a stack of
vertical slabs, the default first-order distances are the closed-form slab
distances, and every claim can be checked by eye.
"""
import numpy as np

from passlab import (BandPartition, DeformationField, DomainBox,
                     build_backend, catalog_field, classify_region, eta,
                     integrate_flow, psi, verify_deformation)

field = catalog_field("affine")
box = DomainBox(np.array([-2.0, -2.0]), np.array([2.0, 2.0]))
part = BandPartition(field, box, 0.0, 0.5)
backend = build_backend(part)
df = DeformationField(backend)   # RK4 steps of horizon/1000, every one recorded

print("Band structure for phi = x, c = 0, eps = 0.5")
print(f"  push-up band   B = x in [{part.b_range[0]}, {part.b_range[1]}]")
print(f"  pull-down band C = x in [{part.c_range[0]}, {part.c_range[1]}]")
print(f"  active band    A = x in [{part.a_range[0]}, {part.a_range[1]}]")
print()

print("The cutoff interpolates between exact plateaus:")
for x in (-0.6, -0.4, -0.2, 0.0, 0.1, 0.2, 0.4):
    u = np.array([x, 0.0])
    tag = classify_region(part, u).name
    print(f"  psi({x:+.1f}, 0) = {float(psi(part, backend, u)):+.6f}   [{tag}]")
print()

print("Flow from inside the push-up band: phi rises at unit rate, then the")
print("trajectory decelerates toward the midplane where the cutoff vanishes.")
traj = integrate_flow(df, np.array([-0.4, 0.0]))
for k in (0, 100, 300, 600, 1000):
    print(f"  t={traj.times[k]:.2f}  x={traj.points[k][0]:+.4f}  "
          f"phi={traj.phi_values[k]:+.4f}  psi={traj.psi_values[k]:+.4f}")
print()

u = np.array([1.5, 0.7])
print(f"Outside the band the map is the identity, bit for bit: "
      f"eta({u.tolist()}) == u is {np.array_equal(eta(df, u), u)}")
print()

print("Property audit over 200 random starts:")
rep = verify_deformation(df, samples=200, seed=0)
print(f"  min |grad phi| on the band      {rep.hypothesis_min_grad}")
print(f"  fixed-point violations          {rep.a_prime_violations}")
print(f"  trajectories confined to B / C  {rep.b_prime['confined_in_B']} / "
      f"{rep.c_prime['confined_in_C']}")
print(f"  derivative identity residual    {rep.eq31_max_residual:.2e}")
print(f"  speed bound violations          {rep.speed_violations} "
      f"(max speed {rep.speed_max_norm:.3f}, bound 1.0)")
