"""Trace the two-pin argument step by step, then probe its hypotheses.

The tracer reruns the deformation argument numerically: it computes the
shrunken band width, checks the level separation, verifies that the
deformation fixes both pins bit-exactly, searches for a path in the
stated near-optimal band, deforms it, and records the claimed bound
against what the flow actually produced.  The compactness probe and the
ring-geometry check examine the standing hypotheses on each landscape.
"""
import numpy as np

from passlab import (MountainPassInstance, catalog_field, check_mpt_geometry,
                     default_box, ps_probe, trace_proof_argument)

field = catalog_field("well_to_saddle")
box = default_box("well_to_saddle")
inst = MountainPassInstance(field, box, np.array([0.0, 0.0]),
                            np.array([1.0, 0.0]))

print("Proof trace for (c1, c2, eps) = (0, 1, 0.3):")
trace = trace_proof_argument(inst, 0.0, 1.0, 0.3)
print(f"  case {trace.case}, eps1 = {trace.eps1}")
for s in trace.steps:
    print(f"  {s['name']:<22} {s['verdict']:<8} claimed: {s['claimed']}")
    print(f"  {'':<22} {'':<8} observed: {s['observed']}")
print()

print("Compactness probes (cluster vs vacuous vs escape):")
for name, level, hw in (("well_to_saddle", 1.0, 0.05),
                        ("paraboloid", 1.0, 0.1),
                        ("exp_decay", 0.0, 0.05)):
    f = catalog_field(name)
    rep = ps_probe(f, default_box(name), level, hw, samples=48, seed=0)
    extra = ""
    if rep.accumulation_points:
        extra = f", clusters {np.round(rep.accumulation_points, 3).tolist()}"
    if rep.sample_sequence:
        seq = np.asarray(rep.sample_sequence)
        extra = (f", escape from {np.round(seq[0], 2).tolist()} "
                 f"to {np.round(seq[-1], 2).tolist()}")
    print(f"  {name:<15} level {level}: {rep.verdict:<14} "
          f"band_min_grad {rep.band_min_grad:.4f}{extra}")
print()

print("Ring geometry b > phi(0) >= phi(e):")
for name, e, r in (("well_to_saddle", (2.0, 0.0), 1.0),
                   ("paraboloid", (1.0, 0.0), 0.5),
                   ("affine", (1.0, 0.0), 0.5)):
    f = catalog_field(name)
    gi = MountainPassInstance(f, default_box(name), np.array([0.0, 0.0]),
                              np.asarray(e))
    res = check_mpt_geometry(gi, r, sphere_samples=2048, seed=0)
    print(f"  {name:<15} b = {res.b:+.4f}, phi(0) = {res.phi_at_zero:+.2f}, "
          f"phi(e) = {res.phi_at_e:+.2f}  ->  "
          f"{'holds' if res.verdict else 'fails'}")
