"""Hybrid solver basics on a system you can verify by hand.

A timer flows with unit rate, jumps every time it reaches 1, and resets
to 0.  Its hybrid arc is fully predictable: jumps at t = 1, 2, 3 and a
hybrid time domain with four intervals.  This script builds the system
from raw flow/jump data, solves it, and inspects the arc.
"""

import numpy as np

from hybridfb import HybridSystemDef, SolverConfig, solve, validate_domain

# Flow set: tau <= 1 (indicator <= 0); jump set: tau >= 1 (indicator >= 0).
timer = HybridSystemDef(
    flow_map=lambda y: np.ones(1),
    flow_indicator=lambda y: y[0] - 1.0,
    jump_indicator=lambda y: y[0] - 1.0,
    jump_map=lambda y: np.zeros(1),
)

arc = solve(timer, np.array([0.0]), SolverConfig(t_max=3.5))

print("hybrid time domain (t_start, t_end, j):")
for interval in arc.domain:
    print("   ", interval)

print("\njump records:")
for rec in arc.jump_records:
    print(f"    t = {rec.t:.12f}  j = {rec.j}  "
          f"tau: {rec.before[0]:.12f} -> {rec.after[0]:.1f}")

print("\ndomain validator:", validate_domain(arc) or "clean")
print("total flow time:", arc.total_flow_time())

# The event locator pins each boundary crossing to the event tolerance:
worst = max(abs(rec.t - (k + 1)) for k, rec in enumerate(arc.jump_records))
print(f"worst jump-time error vs the exact schedule: {worst:.2e}")
