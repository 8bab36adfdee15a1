"""Drive population between dressed eigenstates with a bang-bang pulse.

The full pipeline: diagonalize with continuation labelling, build the
coupling graph, certify a non-resonant chain, and design a resonant
bang-bang pulse along the witness path. Each edge's segment count is searched
on the drive's one-period (Floquet) operator, whose iterates also give the
populations, so nothing is stepped; the search runs on the smallest working
truncation that a transfer on twice it confirms. Writes populations.csv (time
series of tracked level populations).
"""

import os

from spinboson import BasisIndex, ModelParams, transfer_experiment

params = ModelParams(omega=1.0, Omega=1.05, g=0.2, n_fock=64)
delta = 0.02

for source, target in [
    (BasisIndex(0, -1), BasisIndex(1, -1)),  # one rung up the ladder
    (BasisIndex(0, -1), BasisIndex(0, 1)),  # spin flip via the dressed edge
]:
    report = transfer_experiment(params, source, target, delta)
    print(
        f"({source.n},{source.s:+d}) -> ({target.n},{target.s:+d}): "
        f"fidelity {report.fidelity:.4f}, time {report.total_time:.1f}, "
        f"{sum(e['n_segments'] for e in report.edges)} segments, "
        f"searched on n_fock {report.working_n_fock} (drift {report.drift:.1e})"
    )

out = os.path.join(os.path.dirname(__file__), "populations.csv")
report.populations_to_csv(out)
print(f"wrote {out} (tracked levels: {report.tracked_levels})")
