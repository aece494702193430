"""Three chaotic Rossler oscillators: when constant coupling fails,
state-dependent coupling can still synchronize the network.

The cyclic connection matrix has transverse factors -eps +- i*delta.
With the classic output-selector coupling (second component only) the
array synchronizes at eps = 3 but cannot at eps = 0.1.  Keeping the weak
topology fixed, a coupling matrix that depends on the transmitting
node's state cancels the state-dependent part of the Jacobian in the
M(s) term of every transverse mode (not in the (DM(s))s term of the full
linearization) and restores synchronization.  Each run is the bundled
``rossler`` scenario: seed 42, tolerance 5% of the RMS amplitude.

Run:  python demos/04_chaotic_probe.py [t_end]
(default horizon 100 s at dt = 1e-3; ~20 s of compute for all three runs)
"""

import sys

from netsync.scenarios import load_fixture, run_rossler

t_end = float(sys.argv[1]) if len(sys.argv) > 1 else 100.0
dt = 1e-3
fx = load_fixture("rossler")
print(f"horizon {t_end} s, dt = {dt}\n")
for label, baseline, eps in (
        ("selector coupling, strong", True, fx["eps_strong"]),
        ("selector coupling, weak", True, fx["eps_weak"]),
        ("state-dependent design, weak", False, fx["eps_weak"])):
    result = run_rossler(baseline=baseline, eps=eps, t_end=t_end,
                         dt=dt)
    (report,) = result.sync_reports.values()
    print(f"{label:34s} eps={eps:<4} -> "
          + (f"synchronized at t = {report.sync_time:6.2f} s"
             if report.converged else "no synchronization")
          + f"   (final error {report.final_error:.2e},"
          f" tol {result.summary['tolerance']:.3f})")

print("\nThe design keeps the constant part at a stabilizing level"
      f" ({fx['psi1_scale']} * identity against transverse damping"
      f" {fx['eps_weak']}) and adds -(1/kappa) * (state-dependent Jacobian"
      " part), kappa = -eps, so the chaotic terms cancel in the M(s) term"
      " of every transverse mode.")
