"""Topologies, Laplacians, and what their spectra say about synchronizability.

Walks through three topologies: an undirected path (real spectrum, the
algebraic connectivity lambda2 sets the weakest transverse mode), a
directed ring with a chord (complex eigenvalue pair; the largest
eigenvalue argument theta_max constrains how far coupling phases may
rotate), and a disconnected graph (two zero eigenvalues, no
synchronization possible).

Run:  python demos/01_laplacian_spectra.py
"""

import numpy as np

from netsync import Topology, build_laplacian, is_connected, spectrum
from netsync.scenarios import load_fixture


def describe(name, topology):
    lap = build_laplacian(topology)
    spec = spectrum(lap)
    connected = is_connected(spec)
    print(f"\n=== {name} ===")
    print("Laplacian:")
    print(np.array_str(lap.matrix, precision=3, suppress_small=True))
    with np.printoptions(precision=4, suppress=True):
        print("eigenvalues:", spec.eigenvalues)
    print(f"lambda2 = {spec.lambda2:.4f}")
    print(f"theta_max = {np.degrees(spec.theta_max):.4f} deg")
    print(f"connected: {connected}")
    return spec


# 1. undirected path on five nodes -------------------------------------------
path_weights = np.zeros((5, 5))
for i in range(4):
    path_weights[i, i + 1] = path_weights[i + 1, i] = 1.0
spec = describe("five-node path (undirected)", Topology(5, False, path_weights))
print("closed form 2 - 2cos(k*pi/5):",
      np.round([2 - 2 * np.cos(k * np.pi / 5) for k in range(5)], 4))

# 2. directed ring with a chord ----------------------------------------------
fx = load_fixture("example2")
L = np.array(fx["laplacian"], dtype=float)
adjacency = -(L - np.diag(np.diag(L)))
spec = describe("five-node directed ring + chord", Topology(5, True, adjacency))
print("the complex pair rotates transverse modes by up to theta_max;")
print("designs must keep coupling-phase margins beyond 90 deg of it.")

# 3. disconnected graph -------------------------------------------------------
disc = np.zeros((4, 4))
disc[0, 1] = disc[1, 0] = 1.0
disc[2, 3] = disc[3, 2] = 1.0
describe("two disconnected pairs", Topology(4, False, disc))
print("two zero eigenvalues: the network cannot synchronize globally.")
