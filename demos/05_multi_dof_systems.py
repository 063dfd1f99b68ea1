"""Multi-dof systems through the same stationarity machinery: `assemble`
takes an MdofModel exactly as it takes the oscillator's SdofModel. A shear
building with damping and harmonic forcing, and an elastic bar semidiscretized
into an equivalent chain.

Run:  python3 demos/05_multi_dof_systems.py
"""

import math

import numpy as np
from scipy.linalg import eigh

from convact import (
    Grid,
    HarmonicForcing,
    assemble,
    build_bar_1d,
    build_shear_building,
    mdof_oracle,
    mdof_to_json,
    solve_stationary,
)

print("== 3-story shear building ==")
building = build_shear_building(
    3, story_mass=1.0, story_stiffness=10.0, story_damping=0.4,
    forcing=HarmonicForcing(np.array([1.0, 0.0, 0.0]), omega=2.0),
)
print("equilibrium matrix B:\n", building.B)
print("reduced stiffness B A^-1 B^T:\n", building.reduced_stiffness())

u0 = np.array([0.5, 0.2, -0.1])
v0 = np.zeros(3)
for n in (128, 256, 512):
    grid = Grid(6.0, n)
    report = solve_stationary(assemble(building, grid, u0, v0))
    oracle = mdof_oracle(building, u0, v0, grid)
    err = np.max(np.abs(report.trajectory.u - oracle.u))
    print(f"  n={n:4d}  sup error vs state-space oracle: {err:.3e}")

print("\n== clamped-free bar as a chain ==")
rho, ea, length = 1.3, 4.0, 2.0
exact = 0.5 * math.pi * math.sqrt(ea / rho) / length
for n_elem in (2, 4, 8, 16):
    bar = build_bar_1d(rho, ea, length, n_elem)
    w2 = eigh(bar.reduced_stiffness(), bar.M, eigvals_only=True)
    freq = math.sqrt(w2[0])
    print(f"  {n_elem:2d} elements: fundamental frequency {freq:.5f} "
          f"(closed form {exact:.5f}, off by {100 * abs(freq - exact) / exact:.2f}%)")

print("\n== model documents round-trip through JSON ==")
doc = mdof_to_json(building)
print(doc[:196] + " ...")
