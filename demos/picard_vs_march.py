"""Two independent routes to the same field.

The production solver marches the Volterra equation implicitly, column by
column.  The cross-check solver iterates the fixed-point map until the
largest update anywhere on the triangle is below its tolerance.  The two
discretize the same equation, so they must agree to solver tolerance, not
just to scheme accuracy.
"""

import numpy as np

from fracfund import (
    CauchyProblem,
    Coefficient,
    Forcing,
    TriangleGrid,
    bounds,
    solve_F,
    solve_F_picard,
)

A = Coefficient.cosine(np.array([[0.2, 1.0], [-1.0, 0.1]]), 3.0)
problem = CauchyProblem.from_initial_value(
    0.5, 0.0, 1.0, A, Forcing.zero(2), [1.0, 0.0]
)
grid = TriangleGrid(0.0, 1.0, 160)

apb = bounds(problem)
print(f"coefficient sup norm M_A = {apb.M_A:.4f}")
print(f"growth exponent kappa    = {apb.kappa:.4f}")
print(f"a-priori field bound M_F = {apb.M_F:.4f}")
print()

march = solve_F(problem, grid)
picard = solve_F_picard(problem, grid, tol=1e-12)

gap = np.abs(march.values - picard.values).max()
print(f"march wall time   : {march.meta['wall_time']:.3f}s")
print(f"fixed-point sweeps: {picard.meta['iterations']}")
print(f"max |march - fixed point| = {gap:.3e}")
assert gap < 1e-7
print("routes agree.")
