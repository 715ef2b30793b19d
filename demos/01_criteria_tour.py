"""
A tour of the univalence criteria
=================================

Runs every criterion checker against a few gallery maps and prints the
verdicts side by side.  The interesting row is the shear map f_k with
k = 0.5: the rotation test fails near the boundary while a directional
test with a hand-picked comparison function still certifies it.
"""

import numpy as np

from harmonicmaps import (
    GridSpec,
    check_corollary1,
    check_philike,
    check_theorem1,
    check_theoremA,
    gallery,
    linear_wirtinger,
)
from harmonicmaps.herglotz import inverse_wirtinger
from harmonicmaps.mappings import AnalyticFunction

grid = GridSpec(n_radial=24, n_angular=64, r_max=0.9)

# The inverse map is the universal comparison function: composing a
# univalent f with its own inverse gives slack 1 everywhere.
print("inverse-composition slack (margin ~ 1 certifies univalence)")
for name, params in (("identity", None), ("h0", None),
                     ("f_k", {"k": 0.5}), ("koebe", None)):
    f = gallery.get(name, params)
    rep = check_corollary1(f, inverse_wirtinger(f), grid)
    print(f"  {f.label:<14} {rep.verdict:<18} margin {rep.margin:+.4f}")

# The rotation test needs Re(e^{-i gamma} h') to dominate |g'| for a
# single gamma.  For the shear map no rotation works out to r = 0.99.
print()
print("rotation test on the shear map, grids pushed toward the boundary")
f_k = gallery.get("f_k", {"k": 0.5})
for r_max in (0.5, 0.9, 0.99):
    rep = check_theoremA(f_k, GridSpec(n_radial=40, n_angular=96, r_max=r_max))
    print(f"  r_max {r_max:<5} {rep.verdict:<18} margin {rep.margin:+.4f} "
          f"gamma {rep.gamma:+.3f}")

# A directional comparison tailored to the shear structure fixes it:
# phi(w, wbar) = w/k - wbar cancels the co-analytic part entirely.
rep = check_corollary1(f_k, linear_wirtinger(2.0, -1.0),
                       GridSpec(n_radial=40, n_angular=96, r_max=0.99))
print(f"  tailored phi   {rep.verdict:<18} margin {rep.margin:+.4f}")

# The directional family subsumes the single-direction test, so the
# same phi passes the epsilon sweep as well.
rep = check_theorem1(f_k, linear_wirtinger(2.0, -1.0), grid, n_epsilon=64)
print(f"  epsilon sweep  {rep.verdict:<18} margin {rep.margin:+.4f} "
      f"(worst direction {rep.meta['worst_epsilon']})")

# Analytic maps can use the ratio test instead: Re(z f'/f) > 0 on the
# Koebe function, even though its image is far from convex.
print()
print("ratio test on analytic maps")
koebe = gallery.get("koebe")
identity = AnalyticFunction(eval=lambda w: w, deriv=np.ones_like, description="w")
rep = check_philike(koebe.h, identity, grid)
print(f"  koebe          {rep.verdict:<18} margin {rep.margin:+.4f}")
