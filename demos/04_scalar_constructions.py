"""Scalar fundamental-domain constructions behind the multifunction roots.

Every pipeline bottoms out in classical constructions for single-valued
monotone maps: pick a fundamental domain of the orbit structure, seed it
with a linear interpolation, extend along orbits.  Closed forms appear
whenever the required slope root stays rational; everything else stays
exact-rational pointwise with lazy evaluation.
"""

from fractions import Fraction as Q

import mfroots as mf
from mfroots.maps import AffineMap, compose_maps
from mfroots.scalar_roots import (
    ScalarRootSeed,
    conjugacy,
    decreasing_odd_root,
    decreasing_square_root_pair,
    increasing_nth_root,
)

# closed-form square root of x/4: the slope root is rational
g = AffineMap(Q(1, 4), 0)
phi = increasing_nth_root(g, 0, Q(1, 2), 2)
print("root of x/4      :", phi)

# an irrational slope root is built by the orbit engine, exact at every point
phi3 = increasing_nth_root(AffineMap(Q(1, 3), 0), 0, 1, 2)
print("root of x/3      :", phi3)
print("root of x/3 at 1/3:", phi3(Q(1, 3)), " phi3² at 1/3 == 1/9:",
      phi3(phi3(Q(1, 3))) == Q(1, 9))

# seeds parametrize genuinely different roots with the same power
seeded = increasing_nth_root(g, 0, Q(1, 2), 2, ScalarRootSeed(divisions=(Q(3, 10),)))
x = Q(3, 10)
print("\nseeded root at 3/10:", seeded(x), "vs closed form", phi(x))
print("both square back to x/4:", seeded(seeded(x)) == x / 4 == phi(phi(x)))

# a reversing conjugacy between the two branches of the square-root target
h = conjugacy(AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2),
              AffineMap(Q(1, 4), Q(5, 8)), Q(1, 2), 1, mf.DEC)
print("\nreversing conjugacy:", h)
lhs = compose_maps(h, AffineMap(Q(1, 4), Q(1, 8)))
rhs = compose_maps(AffineMap(Q(1, 4), Q(5, 8)), h)
print("h∘g1 == g2∘h      :", lhs == rhs)

# the cross pairing realizes the decreasing square root's two pieces
h, partner = decreasing_square_root_pair(
    AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2),
    AffineMap(Q(1, 4), Q(5, 8)), Q(1, 2), 1)
print("\npairing pieces    :", h, "|", partner)
print("partner∘h         :", compose_maps(partner, h))

# self pairing around an interior fixed point
psi, _ = decreasing_square_root_pair(AffineMap(Q(1, 4), Q(1, 8)), 0, Q(1, 2))
print("\nself pairing      :", psi)
print("psi² at 1/5       :", psi(psi(Q(1, 5))), "=", Q(1, 5) / 4 + Q(1, 8))

# odd roots of decreasing maps; the orbit engine takes over when the
# affine candidate would escape the interval
print("\nodd root of -x/8  :", decreasing_odd_root(AffineMap(Q(-1, 8), 0), -1, 1, 3))
tricky = AffineMap(Q(-1, 4), Q(13, 16))
f = decreasing_odd_root(tricky, Q(1, 2), 1, 3)
x = Q(7, 10)
print("orbital cube root :", f, "  f³(7/10) =", f(f(f(x))), "= g(7/10) =", tricky(x))
