#!/usr/bin/env python3
"""Walk a Dirac combination through the O_Kp^x-measure machinery.

Builds a three-term Dirac measure over the ramified quadratic ring at p = 3,
prints its coset masses at levels 1 and 2, checks the partition law, compares
moments against Riemann sums, and evaluates a twisted integral against the
order-6 character of (O_K/3)^x along with its Gauss-sum factorization.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from ltk.rings import make_ring
from ltk.series import TruncSeries
from ltk.measures import (
    FiniteCharacter, Measure, _mult_order_elem, coset_mass, dirac,
    gauss_sum, moment, partition_check, riemann_moment, sigma_map,
    twist_factorization_report, unit_residues,
)


def main():
    z = make_ring(3, 12, "zp")
    okp = make_ring(3, 12, "ramified_quad", quad=(0, 3))
    c3 = make_ring(3, 12, "cyclotomic", level=1)

    # sigma(a) must be a unit for the mass to live on the unit cosets
    points = [okp.elem((4, 3)), okp.elem((2, 2)), okp.elem((1, 6))]
    weights = [1, 2, 5]
    amice = TruncSeries.zero(c3, 64)
    for a, w in zip(points, weights):
        amice = amice + dirac(a, "okp", c3, 64, okp=okp).amice.scale(w)
    mu = Measure(amice, "okp", okp)
    print("support sigma-values:", [sigma_map(a) % 9 for a in points],
          "weights:", weights)

    for n in (1, 2):
        masses = {}
        for d in unit_residues(okp, n):
            v, g = coset_mass(mu, d, n)
            if not v.is_zero():
                masses[d] = v.coords[0] % 3 ** g
        print(f"level {n}: nonzero masses {masses}")
    ok, guar = partition_check(mu, 1)
    print("partition law 1 -> 2:", ok, f"(mod 3^{guar})")

    for k in range(4):
        mm = moment(mu, k)
        rm, g = riemann_moment(mu, k, 2)
        print(f"moment k={k}: {mm.coords[0] % 3**6}  "
              f"riemann(2): {rm.coords[0] % 3**6}  agree mod 3^2: "
              f"{(mm - rm).coords[0] % 9 == 0}")

    gen = next(okp.elem(d) for d in unit_residues(okp, 1)
               if _mult_order_elem(okp.elem(d), 3) == 6)
    chi = FiniteCharacter.from_generator(okp, 1, c3, gen, -(c3.zeta()))
    tau = gauss_sum(chi)
    print("tau(chi):", tau.num.coords, f"/ 3^{tau.den_exp}, const {tau.const}")
    direct, _, _, match = twist_factorization_report(mu, chi, 1)
    print("twisted integral mu(chi k):", direct.coords,
          " gauss-sum factorization reproduces it:", match)


if __name__ == "__main__":
    main()
