"""Reference perturbed KKT: one grouped `decompose` per axis point.

`reference_perturbed_kkt` is the path that `kkt.perturbed_kkt` took before
it read its axis certificates in dimension <= 3 off the facets of F* + G*:
a fresh `zero_interior` of the canonical F* vertices and G* generators, then
one `decompose` of each of the 2n points +-nu_lb * e_j over the grouped
tables.  Its verdict, radius, exactness flag and targets are the ones the
facet path must print; only the weights may differ.
"""

from __future__ import annotations

from mosipcert import kkt
from mosipcert.cones import zero_interior
from mosipcert.rationals import ONE, ZERO


def reference_perturbed_kkt(p, cp) -> kkt.PerturbedKktReport:
    zi = zero_interior(p.dimension, cp.F_star.vertices, cp.G_star.generators)
    if not zi.inside:
        return kkt.PerturbedKktReport(False, ZERO, zi.exact, (), zi.witness_direction, zi.note)
    axes = []
    for j in range(p.dimension):
        for sign in (ONE, -ONE):
            target = [ZERO] * p.dimension
            target[j] = sign * zi.radius_lower_bound
            oterms, cterms = kkt._decompose(p, cp, tuple(target))
            axes.append(kkt.KktCertificate(kkt.PERTURBED, tuple(target), oterms, cterms))
    return kkt.PerturbedKktReport(True, zi.radius_lower_bound, zi.exact, tuple(axes), note=zi.note)
