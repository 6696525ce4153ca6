"""Contextual truth: the subobject classifier over the poset of duals.

Order the duals inversely to their principal events, foliate the poset
with a constant copy of the event algebra, and select each coevent's
support.  The selection grows along the order, so it is a subobject,
and its characteristic map sends (context, event) to the sieve of
higher contexts at which the event is supported: one tau row of the
space of duals.
"""

from coevents import (
    build_mce_instance,
    build_scheme_instance,
    chi_vsupp,
    classifier,
    dual_of_coevent,
    dual_of_event,
    sieves_at,
)
from coevents.catalog import fair_coin, three_slit
from coevents.topos import classifier_functoriality_failures

fc = fair_coin()
alg = fc.algebra
instance = build_mce_instance(alg)
space = instance.space

print("base poset (dual order):", [str(p) for p in space.members])
omega_star = dual_of_event(alg.full)
h_star = dual_of_event(alg.event_from_labels(["h"]))
# p* <= q* iff q lies inside p
print(f"  {omega_star} <= {h_star}:", dual_of_coevent(h_star).issubset(dual_of_coevent(omega_star)))
print()

print("support selection at each context:")
for phi in space.members:
    events = [alg.event(mask) for mask in sorted(phi.support)]
    print(f"  {str(phi):8s} -> {[str(e) for e in events]}")
print()

print("sieves (local truth values) at each context:")
for phi in space.members:
    members = [[str(e) for e in s.members] for s in sieves_at(space, phi)]
    print(f"  at {phi}: {members}")
omega = classifier(space)
print("classifier functorial:", classifier_functoriality_failures(omega) == ())
print()

print("characteristic map of the support selection:")
for phi in space.members:
    for mask in range(alg.size):
        ev = alg.event(mask)
        sieve = chi_vsupp(instance, phi, ev)
        print(f"  chi[{str(phi):8s}]({str(ev):6s}) = {sieve}")
print()

# Over the scheme of the three-slit theory the base poset is a single
# point: the classifier collapses to the two classical truth values.
scheme_instance = build_scheme_instance(three_slit())
scheme = scheme_instance.space
print("three-slit scheme poset:", [str(p) for p in scheme.members])
print("antichain:", scheme_instance.is_antichain)
point = scheme.members[0]
print("sieves there:", [[str(e) for e in s.members] for s in sieves_at(scheme, point)])
