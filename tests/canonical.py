"""The canonical order of a system as a value, for tests.

`formats.serialize_system` writes a system in this order, and reading the
written document back gives exactly `canonicalize_system` of it; the round
trips in the tests compare against that value.
"""

from dataclasses import replace

from interax import Interaction, InteractionModel, InteractionSystem
from interax.model import refuse_untyped


def canonicalize(im: InteractionModel) -> InteractionModel:
    """Sort components, port families, interactions (by name, then ports)
    and each interaction's ports.  Nothing is merged or dropped, so an
    invalid model keeps every finding; names that cannot be sorted together
    raise `ModelError` through `refuse_untyped`."""
    try:
        components = tuple(sorted(im.components))
        # a family for a component the model lacks is kept too
        families = sorted({*components, *im.ports})
        ports = {c: tuple(sorted(im.ports.get(c, ()))) for c in families}
        interactions = sorted(
            (Interaction(a.name, tuple(sorted(a.ports))) for a in im.interactions),
            key=lambda a: (a.name, a.ports),
        )
    except TypeError:
        refuse_untyped(im, "canonicalize")
        raise
    return InteractionModel(components, ports, tuple(interactions))


def canonicalize_system(sys: InteractionSystem) -> InteractionSystem:
    """Canonical model plus behaviors with sorted state lists, sorted by
    component.  Every behavior given is kept, also one the model lacks.
    Names that cannot be sorted together raise `ModelError` through
    `refuse_untyped`."""
    try:
        behaviors = {
            c: replace(b, states=tuple(sorted(b.states)))
            for c, b in sorted(sys.behaviors.items())
        }
    except TypeError:
        refuse_untyped(sys, "canonicalize")
        raise
    return InteractionSystem(canonicalize(sys.model), behaviors)
