"""Byzantine fault injection for every protocol: a behaviour is a policy
over what a replica sends (see :mod:`repro.byzantine.behaviors`)."""

from repro.byzantine.behaviors import (
    BEHAVIORS,
    behavior_by_name,
    install_byzantine,
    require_expressible,
    silence_node,
)

__all__ = [
    "BEHAVIORS",
    "behavior_by_name",
    "require_expressible",
    "install_byzantine",
    "silence_node",
]
