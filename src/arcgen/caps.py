"""Resource limits shared across the library.

Every potentially expensive computation is guarded by a cap taken from a
:class:`Caps` value. Caps are configuration, never hard-coded constants,
and a violation always raises :class:`CapExceeded` naming the cap that
fired, so callers (and the CLI exit-code logic) can tell resource
exhaustion apart from mathematical failure.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Caps", "CapExceeded", "DEFAULT_CAPS"]


class CapExceeded(RuntimeError):
    """A configured resource cap fired.

    Attributes:
        cap_name: which cap fired ("order", "exponent", "ambient", "vertex",
            "time").
        limit: the configured limit.
        detail: what was being computed when it fired.
    """

    def __init__(self, cap_name: str, limit, detail: str = ""):
        self.cap_name = cap_name
        self.limit = limit
        self.detail = detail
        message = f"{cap_name} cap ({limit}) exceeded"
        if detail:
            message += f": {detail}"
        super().__init__(message)


@dataclass(frozen=True)
class Caps:
    """Resource limits.

    order_cap: largest permutation-group order a stabilizer chain may reach.
    exponent_cap: largest group order for which full element enumeration
        (exponent computation) is attempted.
    ambient_cap: largest group-algebra dimension q^2; it bounds the module
        basis (q(q+1)/2 rows of length q^2) and the module permutations.
    vertex_cap: largest vertex count for constructed or parsed graphs.
    time_cap_s: optional wall-clock budget, per stabilizer-chain build.
    """

    order_cap: int = 2**50
    exponent_cap: int = 2**20
    ambient_cap: int = 1024
    vertex_cap: int = 2**20
    time_cap_s: float | None = None


DEFAULT_CAPS = Caps()
