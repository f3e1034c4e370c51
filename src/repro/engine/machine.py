"""Machine model: memory hierarchy capacities and access costs.

The synthesis system's later stages need to know, for each level of the
memory hierarchy, how many array elements fit and what a miss costs
(paper Section 6: "the optimum value of B will clearly depend on the
cost of access at the various levels of the memory hierarchy").

Capacities are in *elements* (8-byte doubles) to keep the arithmetic in
the same units as array sizes throughout the repository.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.robustness.errors import SpecError


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy.

    ``capacity`` is the number of elements that fit; ``miss_cost`` is the
    cost (in arithmetic-operation units) of servicing one miss from the
    level below.
    """

    name: str
    capacity: int
    miss_cost: float

    def __post_init__(self) -> None:
        if self.capacity <= 0:
            raise ValueError(f"{self.name}: capacity must be positive")
        if self.miss_cost < 0:
            raise ValueError(f"{self.name}: miss cost must be >= 0")


@dataclass(frozen=True)
class MachineModel:
    """Cache / physical memory / disk hierarchy plus flop rate.

    The defaults describe a machine of the paper's era scaled to element
    counts: 32K-element L2-ish cache, 16M-element physical memory,
    2G-element disk.  ``flop_cost`` is 1.0 by construction (costs are in
    op units).
    """

    cache: MemoryLevel = MemoryLevel("cache", 32 * 1024, 8.0)
    memory: MemoryLevel = MemoryLevel("memory", 16 * 1024 * 1024, 512.0)
    disk: MemoryLevel = MemoryLevel("disk", 2 * 1024 * 1024 * 1024, 100_000.0)
    flop_cost: float = 1.0

    @classmethod
    def with_capacities(
        cls,
        cache: Optional[int] = None,
        memory: Optional[int] = None,
        disk: Optional[int] = None,
    ) -> "MachineModel":
        """The default machine resized: capacities in elements (``None``
        keeps a level's default) at the default miss costs -- what the
        CLI's ``--cache`` / ``--memory`` / ``--disk`` and the service's
        ``cache_elements`` / ``memory_elements`` mean.  A capacity below
        1 is a :class:`~repro.robustness.errors.SpecError`."""
        levels = []
        for level, capacity in (
            (cls.cache, cache), (cls.memory, memory), (cls.disk, disk)
        ):
            if capacity is not None:
                if capacity < 1:
                    raise SpecError(
                        f"{level.name} capacity must be a positive element "
                        f"count, got {capacity}",
                        stage="spec",
                    )
                level = MemoryLevel(level.name, capacity, level.miss_cost)
            levels.append(level)
        return cls(*levels)

    def level(self, name: str) -> MemoryLevel:
        """Look a level up by name ('cache' | 'memory' | 'disk')."""
        try:
            return {"cache": self.cache, "memory": self.memory, "disk": self.disk}[
                name
            ]
        except KeyError:
            raise ValueError(f"unknown memory level {name!r}") from None

    def fits_in(self, elements: int, level: str) -> bool:
        """Whether ``elements`` fit entirely within the named level."""
        return elements <= self.level(level).capacity


#: A deliberately tiny machine for tests: makes capacity effects visible
#: at toy problem sizes.
TOY_MACHINE = MachineModel(
    cache=MemoryLevel("cache", 64, 8.0),
    memory=MemoryLevel("memory", 4096, 512.0),
    disk=MemoryLevel("disk", 262144, 100_000.0),
)
