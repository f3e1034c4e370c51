"""The persistent tuning database.

Measured tuning decisions are only meaningful on the machine that
produced them, for the exact program and configuration that was tuned.
A :class:`TuningDB` therefore stores each record under a
content-addressed key (the same sha256 fingerprint discipline as
:mod:`repro.runtime.plan_cache`):

    sha256( package version
          + configuration fingerprint
          + canonical program text
          + machine signature )

The **machine signature** (:func:`machine_signature`) captures what the
measurements depended on: the CPU count, the configured cache/memory
capacities from :class:`~repro.engine.machine.MachineModel`, the
numpy version (its kernels do the measured work), and the native
kernel compiler fingerprint (the ``kernel`` dimension's native
candidate depends on what compiled it).  A record is *never*
applied under a different signature -- the signature is part of the key
*and* re-validated against the stored copy on every hit, so even a file
copied between machines reads as a miss.

Storage is a :class:`repro.store.TwoTierStore` shared with the plan
cache: a bounded in-memory LRU over an optional sharded on-disk tier
with atomic, lock-protected publication (concurrent server workers and
CLI tuning runs share a directory without torn writes).  Disk records
are canonical JSON (sorted keys, fixed separators, trailing newline),
so two tuning runs that reach the same decisions produce
**byte-identical** files -- the property the CI determinism check
asserts.  Records deliberately contain decisions and trial counts but
no raw timings: timings are reported in the stage report, where
run-to-run noise belongs.
"""

from __future__ import annotations

import json
import os
from typing import Dict, Optional

from repro.store import TwoTierStore, content_key

__all__ = ["TuningDB", "machine_signature", "tuning_key"]


def machine_signature(machine=None) -> Dict[str, object]:
    """What the measurements depend on: cpu count, the configured
    memory-hierarchy capacities, the numpy version, and the native
    kernel compiler.

    ``machine`` is the :class:`~repro.engine.machine.MachineModel` the
    synthesis ran with (its capacities steer the analytical choices the
    measurements compete against); ``None`` uses the default model.
    The compiler fingerprint
    (:func:`repro.kernels.native.compiler_fingerprint`) keys the
    ``kernel`` dimension's native candidate: a decision measured with
    one compiler (or with none) is never replayed under another.
    """
    import numpy as np

    from repro.engine.machine import MachineModel
    from repro.kernels import compiler_fingerprint

    machine = machine or MachineModel()
    return {
        "cpu_count": os.cpu_count() or 1,
        "cache_elements": machine.cache.capacity,
        "memory_elements": machine.memory.capacity,
        "numpy": np.__version__,
        "kernel_compiler": compiler_fingerprint(),
    }


def _canonical(record: Dict[str, object]) -> str:
    """Canonical JSON text: sorted keys, fixed separators, newline."""
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def tuning_key(program, config, signature: Dict[str, object]) -> str:
    """Content-addressed key of (program, config, machine, version)."""
    from repro.expr.printer import program_to_source
    from repro.runtime.plan_cache import config_fingerprint

    return content_key(
        config_fingerprint(config),
        program_to_source(program),
        json.dumps(signature, sort_keys=True),
    )


class TuningDB(TwoTierStore):
    """In-memory LRU + optional on-disk store of tuning records.

    ``maxsize`` bounds the in-memory entry count; ``directory`` enables
    the persistent tier (one ``<key>.tune.json`` file per record, in a
    256-way sharded layout, published atomically under a lock file).
    Hits promote disk records back into memory.  ``get(key,
    signature=...)`` serves only a record carrying the identical
    signature (defense against files copied across machines) and this
    package version; any other is a miss, removed and counted ``stale``.
    """

    suffix = ".tune.json"

    def encode(self, record: Dict[str, object]) -> bytes:
        return _canonical(record).encode("utf-8")

    def decode(self, blob: bytes) -> Dict[str, object]:
        return json.loads(blob.decode("utf-8"))

    def current(
        self,
        record: Dict[str, object],
        signature: Optional[Dict[str, object]] = None,
    ) -> bool:
        from repro import __version__

        if record.get("version") != __version__:
            return False
        return signature is None or record.get("signature") == signature
