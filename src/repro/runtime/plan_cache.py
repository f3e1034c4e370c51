"""Content-addressed caching of synthesis results.

``synthesize()`` chains five search stages, several of them
worst-case-exponential; in a serving scenario the same specification is
compiled over and over.  A :class:`PlanCache` memoizes the complete
:class:`~repro.pipeline.SynthesisResult` under a content-addressed key:

    sha256( package version
          + configuration fingerprint
          + canonical program text )

* the **canonical program text** comes from
  :func:`repro.expr.printer.program_to_source`, so two sources that
  parse to the same program (whitespace, comments, formatting) share a
  cache entry;
* the **configuration fingerprint** enumerates every
  :class:`~repro.pipeline.SynthesisConfig` field generically (mappings
  are order-normalized), so *any* config change -- machine model, grid,
  communication weights, stage toggles, budgets -- yields a different
  key, and fields added in future versions are picked up automatically;
* the **package version** invalidates everything on upgrade: a newer
  compiler may plan differently.

Storage is a :class:`repro.store.TwoTierStore`: a bounded in-memory LRU
of decoded results over an optional sharded on-disk tier of pickles
(atomic, lock-protected writes -- concurrent server workers and CLI runs
share one directory safely; corrupt, unreadable or out-of-date files
are misses, removed and counted ``stale``).  A memory hit is a lookup,
not an unpickle: it returns the stored result itself.  That is safe
because a result is a value -- running it assigns none of its
attributes (:mod:`repro.pipeline`) -- and
:func:`~repro.pipeline.synthesize` hands each caller a shallow copy
whose ``reports`` list is its own.  Whoever reads :meth:`PlanCache.get`
directly must treat the value as read-only.

The serving layer (:mod:`repro.server`) additionally deduplicates
concurrent identical requests against the same key; every deduplicated
waiter is recorded here through :meth:`PlanCache.note_coalesced` so one
:meth:`PlanCache.stats` snapshot tells the whole hit/miss/coalesce
story.
"""

from __future__ import annotations

import pickle
from dataclasses import fields
from typing import Dict, Mapping, Optional

from repro.store import TwoTierStore, content_key

__all__ = ["PlanCache", "plan_key", "config_fingerprint"]


def _result_current(result) -> bool:
    """Whether a decoded result matches this release's result schema.

    Results pickled by older releases lack ``result_version`` in their
    instance ``__dict__`` entirely (unpickling bypasses ``__init__``,
    and the dataclass default is deliberately not trusted -- it lives on
    the *class*, which is always current), so they read as stale misses
    here instead of resurfacing as objects whose newer attributes raise
    ``AttributeError`` deep inside execution.  The version prefix of
    :func:`plan_key` already keeps releases apart; this hook is the
    defense for entries written under a matching key by any other route
    (shared cache directories, hand-rolled keys, downgraded packages).
    Non-result values (the store is content-agnostic) pass through.
    """
    from repro.pipeline import RESULT_VERSION, SynthesisResult

    if not isinstance(result, SynthesisResult):
        return True
    return result.__dict__.get("result_version") == RESULT_VERSION


def config_fingerprint(config) -> str:
    """A deterministic text rendering of every config field.

    Field values render through ``repr`` (the models are frozen
    dataclasses whose reprs enumerate their fields); mappings such as
    ``bindings`` are sorted first so iteration order cannot split the
    cache.
    """
    parts = []
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, Mapping):
            value = ("mapping", tuple(sorted(value.items())))
        parts.append(f"{f.name}={value!r}")
    return ";".join(parts)


def plan_key(program, config) -> str:
    """The content-addressed cache key of (program, config, version)."""
    from repro.expr.printer import program_to_source

    return content_key(
        config_fingerprint(config), program_to_source(program)
    )


class PlanCache(TwoTierStore):
    """In-memory LRU + optional on-disk store of synthesis results.

    ``maxsize`` bounds the in-memory entry count (least recently used
    entries are evicted; disk entries are never evicted by the LRU).
    ``directory`` enables the persistent tier: entries found on disk are
    promoted back into memory on hit.  :meth:`get` returns
    ``(result, tier)`` with the stored, shared result (unpickled once,
    when it is read from disk); entries whose result schema predates
    this release are dropped and counted ``stale`` (see
    :func:`_result_current`), on either tier.
    """

    suffix = ".plan.pkl"

    def __init__(
        self, maxsize: int = 128, directory: Optional[str] = None
    ) -> None:
        super().__init__(maxsize, directory)
        self.coalesced = 0

    def encode(self, result) -> bytes:
        return pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)

    def decode(self, blob: bytes):
        return pickle.loads(blob)

    current = staticmethod(_result_current)

    def note_coalesced(self, n: int = 1) -> None:
        """Record ``n`` requests that shared an in-flight synthesis for
        one of this cache's keys instead of running their own (the
        serving layer's request coalescing)."""
        self.coalesced += n

    def stats(self) -> Dict[str, int]:
        """Counter snapshot: hits per tier, misses, stale, evictions,
        and coalesced requests (see :meth:`note_coalesced`)."""
        out = super().stats()
        out["coalesced"] = self.coalesced
        return out

    def describe(self) -> str:
        text = super().describe()
        if self.coalesced:
            text += f", {self.coalesced} coalesced"
        return text
