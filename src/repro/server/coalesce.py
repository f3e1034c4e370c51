"""Request coalescing: one synthesis per in-flight plan-cache key.

A serving deployment sees bursts of identical requests (the same
specification submitted by many clients at once).  The plan cache
deduplicates *completed* syntheses; this module deduplicates
*in-flight* ones: the first request for a key (the **leader**) runs the
synthesis in an executor thread, every concurrent duplicate (a
**follower**) awaits the leader's :class:`asyncio.Future` and shares
the finished result.  A burst of N identical cold requests therefore
performs exactly one synthesis -- the property the server test suite
asserts through the plan cache's miss counter.

Failure semantics: the leader's exception propagates to every follower
(they would have failed identically), and the key is always cleared on
completion so a later retry starts fresh.

The shared value is the leader's very object, and it may run many
times at once: ``/v1/execute`` synthesizes through here too, so
coalesced executes of one key -- each with its own inputs -- run the
one result concurrently.  That is safe because a result is a value:
``run()`` / ``run_parallel()`` assign none of its attributes and return
their substrate and notes with the arrays
(:class:`~repro.pipeline.RunOutput`), so each response reports its own
run.  Followers still treat the result as read-only.
"""

from __future__ import annotations

import asyncio
from typing import Callable, Dict, Optional, Tuple

__all__ = ["Coalescer"]


class Coalescer:
    """An :class:`asyncio.Future` per in-flight content-addressed key."""

    def __init__(self) -> None:
        self._inflight: Dict[str, asyncio.Future] = {}
        #: requests that ran a synthesis themselves
        self.leaders = 0
        #: requests that shared another request's in-flight synthesis
        self.coalesced = 0

    @property
    def inflight(self) -> int:
        return len(self._inflight)

    async def run(
        self,
        key: str,
        thunk: Callable[[], object],
        executor=None,
    ) -> Tuple[object, bool]:
        """``(result, was_coalesced)`` for ``thunk`` deduplicated by
        ``key``.

        The leader runs ``thunk`` via ``loop.run_in_executor`` (so the
        event loop keeps serving while the pipeline's search stages
        grind); followers await the leader's future and return its
        result with ``was_coalesced=True``.
        """
        loop = asyncio.get_running_loop()
        existing = self._inflight.get(key)
        if existing is not None:
            self.coalesced += 1
            return await asyncio.shield(existing), True
        future: asyncio.Future = loop.create_future()
        self._inflight[key] = future
        self.leaders += 1
        try:
            result = await loop.run_in_executor(executor, thunk)
        except BaseException as exc:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_exception(exc)
                # mark retrieved: without followers nobody else awaits it
                future.exception()
            raise
        else:
            self._inflight.pop(key, None)
            if not future.cancelled():
                future.set_result(result)
            return result, False

    def stats(self) -> Dict[str, int]:
        return {
            "inflight": self.inflight,
            "leaders": self.leaders,
            "coalesced": self.coalesced,
        }
