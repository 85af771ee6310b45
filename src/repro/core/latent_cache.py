"""The per-table latent hand-off of the metadata tower (paper Sec. 4.2.2).

Because the content tower depends on the metadata tower's per-layer outputs
but not vice versa, Phase 1 can keep ``Encode_i^{M_t}`` for every layer and
the *same table's* Phase 2 can reuse them, skipping the whole
metadata-tower recomputation.

Each :class:`~repro.core.phases.TableJob` owns one :class:`LatentCache`,
keyed by chunk index: the P1-inference stage ``put``\\ s the latents of
every chunk with at least one uncertain column, and the P2-inference stage
``get``\\ s them, which removes them. Nothing is shared between tables,
runs or tenants, so nothing can be evicted, go stale or leak across a
tenant boundary. No lock is needed: the executors never run two stages of
one job at once, and ``put`` (stage 2) always precedes ``get`` (stage 4).

Lookups against a *disabled* store (the "TASTE without caching" ablation)
are counted as ``disabled_lookups``, not as misses: the ablation never
attempts a lookup, so reporting misses for it would overstate churn. Every
``get`` increments exactly one of the ``cache.hits`` / ``cache.misses`` /
``cache.disabled_lookups`` counters of a
:class:`~repro.obs.metrics.MetricsRegistry`, the process-global one by
default.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..obs.metrics import MetricsRegistry, NullMetricsRegistry, global_registry

__all__ = ["CachedEncoding", "LatentCache"]


@dataclass
class CachedEncoding:
    """One chunk's metadata-tower outputs, all Phase 2 needs to reuse them."""

    layer_outputs: list[np.ndarray]  # [(1, M, H)] per layer, incl. embeddings

    def usable_at(self, meta_width: int) -> bool:
        """Whether these latents can stand in for a fresh metadata forward.

        Phase 1 keeps a chunk's latents at its real metadata length, and
        the chunk's Phase-2 encoding shares its Phase-1 metadata tokens,
        so a table job's latents always fit. The forward still checks
        this per request: a request built with latents of another length
        recomputes its own metadata tower.
        """
        return bool(self.layer_outputs) and self.layer_outputs[0].shape[1] == meta_width


@dataclass
class LatentCache:
    """One table's Phase-1 latents, keyed by chunk index and read once."""

    enabled: bool = True
    metrics: MetricsRegistry | NullMetricsRegistry | None = None
    hits: int = 0
    misses: int = 0
    disabled_lookups: int = 0
    entries: dict[int, CachedEncoding] = field(default_factory=dict, repr=False)

    def put(self, chunk_index: int, encoding: CachedEncoding) -> None:
        if self.enabled:
            self.entries[chunk_index] = encoding

    def get(self, chunk_index: int) -> CachedEncoding | None:
        """Hand over (and forget) a chunk's latents; ``None`` if absent."""
        metrics = self.metrics if self.metrics is not None else global_registry()
        if not self.enabled:
            self.disabled_lookups += 1
            metrics.counter("cache.disabled_lookups").inc()
            return None
        encoding = self.entries.pop(chunk_index, None)
        if encoding is None:
            self.misses += 1
            metrics.counter("cache.misses").inc()
        else:
            self.hits += 1
            metrics.counter("cache.hits").inc()
        return encoding
