"""Benchmark-owned timing shims around each layer's public functions.

Nothing under ``src/`` knows about these: :class:`Recorder` swaps a
layer's public function for a wrapper that records a span (name, start,
end, thread, parent) in memory, and swaps the original back afterwards.
Shims exist only for the traced passes, so end-to-end numbers are never
taken with them in place.

A span's parent is the innermost open shim span on the *same thread*
(thread-local stack). The one cross-thread hop — an infer-stage thread
blocked in ``InferenceBatcher.run`` while the ``taste-batcher`` thread
runs its requests — is linked by request identity: ``run`` registers
its request objects, and the ``run_phase1``/``run_phase2`` span that
carries them lists the owning ``run`` spans in ``links``.

``self_s`` is busy self time: the span's duration minus the part its
child spans on the same thread cover. Children on one thread nest and
never overlap, so that is duration minus the sum of direct children.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Any, Callable, NamedTuple

from repro.core.adtd import ADTDModel
from repro.core.detector import TasteDetector
from repro.core.latent_cache import LatentCache
from repro.core.phases import TableJob
from repro.core.pipeline import PipelinedExecutor
from repro.db.connection import Connection
from repro.db.pool import ConnectionPool
from repro.db.server import CloudDatabaseServer
from repro.features.encoding import Featurizer
from repro.nn.compile import CompiledPlan
from repro.sched import forward as sched_forward
from repro.sched.batcher import InferenceBatcher
from repro.sched.forward import Phase1Request, Phase2Request
from repro.serve.job import JobHandle
from repro.serve.service import DetectionService
from repro.text.tokenizer import Tokenizer

__all__ = ["Span", "Recorder", "CONTAINER_SPANS", "request_gflop"]


class Span(NamedTuple):
    span_id: int
    name: str
    thread: str
    parent_id: int | None
    start: float
    end: float
    self_s: float
    attrs: dict[str, Any] | None

    def to_dict(self) -> dict[str, Any]:
        return {**self._asdict(), "attrs": self.attrs or {}}


# Spans that only contain other layers' work (a whole pass, a whole
# executor run, a client blocked on its job). They are left out of
# ``obs.attributed_pct``: counting them would make it 100% by definition.
CONTAINER_SPANS = frozenset(
    {"core.detector.detect", "core.pipeline.run", "serve.result"}
)


def _block_flop(queries: int, keys: int, hidden: int, inner: int) -> int:
    """Multiply-add FLOPs (2 per MAC) of one transformer block."""
    projections = 2 * hidden * hidden * (2 * queries + 2 * keys)  # Q, out; K, V
    attention = 2 * 2 * queries * keys * hidden  # scores + weighted sum
    ffn = 2 * 2 * queries * hidden * inner
    return projections + attention + ffn


def request_gflop(model: ADTDModel, request: Any, recompute_meta: bool) -> float:
    """GFLOP of one request's forward, computed from its shapes.

    Not measured: token-level terms use the padded bucket widths (padding
    is real work), column-level terms (pooling, classifier head) use the
    request's own column count, so the figure does not depend on which
    batch the request rode in.
    """
    config = model.config
    encoder = config.encoder
    hidden, inner, layers = (
        encoder.hidden_size,
        encoder.intermediate_size,
        encoder.num_layers,
    )
    columns = request.num_columns
    meta = request.meta_width
    meta_tower = layers * _block_flop(meta, meta, hidden, inner)
    meta_pool = 2 * columns * meta * hidden
    if isinstance(request, Phase1Request):
        head_in = hidden + config.numeric_dim
        head = 2 * columns * (
            head_in * config.meta_classifier_hidden
            + config.meta_classifier_hidden * config.num_labels
        )
        return (meta_tower + meta_pool + head) / 1e9
    content = request.content_width
    content_tower = layers * _block_flop(content, meta + content, hidden, inner)
    head_in = 2 * hidden + config.numeric_dim
    head = 2 * columns * (
        head_in * config.content_classifier_hidden
        + config.content_classifier_hidden * config.num_labels
    )
    total = content_tower + meta_pool + 2 * columns * content * hidden + head
    if recompute_meta:
        total += meta_tower
    return total / 1e9


class Recorder:
    """Installs the shims, collects their spans, restores the originals."""

    def __init__(self) -> None:
        self.spans: list[Span] = []  # list.append is atomic under the GIL
        self.queue_depths: list[int] = []  # sampled after every submit
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request_owner: dict[int, int] = {}  # id(request) -> run span id
        self._originals: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    def _shim(
        self,
        fn: Callable[..., Any],
        name: "str | Callable[[tuple], str]",
        before: "Callable[[int, tuple], dict[str, Any] | None] | None" = None,
        after: "Callable[[tuple], None] | None" = None,
    ) -> Callable[..., Any]:
        spans, local, next_id = self.spans, self._local, self._ids.__next__
        clock = time.perf_counter

        def shim(*args: Any, **kwargs: Any) -> Any:
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next_id()
            attrs = before(span_id, args) if before is not None else None
            frame = [span_id, 0.0]  # id, seconds covered by direct children
            parent_id = stack[-1][0] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                elif attrs and attrs.get("links"):
                    parent_id = attrs["links"][0]
                spans.append(
                    Span(
                        span_id,
                        name if isinstance(name, str) else name(args),
                        threading.current_thread().name,
                        parent_id,
                        start,
                        end,
                        end - start - frame[1],
                        attrs,
                    )
                )
                if after is not None:
                    after(args)

        shim.__wrapped__ = fn  # type: ignore[attr-defined]
        return shim

    def _patch(self, owner: Any, attribute: str, name: Any, **hooks: Any) -> None:
        original = getattr(owner, attribute)
        self._originals.append((owner, attribute, original))
        setattr(owner, attribute, self._shim(original, name, **hooks))

    # ------------------------------------------------------------------
    # Hooks that need more than a name.
    # ------------------------------------------------------------------
    def _register_requests(self, span_id: int, args: tuple) -> None:
        for request in args[1]:
            self._request_owner[id(request)] = span_id

    def _release_requests(self, args: tuple) -> None:
        for request in args[1]:
            self._request_owner.pop(id(request), None)

    def _describe_forward(self, span_id: int, args: tuple) -> dict[str, Any]:
        model, requests = args[0], args[1]
        recompute = isinstance(requests[0], Phase2Request) and not all(
            r.cached is not None and r.cached.usable_at(r.meta_width) for r in requests
        )
        padded = real = 0
        for request in requests:
            padded += request.meta_width
            real += len(request.encoded.meta.token_ids)
            if isinstance(request, Phase2Request):
                padded += request.content_width
                real += len(request.encoded.content.token_ids)
        owners = {self._request_owner.get(id(request)) for request in requests}
        return {
            "requests": len(requests),
            "columns": sum(request.num_columns for request in requests),
            "gflop": sum(request_gflop(model, r, recompute) for r in requests),
            "padded_tokens": padded,
            "real_tokens": real,
            "links": sorted(owner for owner in owners if owner is not None),
        }

    def _sample_queue_depth(self, args: tuple) -> None:
        self.queue_depths.append(args[0].queue_depth)

    # ------------------------------------------------------------------
    def install(self) -> None:
        patch = self._patch
        # repro.db
        patch(CloudDatabaseServer, "connect", "db.connect")
        patch(Connection, "fetch_metadata", "db.fetch_metadata")
        patch(Connection, "fetch_values", "db.fetch_values")
        patch(ConnectionPool, "acquire", "db.pool.acquire")
        # repro.text / repro.features
        patch(Tokenizer, "encode", "text.encode")
        patch(Featurizer, "encode", "features.encode")
        patch(sched_forward, "collate", "features.collate")
        # repro.core.phases
        patch(TableJob, "prepare_phase1", "core.phases.p1_prep")
        patch(TableJob, "infer_phase1", "core.phases.p1_infer")
        patch(TableJob, "prepare_phase2", "core.phases.p2_prep")
        patch(TableJob, "infer_phase2", "core.phases.p2_infer")
        # repro.core.pipeline / latent_cache / detector
        patch(PipelinedExecutor, "run", "core.pipeline.run")
        patch(LatentCache, "get", "core.latent_cache.get")
        patch(LatentCache, "put", "core.latent_cache.put")
        patch(TasteDetector, "detect", "core.detector.detect")
        # repro.sched
        patch(
            InferenceBatcher,
            "run",
            "sched.batcher.run",
            before=self._register_requests,
            after=self._release_requests,
        )
        patch(sched_forward, "run_phase1", "sched.forward.run_phase1",
              before=self._describe_forward)
        patch(sched_forward, "run_phase2", "sched.forward.run_phase2",
              before=self._describe_forward)
        # repro.nn.compile / repro.nn
        patch(CompiledPlan, "run", lambda args: f"nn.compile.replay.p{args[0].phase}")
        for method in ("encode_metadata", "encode_content", "meta_logits", "content_logits"):
            patch(ADTDModel, method, f"nn.eager.{method}")
        # repro.serve
        patch(DetectionService, "submit", "serve.submit", after=self._sample_queue_depth)
        patch(JobHandle, "result", "serve.result")

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Recorder":
        self.install()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.uninstall()
