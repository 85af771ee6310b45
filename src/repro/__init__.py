"""Reproduction of "TASTE: Towards Practical Deep Learning-based
Approaches for Semantic Type Detection in the Cloud" (EDBT 2025).

The canonical public surface is re-exported here: build a
:class:`TasteDetector` (configured by :class:`DetectorConfig` /
:class:`RuntimeConfig`, called with :class:`DetectOptions`), or serve it
to many tenants through :class:`DetectionService` (configured by
:class:`ServiceConfig`). Results come back as :class:`DetectionReport` /
:class:`TableResult` / :class:`ColumnPrediction` records with versioned
``to_dict()``/``from_dict()`` round-trips, and everything the framework
raises on purpose lives in the :mod:`repro.errors` hierarchy.

Subpackages
-----------
``repro.nn``
    A numpy autograd + Transformer stack (the PyTorch stand-in).
``repro.text``
    Tokenization substrate.
``repro.datagen``
    Synthetic WikiTable-like / GitTables-like corpora.
``repro.db``
    Simulated cloud database (RDS-MySQL stand-in) with cost accounting.
``repro.faults``
    Deterministic fault injection (latency, transient errors, connection
    drops) and the retry/backoff policy the framework recovers with.
``repro.features``
    Featurization of metadata and content into model inputs.
``repro.core``
    The TASTE framework: ADTD model, two-phase detection, latent cache,
    pipelined execution, training.
``repro.sched``
    Adaptive cross-table inference batching (the paper's S2 batching).
``repro.serve``
    The multi-tenant detection service: admission control, fair
    scheduling, job lifecycle over one warm detector.
``repro.errors``
    The consolidated exception hierarchy (one base class,
    :class:`~repro.errors.ReproError`).
``repro.baselines``
    TURL-like, Doduo-like, regex and dictionary baselines.
``repro.metrics``
    F1 / execution time / scanned-column metrics.
``repro.obs``
    Observability: span tracing, runtime metrics, JSONL export and the
    ASCII pipeline timeline.
``repro.experiments``
    One module per table/figure of the paper's evaluation.
"""

from . import baselines, core, datagen, db, errors, faults, features, metrics, nn, obs, sched, serve, text
from .core import (
    ColumnPrediction,
    CompileConfig,
    DetectionReport,
    DetectOptions,
    DetectorConfig,
    RuntimeConfig,
    TableResult,
    TasteDetector,
)
from .serve import DetectionService, JobHandle, ServiceConfig, TenantQuota

__version__ = "1.9.0"

__all__ = [
    # canonical API
    "TasteDetector",
    "DetectorConfig",
    "CompileConfig",
    "RuntimeConfig",
    "DetectOptions",
    "DetectionService",
    "ServiceConfig",
    "TenantQuota",
    "JobHandle",
    "DetectionReport",
    "TableResult",
    "ColumnPrediction",
    # subpackages
    "nn",
    "text",
    "datagen",
    "db",
    "errors",
    "faults",
    "features",
    "core",
    "sched",
    "serve",
    "baselines",
    "metrics",
    "obs",
    "__version__",
]
