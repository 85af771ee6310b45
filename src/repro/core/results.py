"""Result records produced by the detection framework.

All three record types round-trip through plain dicts —
``to_dict()``/``from_dict()`` — under a versioned schema
(:data:`SCHEMA_VERSION`), so service clients and the JSONL exporters
consume a stable surface instead of reaching into private fields.
Probability vectors serialize as ``(values, dtype)`` pairs; float32
values survive the float round-trip exactly, so a deserialized report
compares bitwise-equal to the original.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

__all__ = ["ColumnPrediction", "TableResult", "DetectionReport", "SCHEMA_VERSION"]

#: Version stamp written by every ``to_dict()`` and checked by every
#: ``from_dict()``. Bump on any backwards-incompatible field change.
SCHEMA_VERSION = 2


def _check_version(payload: dict[str, Any], record: str) -> None:
    version = payload.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(
            f"cannot deserialize {record}: schema_version {version!r} "
            f"(this build reads version {SCHEMA_VERSION})"
        )


@dataclass
class ColumnPrediction:
    """Final decision for one column.

    ``phase`` records where the decision was made: 1 if Phase 1 was certain,
    2 if the column went through content verification. ``degraded`` marks a
    column that *should* have gone through Phase 2 but fell back to its
    metadata-only prediction because the content scan kept failing.
    """

    table_name: str
    column_name: str
    admitted_types: list[str]
    phase: int
    probabilities: np.ndarray
    uncertain_types: list[str] = field(default_factory=list)
    degraded: bool = False

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict under the versioned schema."""
        return {
            "schema_version": SCHEMA_VERSION,
            "table_name": self.table_name,
            "column_name": self.column_name,
            "admitted_types": list(self.admitted_types),
            "phase": self.phase,
            "probabilities": [float(p) for p in self.probabilities],
            "probabilities_dtype": str(self.probabilities.dtype),
            "uncertain_types": list(self.uncertain_types),
            "degraded": self.degraded,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ColumnPrediction":
        _check_version(payload, "ColumnPrediction")
        return cls(
            table_name=payload["table_name"],
            column_name=payload["column_name"],
            admitted_types=list(payload["admitted_types"]),
            phase=int(payload["phase"]),
            probabilities=np.asarray(
                payload["probabilities"],
                dtype=np.dtype(payload.get("probabilities_dtype", "float32")),
            ),
            uncertain_types=list(payload.get("uncertain_types", [])),
            degraded=bool(payload.get("degraded", False)),
        )


@dataclass
class TableResult:
    """All column predictions for one table plus per-stage timings.

    Resilience bookkeeping: ``retries`` counts retried data-preparation
    attempts for this table; ``degraded`` means the Phase-2 content scan
    ultimately failed and the table fell back to Phase-1 predictions;
    ``failed`` means even the Phase-1 metadata fetch failed (no
    predictions at all). ``error`` holds the final underlying error text.
    """

    table_name: str
    predictions: list[ColumnPrediction]
    prepare1_seconds: float = 0.0
    infer1_seconds: float = 0.0
    prepare2_seconds: float = 0.0
    infer2_seconds: float = 0.0
    retries: int = 0
    degraded: bool = False
    failed: bool = False
    error: str | None = None

    @property
    def num_uncertain(self) -> int:
        return sum(1 for p in self.predictions if p.phase == 2)

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict under the versioned schema (predictions nested)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "table_name": self.table_name,
            "predictions": [p.to_dict() for p in self.predictions],
            "prepare1_seconds": self.prepare1_seconds,
            "infer1_seconds": self.infer1_seconds,
            "prepare2_seconds": self.prepare2_seconds,
            "infer2_seconds": self.infer2_seconds,
            "retries": self.retries,
            "degraded": self.degraded,
            "failed": self.failed,
            "error": self.error,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "TableResult":
        _check_version(payload, "TableResult")
        return cls(
            table_name=payload["table_name"],
            predictions=[
                ColumnPrediction.from_dict(p) for p in payload["predictions"]
            ],
            prepare1_seconds=float(payload.get("prepare1_seconds", 0.0)),
            infer1_seconds=float(payload.get("infer1_seconds", 0.0)),
            prepare2_seconds=float(payload.get("prepare2_seconds", 0.0)),
            infer2_seconds=float(payload.get("infer2_seconds", 0.0)),
            retries=int(payload.get("retries", 0)),
            degraded=bool(payload.get("degraded", False)),
            failed=bool(payload.get("failed", False)),
            error=payload.get("error"),
        )


@dataclass
class DetectionReport:
    """Aggregate result of a detection run over many tables.

    A run under fault injection still returns a *complete* report: every
    requested table appears in ``tables``, with ``degraded``/``failed``
    markers where retries ran out. ``failure_summary()`` condenses the
    resilience outcome of the run. The ``cache_*`` fields count this
    run's latent lookups only, summed over its tables.
    """

    tables: list[TableResult]
    wall_seconds: float
    cost: dict[str, float]
    cache_hits: int = 0
    cache_misses: int = 0
    cache_disabled_lookups: int = 0
    retries: int = 0
    giveups: int = 0
    faults_injected: int = 0

    @property
    def predictions(self) -> list[ColumnPrediction]:
        return [p for table in self.tables for p in table.predictions]

    @property
    def num_columns(self) -> int:
        return len(self.predictions)

    def scanned_ratio(self) -> float:
        """Fraction of columns that went through Phase 2 content scanning."""
        if not self.num_columns:
            return 0.0
        scanned = sum(1 for p in self.predictions if p.phase == 2)
        return scanned / self.num_columns

    def predicted_labels(self) -> dict[tuple[str, str], list[str]]:
        """``{(table, column): admitted types}`` for metric computation."""
        return {
            (p.table_name, p.column_name): p.admitted_types for p in self.predictions
        }

    # ------------------------------------------------------------------
    # Resilience
    # ------------------------------------------------------------------
    @property
    def ok(self) -> bool:
        """Whether every table completed both phases without degradation."""
        return not any(table.degraded or table.failed for table in self.tables)

    def degraded_tables(self) -> list[str]:
        """Tables that fell back to Phase-1 (metadata-only) predictions."""
        return [table.table_name for table in self.tables if table.degraded]

    def failed_tables(self) -> list[str]:
        """Tables whose metadata fetch itself gave up (no predictions)."""
        return [table.table_name for table in self.tables if table.failed]

    def failure_summary(self) -> dict[str, Any]:
        """Condensed resilience outcome of the run (always present).

        ``{"ok": bool, "tables": N, "degraded": [...], "failed": [...],
        "degraded_columns": N, "retries": N, "giveups": N,
        "faults_injected": N, "errors": {table: message}}``
        """
        return {
            "ok": self.ok,
            "tables": len(self.tables),
            "degraded": self.degraded_tables(),
            "failed": self.failed_tables(),
            "degraded_columns": sum(1 for p in self.predictions if p.degraded),
            "retries": self.retries,
            "giveups": self.giveups,
            "faults_injected": self.faults_injected,
            "errors": {
                table.table_name: table.error
                for table in self.tables
                if table.error is not None
            },
        }

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe dict under the versioned schema (tables nested)."""
        return {
            "schema_version": SCHEMA_VERSION,
            "tables": [table.to_dict() for table in self.tables],
            "wall_seconds": self.wall_seconds,
            "cost": dict(self.cost),
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_disabled_lookups": self.cache_disabled_lookups,
            "retries": self.retries,
            "giveups": self.giveups,
            "faults_injected": self.faults_injected,
        }

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "DetectionReport":
        _check_version(payload, "DetectionReport")
        return cls(
            tables=[TableResult.from_dict(t) for t in payload["tables"]],
            wall_seconds=float(payload["wall_seconds"]),
            cost=dict(payload.get("cost", {})),
            cache_hits=int(payload.get("cache_hits", 0)),
            cache_misses=int(payload.get("cache_misses", 0)),
            cache_disabled_lookups=int(payload.get("cache_disabled_lookups", 0)),
            retries=int(payload.get("retries", 0)),
            giveups=int(payload.get("giveups", 0)),
            faults_injected=int(payload.get("faults_injected", 0)),
        )
