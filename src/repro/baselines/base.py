"""Shared machinery for the content-reliant baseline detectors.

Both TURL-like and Doduo-like baselines follow the same end-to-end flow
(the one the paper contrasts TASTE against):

1. fetch table metadata,
2. fetch *all* columns' content (100% scanned columns by construction),
3. run the model once, sequentially per table.

``with_content=False`` gives the privacy setting of Table 4: content is
replaced by nothing and the model sees metadata tokens only.
"""

from __future__ import annotations

import time

import numpy as np

from .. import nn
from ..core.results import ColumnPrediction, DetectionReport, TableResult
from ..datagen.tables import Table
from ..db.cost import CostLedger, billed_to, total_cost
from ..db.server import CloudDatabaseServer
from ..features.content_features import first_non_empty
from ..features.encoding import Featurizer, collate, split_metadata
from ..nn.functional import stable_sigmoid
from .single_tower import SingleTowerModel

__all__ = ["BaselineDetector", "fine_tune_baseline", "BaselineTrainConfig"]

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BaselineTrainConfig:
    """Training hyper-parameters for the single-tower baselines."""

    epochs: int = 20
    batch_size: int = 8
    learning_rate: float = 3e-3
    weight_decay: float = 1e-4
    grad_clip: float = 5.0
    seed: int = 0


@dataclass
class BaselineTrainHistory:
    epoch_losses: list[float] = field(default_factory=list)
    seconds: float = 0.0


class BaselineDetector:
    """One-shot content-based detector (TURL-like / Doduo-like serving)."""

    def __init__(
        self,
        model: SingleTowerModel,
        featurizer: Featurizer,
        admit_threshold: float = 0.5,
        with_content: bool = True,
        scan_method: str = "first",
        sample_seed: int = 0,
    ) -> None:
        if scan_method not in ("first", "sample"):
            raise ValueError(f"scan_method must be 'first' or 'sample', got {scan_method!r}")
        self.model = model
        self.featurizer = featurizer
        self.admit_threshold = admit_threshold
        self.with_content = with_content
        self.scan_method = scan_method
        self.sample_seed = sample_seed
        self.model.eval()

    def detect(
        self,
        server: CloudDatabaseServer,
        table_names: list[str] | None = None,
    ) -> DetectionReport:
        """Sequentially process tables: metadata fetch, full scan, inference."""
        registry = self.featurizer.registry
        config = self.featurizer.config
        started = time.perf_counter()
        cost = CostLedger()
        with billed_to(cost):
            connection = server.connect()
            results = []
            try:
                if table_names is None:
                    table_names = connection.list_tables()
                for table_name in table_names:
                    prep_started = time.perf_counter()
                    metadata = connection.fetch_metadata(table_name)
                    content: dict[str, list[str]] = {}
                    if self.with_content:
                        all_columns = [c.column_name for c in metadata.columns]
                        sample_seed = (
                            self.sample_seed if self.scan_method == "sample" else None
                        )
                        content = connection.fetch_values(
                            table_name,
                            all_columns,
                            limit=config.scan_rows,
                            sample_seed=sample_seed,
                        )
                    prep_seconds = time.perf_counter() - prep_started

                    infer_started = time.perf_counter()
                    result = TableResult(table_name, predictions=[])
                    for chunk in split_metadata(metadata, config.column_split_threshold):
                        local_content = {
                            index: first_non_empty(
                                content[column.column_name], config.cells_per_column
                            )
                            for index, column in enumerate(chunk.columns)
                            if column.column_name in content
                        }
                        encoded = self.featurizer.encode(chunk, local_content)
                        # Baselines are sequential by design (no cross-table
                        # batching in TURL/Doduo-style scans) — the per-chunk
                        # forward here is the modelled behaviour, not an accident.
                        batch = collate([encoded])  # noqa: RPR501
                        with nn.no_grad():
                            logits = self.model(batch)
                        probs = stable_sigmoid(logits.detach().numpy()[0])
                        for local, column in enumerate(chunk.columns):
                            result.predictions.append(
                                ColumnPrediction(
                                    table_name=table_name,
                                    column_name=column.column_name,
                                    admitted_types=registry.vector_to_labels(
                                        probs[local], self.admit_threshold
                                    ),
                                    phase=2 if self.with_content else 1,
                                    probabilities=probs[local].copy(),
                                )
                            )
                    result.prepare1_seconds = prep_seconds
                    result.infer1_seconds = time.perf_counter() - infer_started
                    results.append(result)
            finally:
                connection.close()
        return DetectionReport(
            tables=results,
            wall_seconds=time.perf_counter() - started,
            cost=total_cost([cost]),
        )


def fine_tune_baseline(
    model: SingleTowerModel,
    featurizer: Featurizer,
    tables: list[Table],
    config: BaselineTrainConfig | None = None,
) -> BaselineTrainHistory:
    """Train a single-tower baseline with multi-label BCE."""
    config = config or BaselineTrainConfig()
    rng = np.random.default_rng(config.seed)
    threshold = featurizer.config.column_split_threshold
    encoded = []
    for table in tables:
        for chunk in table.split(threshold):
            encoded.append(featurizer.encode_offline(chunk))
    if not encoded:
        raise ValueError("no tables to train on")

    optimizer = nn.Adam(
        model.parameters(), lr=config.learning_rate, weight_decay=config.weight_decay
    )
    history = BaselineTrainHistory()
    started = time.perf_counter()
    model.train()
    for _ in range(config.epochs):
        order = rng.permutation(len(encoded))
        epoch_loss, batches = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = collate([encoded[int(i)] for i in order[start : start + config.batch_size]])
            logits = model(batch)
            mask = batch.column_mask.astype(np.float32)[..., None]
            loss = nn.bce_with_logits(logits, batch.labels, mask=mask)
            model.zero_grad()
            loss.backward()
            nn.clip_grad_norm(model.parameters(), config.grad_clip)
            optimizer.step()
            epoch_loss += loss.item()
            batches += 1
        history.epoch_losses.append(epoch_loss / batches)
    history.seconds = time.perf_counter() - started
    model.eval()
    return history
