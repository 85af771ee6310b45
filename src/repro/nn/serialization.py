"""Checkpoint save/load for Module state dicts."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .module import Module

__all__ = ["save_checkpoint", "load_checkpoint", "load_state"]


def save_checkpoint(module: Module, path: str | Path) -> Path:
    """Serialize ``module``'s parameters to a compressed ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    np.savez_compressed(path, **module.state_dict())
    return path


def load_state(path: str | Path) -> dict[str, np.ndarray]:
    """Load a raw state dict from an ``.npz`` checkpoint."""
    with np.load(Path(path)) as archive:
        return {name: archive[name] for name in archive.files}


def load_checkpoint(module: Module, path: str | Path, strict: bool = True) -> Module:
    """Load parameters from ``path`` into ``module`` in place.

    :meth:`Module.load_state_dict` drops the module's compiled plans.
    """
    module.load_state_dict(load_state(path), strict=strict)
    return module
