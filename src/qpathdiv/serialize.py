"""JSON encoding of square complex matrices, used by the CLI and the test
fixtures for states and Hermitian directions:

    {"dim": n, "re": [[...n x n...]], "im": [[...n x n...]]}

``dim`` must be a JSON integer (not a float, string or boolean). load_state
validates what it reads as a density matrix (states.validate_density).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import InvalidShape
from .states import DensityMatrix, validate_density


def matrix_to_json(m: np.ndarray) -> dict:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidShape(f"expected a square matrix, got shape {m.shape}")
    return {
        "dim": m.shape[0],
        "re": m.real.tolist(),
        "im": m.imag.tolist(),
    }


def matrix_from_json(obj: dict) -> np.ndarray:
    try:
        dim = obj["dim"]
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidShape(f"malformed matrix object: {exc}") from exc
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise InvalidShape(f"dim must be a JSON integer, got {dim!r}")
    if re.shape != (dim, dim) or im.shape != (dim, dim):
        raise InvalidShape(
            f"matrix parts must be {dim}x{dim}, got re {re.shape} and im {im.shape}"
        )
    return re + 1j * im


def save_state(path: str | Path, state: DensityMatrix | np.ndarray) -> None:
    save_matrix(path, state.matrix if isinstance(state, DensityMatrix) else state)


def load_state(path: str | Path) -> DensityMatrix:
    return validate_density(load_matrix(path))


def save_matrix(path: str | Path, m: np.ndarray) -> None:
    Path(path).write_text(json.dumps(matrix_to_json(m), indent=2) + "\n")


def load_matrix(path: str | Path) -> np.ndarray:
    return matrix_from_json(json.loads(Path(path).read_text()))
