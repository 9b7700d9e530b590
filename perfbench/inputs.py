"""Seeded inputs for the benchmark workloads.

The same seed gives the same files byte for byte. For each dimension of
`phasespace-cli` it writes a random density matrix (JSON), its coefficients
(quasi CSV) and its basis probabilities (probability CSV); the coefficients
and probabilities come from the closed forms in `reference.py`, not from the
package under test. For `library-stream` it writes the state stream as one
`.npy` array of shape (states, d, d). `run.py` calls these writers for
each run; the files land in the run's work directory.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from reference import Reference, matrix_json, probabilities_csv, quasi_csv, random_density


def cli_paths(out: Path, d: int) -> dict[str, Path]:
    return {
        "matrix": out / f"rho_d{d}.json",
        "quasi": out / f"quasi_d{d}.csv",
        "probs": out / f"probs_d{d}.csv",
    }


def cli_state(seed: int, d: int) -> np.ndarray:
    return random_density(np.random.default_rng([seed, d]), d)


def write_cli_inputs(seed: int, d: int, out: Path) -> np.ndarray:
    """Write the three `phasespace-cli` inputs for one dimension; return the state."""
    rho = cli_state(seed, d)
    ref = Reference(d)
    paths = cli_paths(out, d)
    paths["matrix"].write_text(matrix_json(rho), encoding="utf-8")
    paths["quasi"].write_text(quasi_csv(ref.quasi(rho)), encoding="utf-8")
    paths["probs"].write_text(probabilities_csv(ref.probabilities(rho)), encoding="utf-8")
    return rho


def stream_states(seed: int, d: int, count: int) -> np.ndarray:
    rng = np.random.default_rng([seed, d, 1])
    return np.stack([random_density(rng, d) for _ in range(count)])


def write_stream(seed: int, d: int, count: int, path: Path) -> None:
    np.save(path, stream_states(seed, d, count), allow_pickle=False)
