"""Seeded input generators: the program only ever sees what these return.

The same ``seed`` gives the same bubble lists and request sequence; the
seed never selects a code path.  Bubble counts and radii are sized so
the rejection-sampling packer of ``generate_cloud`` cannot run out of
attempts, i.e. no workload has an operation that fails by construction.
"""

from __future__ import annotations

import zlib

import numpy as np

from repro.physics import GAMMA, STORAGE_DTYPE
from repro.service import ICSpec, JobRequest
from repro.sim import (
    SimulationConfig,
    cloud_collapse,
    generate_cloud,
    pressure_field,
)

#: name -> (cells, block_size, periodic, bubbles, cloud centre (z, y, x)).
STEP_CASES = {
    "cloud64_b32": (64, 32, (False,) * 3, 8, (0.5, 0.5, 0.5)),
    "cloud32_b8": (32, 8, (False,) * 3, 8, (0.5, 0.5, 0.5)),
    # extent is the x edge (16 cells), so z spans [0, 2].
    "halo2_b8": ((32, 16, 16), 8, (True,) * 3, 8, (1.0, 0.5, 0.5)),
}

DUMP_CELLS = 128
DUMP_BLOCK = 32
#: (quantity, decimation threshold) as in the paper's production dumps.
DUMP_QUANTITIES = (("p", 1e-2), ("Gamma", 1e-3))

SERVICE_CELLS = 16
SERVICE_STEPS = 2


def rng_for(seed: int, tag: str) -> np.random.Generator:
    """One independent stream per (seed, purpose)."""
    return np.random.default_rng([int(seed), zlib.crc32(tag.encode())])


def bubbles(seed: int, tag: str, count: int, centre, r_min=0.07, r_max=0.11):
    """The CLI's cloud family: lognormal radii packed in a 0.38 sphere."""
    return generate_cloud(count, centre, 0.38, rng=rng_for(seed, tag),
                          r_min=r_min, r_max=r_max)


def step_case(name: str, seed: int, max_steps: int, ranks: int = 1,
              backend: str = "sim"):
    """``(SimulationConfig, ic_fn)`` of one step workload."""
    cells, block, periodic, count, centre = STEP_CASES[name]
    config = SimulationConfig(
        cells=cells, block_size=block, periodic=periodic, max_steps=max_steps,
        ranks=ranks, cluster_backend=backend, num_workers=1,
        diag_interval=0, dump_interval=0,
    )
    ic = cloud_collapse(bubbles(seed, name, count, centre), smoothing=config.h)
    return config, ic


def dump_grid(seed: int):
    """The filled 128^3 ``BlockGrid`` the dump workload collects from."""
    from repro.node import BlockGrid

    h = 1.0 / DUMP_CELLS
    grid = BlockGrid((DUMP_CELLS // DUMP_BLOCK,) * 3, DUMP_BLOCK, h)
    cloud = bubbles(seed, "dump128", 12, (0.5, 0.5, 0.5), r_min=0.05,
                    r_max=0.09)
    grid.fill(cloud_collapse(cloud, smoothing=h))
    return grid


def dump_fields(grid) -> dict[str, np.ndarray]:
    """Collect ``p`` and ``Gamma`` exactly as the driver's dump does."""
    fld = grid.to_array()
    return {
        "p": pressure_field(fld).astype(STORAGE_DTYPE),
        "Gamma": np.ascontiguousarray(fld[..., GAMMA], dtype=STORAGE_DTYPE),
    }


def service_request(ic_seed: int) -> JobRequest:
    config = SimulationConfig(cells=SERVICE_CELLS, block_size=8,
                              max_steps=SERVICE_STEPS, num_workers=1)
    # Smoothed over one cell like the CLI's runs: a sharp interface at
    # this resolution drives the density negative within two steps.
    return JobRequest(config, ICSpec("generated_cloud", {
        "n_bubbles": 3, "seed": int(ic_seed), "smoothing": config.h}))


def service_mix(seed: int, distinct: int, repeats: int = 3):
    """``(ic_seeds, order)``: distinct request seeds and the shuffled
    sequence of indices into them in which each appears ``repeats`` times."""
    rng = rng_for(seed, "service_mix")
    base = int(rng.integers(1, 2**30))
    ic_seeds = [base + k for k in range(distinct)]
    order = np.repeat(np.arange(distinct), repeats)
    rng.shuffle(order)
    return ic_seeds, [int(i) for i in order]
