"""Analytic characterization of the compute kernels.

Per-cell FLOP counts, instruction-mix data and execution frequencies of
the four kernels (RHS, DT, UP, FWT).  These are the inputs shared by the
traffic model (Table 3), the issue-rate model (Table 8), the layer
composition model (Tables 5-7, 9, 10) and the throughput projection
(Section 7).

FLOP counts are derived from the schemes themselves:

* One WENO5 reconstruction costs ~52 FLOPs (3 smoothness indicators,
  3 rational weights, 3 candidate polynomials, normalization); each face
  needs 2 reconstructions (minus/plus) of each of the 7 quantities, and
  each cell owns one new face per direction:
  ``2 * 52 * 7 * 3 = 2184`` FLOP/cell.
* HLLE adds ~13 FLOP per quantity per face plus ~25 for the wave speeds:
  ``(13 * 7 + 25) * 3 = 348``; CONV ~20; SUM ~42; BACK ~20.
* The paper additionally counts QPX permute/select/compare data movement
  as FLOPs (Section 8: "we count as FLOP also the instructions for
  permutation, negation, conditional move"), which its Table 8
  instruction densities imply is a further ~1.6x on the WENO-dominated
  total.  The calibrated total of 4400 FLOP/cell per RHS evaluation
  reproduces the paper's joint (10.14 PFLOP/s, 721 Gcells/s, 18.3 s/step)
  figures self-consistently, so we adopt it as the accounting basis.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Bytes per computational element (7 quantities, float32 storage).
CELL_BYTES = 28
#: DRAM cache-line size of the BQC (128 B).
LINE_BYTES = 128
#: WENO5 ghost width.
STENCIL = 3


@dataclass(frozen=True)
class StageMix:
    """Instruction mix of one RHS substage (paper Table 8 inputs)."""

    name: str
    weight: float  #: share of RHS QPX instructions
    flop_per_instr: float  #: per-lane FLOP / QPX instruction


#: Paper Table 8: stage weights and FLOP/instruction densities of the
#: compiler-generated QPX assembly.
RHS_STAGES = (
    StageMix("CONV", 0.01, 1.10),
    StageMix("WENO", 0.83, 1.56),
    StageMix("HLLE", 0.13, 1.30),
    StageMix("SUM", 0.02, 1.22),
    StageMix("BACK", 0.005, 1.28),
)


@dataclass(frozen=True)
class KernelModel:
    """Workload characterization of one kernel."""

    name: str
    flops_per_cell: float  #: per evaluation
    evals_per_step: int  #: RK3: RHS and UP run 3x per step
    issue_density: float | None  #: avg per-lane FLOP/instruction (QPX)

    def flops_per_cell_step(self) -> float:
        return self.flops_per_cell * self.evals_per_step


#: Weighted-average issue density of the RHS (Table 8 "ALL" row: 1.51).
RHS_ISSUE_DENSITY = sum(s.weight * s.flop_per_instr for s in RHS_STAGES) / sum(
    s.weight for s in RHS_STAGES
)

RHS = KernelModel("RHS", flops_per_cell=4400.0, evals_per_step=3,
                  issue_density=RHS_ISSUE_DENSITY)
#: DT: conversion to primitives + sound speed + running max (~36 FLOP).
DT = KernelModel("DT", flops_per_cell=36.0, evals_per_step=1, issue_density=None)
#: UP: two FMAs per quantity per stage (S = aS + dt R; U += bS).
UP = KernelModel("UP", flops_per_cell=28.0, evals_per_step=3, issue_density=None)
#: FWT: 4-tap predict per sample per axis over the level pyramid
#: (~8 FLOP * 3 axes * sum over levels of 8^-l ~ 27 FLOP/cell/quantity).
FWT = KernelModel("FWT", flops_per_cell=27.0, evals_per_step=0, issue_density=None)

KERNELS = (RHS, DT, UP, FWT)


def flops_per_cell_step() -> float:
    """Total FLOPs each cell costs per time step (RK3 production step)."""
    return sum(k.flops_per_cell_step() for k in KERNELS)
