"""Cellsim: trace-driven emulation of cellular links (Section 4.2)."""

from repro.cellsim.cellsim import Cellsim, build_cellsim, cellsim_for_link, traces_for_link

__all__ = [
    "Cellsim",
    "build_cellsim",
    "cellsim_for_link",
    "traces_for_link",
]
