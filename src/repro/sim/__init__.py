"""Simulation setup and diagnostics for cloud cavitation collapse.

Bubble cloud generation (lognormal radii, sphere packing), initial
conditions (paper Section 7 production values), and the diagnostics the
paper monitors (Fig. 5): maximum flow/wall pressure, kinetic energy,
vapor volume and equivalent cloud radius.
"""

from .._exports import lazy_exports

__getattr__, __all__ = lazy_exports(__name__, {
    "campaign": ("Campaign", "CampaignResult", "SegmentRecord"),
    "cloud": (
        "Bubble", "tiled_cloud", "cloud_interaction_parameter",
        "cloud_vapor_volume", "equivalent_radius", "generate_cloud",
        "sample_radii",
    ),
    "config": ("SimulationConfig",),
    "diagnostics": (
        "Diagnostics", "kinetic_energy", "max_pressure", "pressure_field",
        "rank_diagnostics", "reduce_diagnostics", "vapor_fraction_field",
        "vapor_volume", "wall_max_pressure",
    ),
    "erosion": ("STEEL_LIKE", "ErosionModel", "WallDamageAccumulator"),
    "ic": (
        "cloud_collapse", "shock_bubble", "shock_tube", "smoothed_indicator",
        "uniform",
    ),
    "study": (
        "SweepPoint", "SweepResult", "cloud_fraction_sweep", "run_sweep",
    ),
    "visualization": (
        "BubbleShape", "ascii_render", "field_slice", "interface_statistics",
        "load_pgm", "save_pgm",
    ),
})
