"""The public API of the package, pinned.

Adding, removing or renaming a public name has to show up as an edit to
this file.
"""

import ast
import types
from pathlib import Path

import fasbar

PUBLIC_NAMES = {
    # baselines
    "RankDeficientFitWarning",
    "SteeringDictionary",
    "build_steering_dictionary",
    "estimate_fas_omp",
    "estimate_selmmse",
    "random_ports",
    "selmmse_ports",
    # channels
    "ChannelRealization",
    "PilotObservation",
    "PortGeometry",
    "SscModelParams",
    "build_port_geometry",
    "draw_port_noise",
    "generate_ssc_channel",
    "noise_power_for_snr",
    "observe_pilots",
    "observe_ports",
    "ssc_channel_from_rays",
    # fileio
    "load_estimate",
    "load_kernel",
    "load_observation",
    "load_plan",
    "save_estimate",
    "save_kernel",
    "save_observation",
    "save_plan",
    # harness
    "ExperimentConfig",
    "ResultRecord",
    "SchemeSpec",
    "config_from_dict",
    "emit_csv",
    "load_config",
    "nmse",
    "read_csv",
    "run_sweep",
    "train_covariance_kernel",
    # kernels
    "Kernel",
    "default_eta",
    "kernel_bessel",
    "kernel_covariance",
    "kernel_exponential",
    # sbar
    "Reconstruction",
    "SamplingPlan",
    "design_plan",
    "reconstruct",
    # svgplot
    "emit_svg",
}


def test_public_names_are_pinned():
    exported = {
        name
        for name in dir(fasbar)
        if not name.startswith("_") and not isinstance(getattr(fasbar, name), types.ModuleType)
    }
    assert exported == PUBLIC_NAMES


def test_every_public_definition_is_exported_or_used():
    # a public top-level function or class that the package neither exports
    # nor calls is reachable only from tests
    sources = Path(fasbar.__file__).parent.glob("*.py")
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sources}
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    unused = sorted(
        f"{module}: {node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and node.name not in PUBLIC_NAMES | used
    )
    assert unused == []
