"""Teleportation through noisy Pauli channels routed by a quantum switch.

The package simulates generalized depolarizing channels applied in a coherent
superposition of causal orders, post-selects on control measurement outcomes,
and quantifies the resulting fidelity advantage over definite-order use of the
same channels.
"""
import importlib

from .analysis import (
    AdvantageRegions,
    AlphaOutcome,
    OutcomeFamily2,
    OutcomeFamily3,
    SwitchParams,
    advantage_regions,
    alpha_fidelity_profile,
    curve_grid,
    evaluate_fidelity,
    fidelity_polynomials,
    fidelity_profile,
    figure_of_merit,
    k_total,
    k_total_grid,
    l1_coherence,
    merit_grid,
    no_switch_merit,
    optimize_outcome,
    switched_fidelity,
)
from .channels import (
    DepolarizingChannel,
    PauliWeights,
    apply_channel,
    bell_basis,
    isotropic_channel,
    isotropic_weights,
    no_switch_fidelity,
    no_switch_threshold,
    qubit_fidelity,
    weights_from_resource,
    werner_state,
)
from .linalg import normalize_state, partial_trace, projector, tensor_product
from .switch import (
    ControlState,
    DegenerateOutcomeError,
    InvariantError,
    JointState,
    PostSelectionResult,
    closed_form_two,
    control_qubit,
    enumerate_permutations,
    haar_random_state,
    post_select,
    post_selected_polynomials,
    project_outcome,
    switch_n,
    switch_two,
    uniform_control,
)

__version__ = "0.1.0"


def __getattr__(name):
    """CheckResult, run_all and the verification module, imported on first use."""
    if name in ("CheckResult", "run_all", "verification"):
        # import_module, since `from . import` would look the name up here again
        verification = importlib.import_module(f"{__name__}.verification")
        return verification if name == "verification" else getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
