"""Revealed-preference rationality testing for consumer expenditure data.

Test datasets for (efficiency-relaxed) consistency with utility
maximisation, compute the critical cost efficiency index exactly, recover an
explicit utility function from the Afriat inequalities, and verify the
rationalization/cost-rationalization duality by sampling.

The names below are imported from their modules on first use (PEP 562), so
importing the package, or one of its modules, loads only what that needs.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "afriat": "AfriatSolution evaluate_utility evaluate_utility_batch solve_afriat worst_residual",
    "ccei": "CceiResult ccei_binary_search ccei_exact",
    "datagen": "GeneratorSpec drawn_markets generate waste_floor",
    "duality": "VerificationReport check_duality_garp verify_cost_rationalization"
               " verify_rationalization",
    "errors": "AfriatInfeasibleError AfriatVerificationError DimensionMismatchError GarpkitError"
              " InfeasibleWasteError InvalidToleranceError LengthMismatchError NegativeBundleError"
              " NonpositivePriceError ParseError ShapeMismatchError TooLargeError ZeroBundleError",
    "model": "CrossMatrix Dataset EfficiencyVector coerce_efficiency cross_expenditures"
             " validate_dataset",
    "revpref": "CycleWitness GarpVerdict RevealedRelation check_e_garp direct_relations"
               " validate_witness",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    # An unknown name raises AttributeError, so that ``from garpkit import
    # cli`` falls back to importing the submodule.
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted(set(globals()) | _HOME.keys())
