"""Highway Readiness Index toolkit.

Scores highway segments' static infrastructure readiness for assisted
(SAE 1-2) and automated (SAE 3-4) driving, classifies the results,
and packages per-zone recommendations into encodable
infrastructure-to-vehicle messages for roadside-unit dissemination.

``import hri`` loads no submodule: each public name imports its submodule on
first access (PEP 562), so a process loads only the parts it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "_util": ("AutomationLevelGroup", "MacroCategory", "ReadinessClass"),
    "corridor": (
        "CorridorProfile",
        "OverlayOp",
        "RubricEntry",
        "ScenarioOverlay",
        "SegmentObservation",
        "apply_overlay",
        "load_corridor",
        "load_overlay",
        "load_rubric",
        "operationalize",
    ),
    "errors": ("DecodeError", "HriError", "ParseError", "ValidationError"),
    "ivim": (
        "AutomatedVehicleContainer",
        "GeographicLocationContainer",
        "IviStatus",
        "IvimHeader",
        "IvimMessage",
        "ManagementContainer",
        "ZoneRecord",
        "build_ivim",
        "decode",
        "encode",
        "from_canonical_text",
        "to_canonical_text",
    ),
    "scoring": (
        "CorridorAssessment",
        "ReadinessScore",
        "Recommendation",
        "SegmentAssessment",
        "SensitivityConfig",
        "SensitivityScenario",
        "classify",
        "macro_sensitivity",
        "recommend",
        "score_corridor",
        "score_segment",
    ),
    "survey": (
        "DayService",
        "Region",
        "SurveyResponse",
        "aggregate_mean_impact",
        "grouped_mean",
        "impact_difference",
        "load_survey",
    ),
    "taxonomy": (
        "Attribute",
        "WeightTable",
        "builtin_attribute_registry",
        "builtin_weight_table",
        "load_weight_table",
        "macro_weight_table",
        "validate_weight_table",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
