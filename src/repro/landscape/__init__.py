"""§6–§7 analytics: survey series, accuracy scoring."""

from repro.landscape.accuracy import (
    ConfusionMatrix,
    score_crush_storage,
    score_proxion_function,
    score_proxion_storage,
    score_uschunt_function,
    score_uschunt_storage,
    table2,
)
from repro.landscape.merge import merge_reports
from repro.landscape.serialize import (
    analysis_to_dict,
    dict_to_analysis,
    dict_to_failure,
    failure_to_dict,
    report_to_dict,
    report_to_json,
)
from repro.landscape.survey import (
    CollisionsByYear,
    DuplicateCensus,
    UpgradeCensus,
    figure2_accumulated_contracts,
    figure4_pair_availability,
    figure5_duplicates,
    figure6_upgrades,
    quadrant_of,
    table3_collisions_by_year,
    table4_standards,
)

__all__ = [
    "CollisionsByYear",
    "analysis_to_dict",
    "dict_to_analysis",
    "dict_to_failure",
    "failure_to_dict",
    "merge_reports",
    "report_to_dict",
    "report_to_json",
    "ConfusionMatrix",
    "DuplicateCensus",
    "UpgradeCensus",
    "figure2_accumulated_contracts",
    "figure4_pair_availability",
    "figure5_duplicates",
    "figure6_upgrades",
    "quadrant_of",
    "score_crush_storage",
    "score_proxion_function",
    "score_proxion_storage",
    "score_uschunt_function",
    "score_uschunt_storage",
    "table2",
    "table3_collisions_by_year",
    "table4_standards",
]
