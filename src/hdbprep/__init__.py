"""Household survey microdata preparation.

Person-level survey exports (one token per line per variable, or one
delimited table) go in; consistent household-level files come out:
canonical household identifiers, adult-equivalence scales (Oxford, FAO-OMS,
DMP), recoded and totalled incomes, household sizes and labels, all
computed in one streaming pass over consecutively grouped households.

The names below are the surface the command line, the demos and the README
use; everything else, the synthetic generator in `hdbprep.synth` included,
is imported from its module.
"""

from .aggregate import aggregate_all
from .errors import HdbError
from .identity import (
    DEFAULT_SCHEME,
    PrefixScheme,
    make_household_key,
    parse_household_key,
)
from .model import (
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    IncomeMode,
    Member,
    ScaleKind,
)
from .pipeline import (
    PipelineConfig,
    load_config,
    run_identify,
    run_pipeline,
)
from .recode import (
    IncomeRangeMap,
    elim1_default_map,
    income_from_letter,
)
from .scales import (
    dmp_scale,
    faofam_weight,
    oxford_weight,
)

__version__ = "0.1.0"

__all__ = [
    "Age",
    "AgeEncoding",
    "DEFAULT_SCHEME",
    "Gender",
    "GenderEncoding",
    "HdbError",
    "IncomeMode",
    "IncomeRangeMap",
    "Member",
    "PipelineConfig",
    "PrefixScheme",
    "ScaleKind",
    "aggregate_all",
    "dmp_scale",
    "elim1_default_map",
    "faofam_weight",
    "income_from_letter",
    "load_config",
    "make_household_key",
    "oxford_weight",
    "parse_household_key",
    "run_identify",
    "run_pipeline",
]
