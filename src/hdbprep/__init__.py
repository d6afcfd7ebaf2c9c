"""Household survey microdata preparation.

Person-level survey exports (one token per line per variable, or one
delimited table) go in; consistent household-level files come out:
canonical household identifiers, adult-equivalence scales (Oxford, FAO-OMS,
DMP), recoded and totalled incomes, household sizes and labels, all
computed in one streaming pass over consecutively grouped households.
"""

from .aggregate import AggregationSettings, aggregate_all
from .errors import ConfigError, DataError, HdbError
from .identity import (
    DEFAULT_SCHEME,
    PrefixScheme,
    make_household_key,
    parse_household_key,
)
from .ingest import (
    ColumnSource,
    TableSource,
    Variable,
    parse_age,
    parse_gender,
    read_column_file,
    read_column_sources,
    read_table,
    zip_columns,
)
from .model import (
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    Member,
    MissingAgePolicy,
    PersonRecord,
    ScaleKind,
    ScaleSpec,
    WarningRecord,
    validate_weight_domain,
)
from .pipeline import (
    PipelineConfig,
    RunReport,
    format_number,
    load_config,
    run_aggregate,
    run_identify,
    run_pipeline,
    run_recode,
    write_household_table,
)
from .recode import (
    IncomeRangeMap,
    elim1_default_map,
    income_from_letter,
)
from .scales import (
    classify_adult,
    dmp_scale,
    faofam_weight,
    oxford_weight,
)
from .synth import (
    SynthParams,
    SynthResult,
    generate,
    oracle_aggregate,
    write_column_files,
    write_table,
)

__version__ = "0.1.0"

__all__ = [
    "Age",
    "AgeEncoding",
    "AggregationSettings",
    "ColumnSource",
    "ConfigError",
    "DEFAULT_SCHEME",
    "DataError",
    "Gender",
    "GenderEncoding",
    "HdbError",
    "HouseholdAggregate",
    "HouseholdKey",
    "IncomeMode",
    "IncomeRangeMap",
    "Member",
    "MissingAgePolicy",
    "PersonRecord",
    "PipelineConfig",
    "PrefixScheme",
    "RunReport",
    "ScaleKind",
    "ScaleSpec",
    "SynthParams",
    "SynthResult",
    "TableSource",
    "Variable",
    "WarningRecord",
    "aggregate_all",
    "classify_adult",
    "dmp_scale",
    "elim1_default_map",
    "faofam_weight",
    "format_number",
    "generate",
    "income_from_letter",
    "load_config",
    "make_household_key",
    "oracle_aggregate",
    "oxford_weight",
    "parse_age",
    "parse_gender",
    "parse_household_key",
    "read_column_file",
    "read_column_sources",
    "read_table",
    "run_aggregate",
    "run_identify",
    "run_pipeline",
    "run_recode",
    "validate_weight_domain",
    "write_column_files",
    "write_household_table",
    "write_table",
    "zip_columns",
]
