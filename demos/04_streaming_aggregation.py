"""Streaming household aggregation.

Survey files keep each household's members on consecutive lines. The
aggregator exploits that ordering: it walks the person stream once, keeps
one accumulator for the household whose block is open, folds each member
into it once, and emits the household when the key changes. A household
key reappearing after its block closed means the file was not sorted, and
the run stops with NON_CONSECUTIVE_KEY instead of silently emitting two
half-households.
"""

from hdbprep import (
    AgeEncoding,
    GenderEncoding,
    HdbError,
    IncomeMode,
    PipelineConfig,
    ScaleKind,
    aggregate_all,
    make_household_key,
)


def person(line, household, age, gender, chief=False, income=0.0):
    # one flat row per person, as the pipeline feeds the fold: the key, the
    # input line, the raw age, gender and poswrchief tokens (1 marks the
    # chief), and the income amount
    key = make_household_key("1", "1", "2", household)
    return key, line, str(age), gender, "1" if chief else "2", income


rows = [
    person(1, "1", 34, "1", chief=True, income=125000.0),
    person(2, "1", 30, "2", income=39500.0),
    person(3, "1", 10, "1", income=14500.0),
    person(4, "2", 61, "2", chief=True, income=75000.0),
    person(5, "3", 44, "1", income=175000.0),  # nobody marked chief here
]

# the one run configuration; the fold reads its encodings, its enabled
# scales with the DMP parameters, and its income mode, and scale_income
# asks for the Oxford-scaled income
config = PipelineConfig(
    age_encoding=AgeEncoding.YEARS,
    gender_encoding=GenderEncoding.MALE1_FEMALE2,
    income_mode=IncomeMode.NUMERIC,
    scales={ScaleKind.OXFORD, ScaleKind.FAOFAM, ScaleKind.DMP},
    dmp_c=0.5,
    dmp_s=0.7,
    scaled_by=ScaleKind.OXFORD,
)

warnings = []
print("aggregates:")
for agg in aggregate_all(rows, config, warnings, scale_income=True):
    print(f"  {agg.key.canonical}  area={agg.label_area}  size={agg.size}"
          f"  adults={agg.n_adults}  oxford={agg.scale_oxford:.2f}  income={agg.total_income:.0f}"
          f"  per-adult={agg.scaled_income:.0f}  chief={agg.label_chief_gender}")
for w in warnings:
    print("  warning:", w)

# the chief label of the third household is the XXX review marker

unsorted_rows = [rows[0], rows[3], rows[1]]  # household 1 resumes after 2
try:
    list(aggregate_all(unsorted_rows, config))
except HdbError as exc:
    print("unsorted input ->", exc)
