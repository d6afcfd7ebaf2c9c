"""Member-token parsing and streaming household-level aggregation.

Survey files arrive sorted so that each household's members occupy one
consecutive block of lines. Aggregation exploits that: `aggregate_all`
folds one flat row per person as it comes (the pipeline feeds it one person
at a time), one run of equal keys at a time. A run's totals are locals of
the loop, and its household's aggregate is emitted after its last member.
It never builds a person-indexed table. Under the config's ``sort`` a
household's members may lie anywhere: each is folded as it arrives into its
household's small state, never kept, and the households come out at the end
in canonical-key order.

The fold owns every member-token rule. Each member costs one lookup: a
per-run `TokenTable` maps the member's profile (age token, gender token,
chief flag: whether its poswrchief token is ``1``), read by `parse_age` and
`parse_gender`, to whether it is an adult, its Oxford and FAO-OMS weights,
and whether its age is the unknown-age code. A gender token is read only
for adults, and only when the FAO-OMS scale is configured. A profile that
fails to parse is never stored, so it fails again at each occurrence and
the first bad token in row order is the one an error names. A second table
holds each household composition's DMP value.

The fold reads the run's one `PipelineConfig`, which has checked the
scales and the DMP parameters already; which scales, which income and
which dividing scale apply is resolved from it once per run. An error or
warning names the member's input line (a household's error the line of
its first member), and in table mode the table file. A member's error or
warning comes as it is folded, a household's when it closes.

The price of the streaming contract is that a household key must never
reappear after its block ended; when one does the input was not sorted (or
keys alias) and the run aborts with NON_CONSECUTIVE_KEY rather than
silently splitting the household into two output rows.
"""

from __future__ import annotations

import math
import re
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .errors import HdbError
from .model import (
    NO_CHIEF_LABEL,
    UNKNOWN_AGE_YEARS,
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
)
from .scales import (
    WEIGHT_CHILD,
    _ADULT_THRESHOLD,
    dmp_scale,
    faofam_weight,
    oxford_weight,
)

if TYPE_CHECKING:
    from .pipeline import PipelineConfig

#: Weight the reference implementation emitted for an unparseable member
#: token instead of failing; only used under the compatibility switch.
SENTINEL_WEIGHT = 0.99

# Leading-numeric-prefix coercion ("25ans" -> 25.0, "abc" -> 0.0). The
# compatibility switch counts an age token that does not parse this way,
# as the reference arithmetic compared raw tokens without validating them.
_VAL_PREFIX = re.compile(r"^\s*[+-]?(\d+\.?\d*|\.\d+)")


def _coerce_numeric_prefix(token: str) -> float:
    match = _VAL_PREFIX.match(token)
    return float(match.group(0)) if match else 0.0


def parse_age(
    raw: str,
    encoding: AgeEncoding,
    policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT,
) -> Age:
    """Parse an age token under the given encoding.

    Years may be fractional (infant ages below 1 are real data) but must be
    finite and non-negative. Class indices must be integers >= 1. Neither
    may hold ``_``, which Python reads between digits (``1_5`` as 15).
    Under the strict policy the reserved unknown-age code 99 (years only)
    yields an Age flagged missing rather than an error.
    """
    token = raw.strip()
    if encoding is AgeEncoding.YEARS:
        try:
            value = float(token)
        except ValueError:
            value = float("nan")
        if 0 <= value < float("inf") and "_" not in token:  # junk, as NaN, fails both bounds
            missing = policy is MissingAgePolicy.STRICT and value == UNKNOWN_AGE_YEARS
            return Age(value, missing=missing)
    else:
        try:
            index = int(token)
        except ValueError:
            index = 0
        if index >= 1 and "_" not in token:
            return Age(float(index))
    raise HdbError("BAD_AGE_TOKEN", f"cannot read {token!r} as an age")


_GENDER_TOKENS = {
    GenderEncoding.MALE0_FEMALE1: {"0": Gender.MALE, "1": Gender.FEMALE},
    GenderEncoding.MALE1_FEMALE2: {"1": Gender.MALE, "2": Gender.FEMALE},
}


def parse_gender(raw: str, encoding: GenderEncoding) -> Gender:
    """Parse a gender token; only the two exact tokens of the declared
    encoding are accepted."""
    token = raw.strip()
    gender = _GENDER_TOKENS[encoding].get(token)
    if gender is None:
        raise HdbError("BAD_GENDER_TOKEN",
                       f"gender code {token!r} is not valid under encoding {encoding.name}")
    return gender


#: The most entries a per-run token table holds. Survey columns have small
#: vocabularies; past the cap a table stops growing, and a token it does
#: not hold is parsed again at each occurrence.
TOKEN_TABLE_SIZE = 4096


class TokenTable(dict):
    """A per-run table of the value of each token: a token it does not
    hold is computed by ``compute`` and stored while the table holds fewer
    than TOKEN_TABLE_SIZE entries. A computation that raises stores
    nothing."""

    __slots__ = ("compute",)

    def __init__(self, compute: Callable):
        super().__init__()
        self.compute = compute

    def __missing__(self, token):
        value = self.compute(token)
        if len(self) < TOKEN_TABLE_SIZE:
            self[token] = value
        return value


def aggregate_all(
    rows: Iterable[tuple[HouseholdKey, int, str, str, str, float | None]],
    config: PipelineConfig,
    warnings: list[HdbError] | None = None,
    *,
    scale_income: bool = False,
) -> Iterator[HouseholdAggregate]:
    """Stream flat person rows, each (key, line, age token, gender token,
    poswrchief token, income), into one HouseholdAggregate per household,
    in input order, in a single pass. ``line`` is the person's 1-based
    input line, which its errors and warnings name; ``income`` is the
    amount after any letter recoding, or None without income. A household
    is a run of rows with equal keys (equal canonical text: a fresh key
    object per row still groups). The fold runs as ``config`` sets it up:
    its encodings, missing-age policy and paper sentinel, its scales, and
    its income mode; the scaled income only under ``scale_income``, and
    only when income is on.

    Per member: strict mode raises BAD_AGE_TOKEN / BAD_GENDER_TOKEN at the
    member's line. Under ``paper_sentinel`` an unparseable token weighs 0.99 in
    the Oxford and FAO-OMS sums, and an age token that does not parse is
    counted by its leading numeric prefix (else 0), as the reference arithmetic
    did; an age that parses is counted by its value, the one its weights use. A
    child's gender token is never read. A member is the chief when its
    poswrchief token is exactly ``1``. The area label is the key's region
    token, the chief label the last chief's raw gender token or "XXX".

    The fold raises the first error it meets. A member's BAD_AGE_TOKEN,
    BAD_GENDER_TOKEN or MISSING_INCOME is raised, and its AGE_MISSING warning
    appended to ``warnings`` (as HdbErrors; a warning that a log with a
    ``wants`` method, such as `pipeline.WarningLog`, would not keep is only
    counted there, never built), at its line as it is folded;
    NON_CONSECUTIVE_KEY at the first line of a run whose key already closed a
    household. A household closes when the next run's first row arrives, or
    under ``config.sort`` in canonical-key order once the rows are spent; then
    its ZERO_SCALE (a dividing scale that is not positive) or INCOME_OVERFLOW
    (an income total or scaled income that is not finite) is raised, naming its
    first line, or its MULTIPLE_CHIEFS warning appended. Sorted, the rows need
    not be grouped: each output comes as from the rows sorted stably by key.
    """
    age_encoding = config.age_encoding
    sentinel = config.paper_sentinel
    threshold = _ADULT_THRESHOLD[age_encoding]
    with_oxford = ScaleKind.OXFORD in config.scales
    with_faofam = ScaleKind.FAOFAM in config.scales
    with_dmp = ScaleKind.DMP in config.scales
    with_income = config.income_mode is not IncomeMode.NONE
    scaled_by = config.scaled_by if scale_income and with_income else None
    source = config.table_source
    # the sum that divides income: an index into (Oxford, FAO-OMS, DMP)
    divide_by = None if scaled_by is None else list(ScaleKind).index(scaled_by)

    def profile(traits: tuple[str, str, bool]) -> tuple:
        """(adult, Oxford weight, FAO-OMS weight, age missing) of a member's
        (age token, gender token, chief flag); a weight that is not
        configured is 0.0."""
        age_token, gender_token, is_chief = traits
        try:
            age = parse_age(age_token, age_encoding, config.missing_age_policy)
        except HdbError:
            if not sentinel:
                raise
            adult = not _coerce_numeric_prefix(age_token) < threshold
            return adult, SENTINEL_WEIGHT, SENTINEL_WEIGHT, False
        adult = not age.value < threshold
        oxford = oxford_weight(age, age_encoding, is_chief) if with_oxford else 0.0
        faofam = 0.0
        if with_faofam and not adult:
            faofam = WEIGHT_CHILD
        elif with_faofam:
            try:
                gender = parse_gender(gender_token, config.gender_encoding)
            except HdbError:
                if not sentinel:
                    raise
                faofam = SENTINEL_WEIGHT
            else:
                faofam = faofam_weight(age, age_encoding, gender)
        return adult, oxford, faofam, age.missing

    # whether to build a warning of a code: a log that caps them (see
    # pipeline.WarningLog) counts those past its cap unbuilt
    wants = getattr(warnings, "wants", lambda code: warnings is not None)

    # member profile -> (adult, Oxford, FAO-OMS, age missing)
    profiles = TokenTable(profile)
    # (adults, children) -> DMP value
    dmps = TokenTable(lambda composition: dmp_scale(*composition, config.dmp_c, config.dmp_s))

    def close(key, first_line, adults, children, chiefs, oxford, faofam, income,
              chief_label) -> HouseholdAggregate:
        """A household's aggregate; its own errors name its first line."""
        scale_dmp = dmps[adults, children] if with_dmp else None
        if with_income and not math.isfinite(income):
            raise HdbError("INCOME_OVERFLOW", f"household {key}: income total overflows "
                           f"to {income}", source=source, line=first_line)
        scaled_income = None
        if divide_by is not None:
            divisor = (oxford, faofam, scale_dmp)[divide_by]
            if not divisor > 0:
                raise HdbError("ZERO_SCALE", f"household {key}: {scaled_by.value} scale is "
                               f"{divisor}, cannot scale income", source=source, line=first_line)
            scaled_income = income / divisor
            if not math.isfinite(scaled_income):
                raise HdbError("INCOME_OVERFLOW", f"household {key}: income {income} "
                               f"divided by its {scaled_by.value} scale {divisor} overflows",
                               source=source, line=first_line)
        if chiefs > 1 and wants("MULTIPLE_CHIEFS"):
            warnings.append(HdbError(
                "MULTIPLE_CHIEFS", f"household {key} marks {chiefs} members as chief"))
        return HouseholdAggregate(
            key, adults + children, adults, children, oxford if with_oxford else None,
            faofam if with_faofam else None, scale_dmp, income if with_income else None,
            scaled_income, key.components[0], chief_label,
        )

    # a household's state: [key, first line, adults, children, chiefs, Oxford,
    # FAO-OMS and income sums, chief label], in locals while current; under
    # sort ``opened`` holds all, swapped on any new key
    sort, opened, seen, key = config.sort, {}, set(), None
    for row_key, line, age_token, gender_token, chief_token, amount in rows:
        if row_key is not key and (sort or row_key != key):
            if key is not None:
                state[1:] = (first_line, adults, children, chiefs, oxford, faofam, income,
                             chief_label)
                if not sort:
                    yield close(*state)
            key = row_key
            state = opened.get(key.canonical)
            if state is None:
                if key.canonical in seen:
                    raise HdbError("NON_CONSECUTIVE_KEY", f"household {key.canonical!r} "
                                   "reappears after a different household; input is not "
                                   "grouped (use an explicit sort)", source=source, line=line)
                state = [key, line, 0, 0, 0, 0.0, 0.0, 0.0, NO_CHIEF_LABEL]
                if sort:
                    opened[key.canonical] = state
                else:
                    seen.add(key.canonical)
            _, first_line, adults, children, chiefs, oxford, faofam, income, chief_label = state
        is_chief = chief_token == "1"
        try:
            adult, weight_oxford, weight_faofam, missing = profiles[
                age_token, gender_token, is_chief]
        except HdbError as exc:
            raise exc.at(source=source, line=line)
        if missing and wants("AGE_MISSING"):
            warnings.append(HdbError("AGE_MISSING", f"unknown-age code {age_token!r} "
                                     "treated as adult", source=source, line=line))
        if adult:
            adults += 1
        else:
            children += 1
        oxford += weight_oxford
        faofam += weight_faofam
        if with_income:
            if amount is None:
                raise HdbError("MISSING_INCOME", "member has no income amount",
                               source=source, line=line)
            income += amount
        if is_chief:
            chief_label = gender_token
            chiefs += 1
    if key is not None:
        state[1:] = (first_line, adults, children, chiefs, oxford, faofam, income, chief_label)
        opened[key.canonical] = state
    for canonical in sorted(opened):
        yield close(*opened.pop(canonical))
