"""Streaming household-level aggregation.

Survey files arrive sorted so that each household's members occupy one
consecutive block of lines. Aggregation exploits that: `aggregate_all`
folds (key, member) rows as they come, from any iterable (the pipeline
feeds it one person at a time), keeps the running totals of the one
household whose block is open, and emits that household's aggregate when
the key changes. It never builds a person-indexed table.

Each member costs one lookup: a per-run table maps the member's profile
(age token, gender token, chief flag) to whether it is an adult, its
Oxford and FAO-OMS weights, and whether its age is the unknown-age code.
A gender token is read only for adults, and only when the FAO-OMS scale
is configured. A profile that fails to parse is never stored, so it fails
again at each occurrence and the first bad token in row order is the one
an error names. Each household composition (adults, children) gets its
DMP value once per run, from a second table.

The fold reads the run's one `PipelineConfig`, which has checked the
scales and the DMP parameters already; which scales, which income and
which dividing scale apply is resolved from it once per run. An error or
warning names the member's input line, and in table mode the table file.

The price of the streaming contract is that a household key must never
reappear after its block ended; when one does the input was not sorted (or
keys alias) and the run aborts with NON_CONSECUTIVE_KEY rather than
silently splitting the household into two output rows.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import HdbError
from .ingest import parse_age, parse_gender
from .model import (
    NO_CHIEF_LABEL,
    AgeEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    Member,
    ScaleKind,
    WarningRecord,
)
from .scales import (
    ADULT_AGE_YEARS,
    ADULT_CLASS,
    WEIGHT_CHILD,
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
# compatibility switch reproduces this where the reference arithmetic
# compared raw tokens numerically without validating them.
_VAL_PREFIX = re.compile(r"^\s*[+-]?(\d+\.?\d*|\.\d+)")


def _coerce_numeric_prefix(token: str) -> float:
    match = _VAL_PREFIX.match(token)
    return float(match.group(0)) if match else 0.0


#: The most entries a per-run token table holds. Survey columns have small
#: vocabularies; past the cap a table stops growing, and a token it does
#: not hold is parsed again at each occurrence.
TOKEN_TABLE_SIZE = 4096


def remember(table: dict, token, value):
    """Store ``value`` under ``token`` while ``table`` holds fewer than
    TOKEN_TABLE_SIZE entries; return ``value``."""
    if len(table) < TOKEN_TABLE_SIZE:
        table[token] = value
    return value


def aggregate_all(
    rows: Iterable[tuple[HouseholdKey, Member]],
    config: PipelineConfig,
    warnings: list[WarningRecord] | None = None,
    *,
    scale_income: bool = False,
) -> Iterator[HouseholdAggregate]:
    """Stream (key, member) rows into one HouseholdAggregate per household,
    in input order, in a single pass, as ``config`` sets it up: its
    encodings, missing-age policy and paper sentinel, its scales, and its
    income mode. The scaled income is computed only under
    ``scale_income``, and only when income is on.

    Per member: strict mode raises BAD_AGE_TOKEN / BAD_GENDER_TOKEN at the
    member's line. Under ``paper_sentinel`` an unparseable token weighs
    0.99 in the Oxford and FAO-OMS sums, and the adult/child counts use the
    token's leading numeric prefix (else 0), as the reference arithmetic
    did. A child's gender token is never read. The area label is the key's
    region token; the chief label is the raw gender token of the last
    member marked chief, or "XXX" when none is.

    Raises NON_CONSECUTIVE_KEY (at the line of the member that brings it
    back) when a key that already closed a household reappears later in
    the stream.
    """
    age_encoding = config.age_encoding
    sentinel = config.paper_sentinel
    threshold = ADULT_AGE_YEARS if age_encoding is AgeEncoding.YEARS else ADULT_CLASS
    kinds = {spec.kind for spec in config.scales}
    with_oxford = ScaleKind.OXFORD in kinds
    with_faofam = ScaleKind.FAOFAM in kinds
    with_income = config.income_mode is not IncomeMode.NONE
    dmp = config.dmp_spec()
    scaled_by = config.scaled_by if scale_income and with_income else None
    source = config.table_source
    # the sum that divides income: an index into (Oxford, FAO-OMS, DMP)
    divide_by = None if scaled_by is None else list(ScaleKind).index(scaled_by)

    def profile(age_token: str, gender_token: str, is_chief: bool) -> tuple:
        """(adult, Oxford weight, FAO-OMS weight, age missing) of a member;
        a weight that is not configured is 0.0."""
        try:
            age = parse_age(age_token, age_encoding, config.missing_age_policy)
        except HdbError:
            if not sentinel:
                raise
            age = None
        adult = not (_coerce_numeric_prefix(age_token) if sentinel else age.value) < threshold
        if age is None:
            return adult, SENTINEL_WEIGHT, SENTINEL_WEIGHT, False
        oxford = oxford_weight(age, age_encoding, is_chief) if with_oxford else 0.0
        faofam = 0.0
        if with_faofam and age.value < threshold:
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

    # (adults, children) -> DMP value
    dmps: dict[tuple[int, int], float] = {}

    def close(key, adults, children, oxford, faofam, income, chief_label, chiefs):
        """The aggregate of the household whose block ends."""
        scale_dmp = None
        if dmp is not None:
            scale_dmp = dmps.get((adults, children))
            if scale_dmp is None:
                scale_dmp = remember(dmps, (adults, children),
                                     dmp_scale(adults, children, dmp.dmp_c, dmp.dmp_s))
        scaled_income = None
        if divide_by is not None:
            divisor = (oxford, faofam, scale_dmp)[divide_by]
            if not divisor > 0:
                raise HdbError("ZERO_SCALE", f"household {key}: {scaled_by.value} scale is "
                               f"{divisor}, cannot scale income")
            scaled_income = income / divisor
        if chiefs > 1 and warnings is not None:
            warnings.append(WarningRecord(
                "MULTIPLE_CHIEFS", f"household {key} marks {chiefs} members as chief"))
        return HouseholdAggregate(
            key, adults + children, adults, children, oxford if with_oxford else None,
            faofam if with_faofam else None, scale_dmp, income if with_income else None,
            scaled_income, key.components[0], chief_label,
        )

    seen: set[str] = set()
    # member profile -> (adult, Oxford, FAO-OMS, age missing); a profile
    # that fails is never stored
    profiles: dict[tuple[str, str, bool], tuple] = {}
    household = canonical = None
    for key, member in rows:
        if key.canonical != canonical:
            canonical = key.canonical
            if canonical in seen:
                raise HdbError("NON_CONSECUTIVE_KEY", f"household {canonical!r} reappears "
                               "after a different household; input is not grouped (use an "
                               "explicit sort)", source=source, line=member.line)
            seen.add(canonical)
            if household is not None:
                yield close(household, adults, children, oxford, faofam, income,
                            chief_label, chiefs)
            household = key
            adults = children = chiefs = 0
            oxford = faofam = income = 0.0
            chief_label = NO_CHIEF_LABEL

        line, age_token, gender_token, is_chief, amount = member
        traits = (age_token, gender_token, is_chief)
        weights = profiles.get(traits)
        if weights is None:
            try:
                weights = remember(profiles, traits, profile(*traits))
            except HdbError as exc:
                raise exc.at(source=source, line=line)
        adult, weight_oxford, weight_faofam, missing = weights
        if missing and warnings is not None:
            warnings.append(WarningRecord(
                "AGE_MISSING", f"unknown-age code {age_token!r} treated as adult", line, source))
        if adult:
            adults += 1
        else:
            children += 1
        oxford += weight_oxford
        faofam += weight_faofam
        if with_income:
            if amount is None:
                raise HdbError("MISSING_INCOME", "member has no income amount", source=source,
                               line=line)
            income += amount
        if is_chief:
            chief_label = gender_token
            chiefs += 1

    if household is not None:
        yield close(household, adults, children, oxford, faofam, income, chief_label, chiefs)
