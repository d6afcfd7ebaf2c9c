"""Streaming household-level aggregation.

Survey files arrive sorted so that each household's members occupy one
consecutive block of lines. Aggregation exploits that: `aggregate_all`
walks the (key, member) rows once, keeps a single accumulator for the
household whose block is open, and emits that household's aggregate when
the key changes. It never builds a person-indexed table. Each member is
folded once, and each distinct token is parsed once per run: per-run
tables map an age token to its Age, (age token, chief flag) to the Oxford
weight and (age token, gender token) to the FAO-OMS weight. A gender token
is read only for adults, and only when the FAO-OMS scale is configured.
A token that fails to parse is never stored, so it fails again at each
occurrence and the first bad token in row order is the one an error names.

The price of the streaming contract is that a household key must never
reappear after its block ended; when one does the input was not sorted (or
keys alias) and the run aborts with NON_CONSECUTIVE_KEY rather than
silently splitting the household into two output rows.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import HdbError, MissingIncomeError, NonConsecutiveKeyError, ZeroScaleError
from .ingest import parse_age, parse_gender
from .model import (
    NO_CHIEF_LABEL,
    Age,
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    Member,
    MissingAgePolicy,
    ScaleKind,
    ScaleSpec,
    WarningRecord,
    validate_weight_domain,
)
from .scales import (
    ADULT_AGE_YEARS,
    ADULT_CLASS,
    WEIGHT_CHILD,
    dmp_scale,
    faofam_weight,
    oxford_weight,
)

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


@dataclass(frozen=True)
class AggregationSettings:
    """Everything one aggregation pass needs to know.

    ``scales`` lists the scales to compute; ``scaled_by`` picks which of
    them divides total income (requires ``income_enabled``).
    """

    age_encoding: AgeEncoding
    gender_encoding: GenderEncoding
    scales: tuple[ScaleSpec, ...] = ()
    income_enabled: bool = False
    scaled_by: ScaleKind | None = None
    paper_sentinel: bool = False
    missing_age_policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT

    def __post_init__(self):
        kinds = []
        for spec in self.scales:
            validate_weight_domain(spec)
            kinds.append(spec.kind)
        if len(set(kinds)) != len(kinds):
            raise ValueError("each scale kind may be configured at most once")
        if self.scaled_by is not None:
            if not self.income_enabled:
                raise ValueError("scaled_by requires income_enabled")
            if self.scaled_by not in kinds:
                raise ValueError(f"scaled_by {self.scaled_by.value} is not a configured scale")

    def spec_for(self, kind: ScaleKind) -> ScaleSpec | None:
        for spec in self.scales:
            if spec.kind is kind:
                return spec
        return None


class _Household:
    """The running totals of the household whose block is open. The first
    member seeds the Oxford, FAO-OMS and income sums and the rest add in
    member order; a sum that is not configured stays None."""

    __slots__ = ("key", "size", "adults", "children", "oxford", "faofam",
                 "income", "chief_label", "chiefs")

    def __init__(self, key: HouseholdKey):
        self.key = key
        self.size = self.adults = self.children = self.chiefs = 0
        self.oxford = self.faofam = self.income = None
        self.chief_label = NO_CHIEF_LABEL

    def finish(
        self, settings: AggregationSettings, warnings: list[WarningRecord] | None
    ) -> HouseholdAggregate:
        """Close the block: DMP, the scaled income, MULTIPLE_CHIEFS."""
        dmp = settings.spec_for(ScaleKind.DMP)
        scale_dmp = (
            dmp_scale(self.adults, self.children, dmp.dmp_c, dmp.dmp_s)
            if dmp is not None else None
        )
        scaled_income = None
        if settings.scaled_by is not None:
            divisor = {ScaleKind.OXFORD: self.oxford, ScaleKind.FAOFAM: self.faofam,
                       ScaleKind.DMP: scale_dmp}[settings.scaled_by]
            if not divisor > 0:
                raise ZeroScaleError(
                    f"household {self.key}: {settings.scaled_by.value} scale is "
                    f"{divisor}, cannot scale income"
                )
            scaled_income = self.income / divisor
        if self.chiefs > 1 and warnings is not None:
            warnings.append(
                WarningRecord(
                    "MULTIPLE_CHIEFS",
                    f"household {self.key} marks {self.chiefs} members as chief",
                )
            )
        return HouseholdAggregate(
            key=self.key,
            size=self.size,
            n_adults=self.adults,
            n_children=self.children,
            scale_oxford=self.oxford,
            scale_faofam=self.faofam,
            scale_dmp=scale_dmp,
            total_income=self.income,
            label_area=self.key.components[0],
            label_chief_gender=self.chief_label,
            scaled_income=scaled_income,
        )


def aggregate_all(
    rows: Iterable[tuple[HouseholdKey, Member]],
    settings: AggregationSettings,
    warnings: list[WarningRecord] | None = None,
) -> Iterator[HouseholdAggregate]:
    """Stream (key, member) rows into one HouseholdAggregate per household,
    in input order, in a single pass.

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
    age_encoding = settings.age_encoding
    policy = settings.missing_age_policy
    sentinel = settings.paper_sentinel
    threshold = ADULT_AGE_YEARS if age_encoding is AgeEncoding.YEARS else ADULT_CLASS
    with_oxford = settings.spec_for(ScaleKind.OXFORD) is not None
    with_faofam = settings.spec_for(ScaleKind.FAOFAM) is not None
    seen: set[str] = set()
    household: _Household | None = None
    # per-run token tables; a parse that fails is never stored
    ages: dict[str, Age] = {}
    oxfords: dict[tuple[str, bool], float] = {}
    faofams: dict[tuple[str, str], float] = {}

    for key, member in rows:
        if household is None or key.canonical != household.key.canonical:
            if key.canonical in seen:
                raise NonConsecutiveKeyError(key.canonical, line=member.line)
            seen.add(key.canonical)
            if household is not None:
                yield household.finish(settings, warnings)
            household = _Household(key)

        token = member.age_raw
        age = ages.get(token)
        if age is None:
            try:
                age = remember(ages, token, parse_age(token, age_encoding, policy))
            except HdbError as exc:
                if not sentinel:
                    raise exc.at(line=member.line)
        if age is not None and age.missing and warnings is not None:
            warnings.append(
                WarningRecord(
                    "AGE_MISSING",
                    f"unknown-age code {token!r} treated as adult",
                    member.line,
                )
            )
        value = _coerce_numeric_prefix(token) if sentinel else age.value
        if value < threshold:
            household.children += 1
        else:
            household.adults += 1

        oxford = faofam = income = None
        if with_oxford:
            if age is None:
                oxford = SENTINEL_WEIGHT
            else:
                pair = (token, member.is_chief)
                oxford = oxfords.get(pair)
                if oxford is None:
                    oxford = remember(
                        oxfords, pair, oxford_weight(age, age_encoding, member.is_chief)
                    )
        if with_faofam:
            if age is None:
                faofam = SENTINEL_WEIGHT
            else:
                pair = (token, member.gender_raw)
                faofam = faofams.get(pair)
                if faofam is None and age.value < threshold:
                    faofam = remember(faofams, pair, WEIGHT_CHILD)
                elif faofam is None:
                    try:
                        gender = parse_gender(member.gender_raw, settings.gender_encoding)
                    except HdbError as exc:
                        if not sentinel:
                            raise exc.at(line=member.line)
                        faofam = SENTINEL_WEIGHT
                    else:
                        faofam = remember(
                            faofams, pair, faofam_weight(age, age_encoding, gender)
                        )
        if settings.income_enabled:
            income = member.income
            if income is None:
                raise MissingIncomeError("member has no income amount").at(line=member.line)

        household.size += 1
        if household.size == 1:
            household.oxford, household.faofam, household.income = oxford, faofam, income
        else:
            if with_oxford:
                household.oxford += oxford
            if with_faofam:
                household.faofam += faofam
            if income is not None:
                household.income += income
        if member.is_chief:
            household.chief_label = member.gender_raw
            household.chiefs += 1

    if household is not None:
        yield household.finish(settings, warnings)
