"""Domain types shared by every stage of the toolkit.

Raw survey tokens stay strings until a stage explicitly parses them; strata
codes in particular are never interpreted as numbers, because real exports
mix zero-padded and alphanumeric codes. All types are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import NamedTuple

from .errors import BadEncodingError, DmpParamOutOfRangeError

#: Age value reserved by some surveys for "age unknown" (years encoding only).
UNKNOWN_AGE_YEARS = 99.0

#: Label exported for a household in which no member is marked as chief.
NO_CHIEF_LABEL = "XXX"


class AgeEncoding(Enum):
    """How the raw age tokens are coded: real ages in years (possibly
    fractional for infants), or indices of five-year age classes."""

    YEARS = 1
    FIVE_YEAR_CLASSES = 2

    @classmethod
    def from_config(cls, token: str) -> "AgeEncoding":
        t = token.strip().lower()
        if t in ("1", "years"):
            return cls.YEARS
        if t in ("2", "five_year_classes", "classes"):
            return cls.FIVE_YEAR_CLASSES
        raise BadEncodingError(f"unknown age encoding {token!r} (use 1/years or 2/five_year_classes)")


class GenderEncoding(Enum):
    """How the raw gender tokens are coded: male/female as 0/1 or as 1/2."""

    MALE0_FEMALE1 = 1
    MALE1_FEMALE2 = 2

    @classmethod
    def from_config(cls, token: str) -> "GenderEncoding":
        t = token.strip().lower()
        if t in ("1", "male0_female1"):
            return cls.MALE0_FEMALE1
        if t in ("2", "male1_female2"):
            return cls.MALE1_FEMALE2
        raise BadEncodingError(f"unknown gender encoding {token!r} (use 1/male0_female1 or 2/male1_female2)")


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"


class MissingAgePolicy(Enum):
    """What to do with the reserved unknown-age code 99 under YEARS.

    PAPER_COMPAT treats it as an ordinary (adult) age, which is what the
    plain arithmetic does anyway. STRICT flags the person as missing-age and
    emits a warning; the person still contributes adult weight.
    """

    PAPER_COMPAT = "paper-compat"
    STRICT = "strict"

    @classmethod
    def from_config(cls, token: str) -> "MissingAgePolicy":
        t = token.strip().lower().replace("_", "-")
        for member in cls:
            if member.value == t:
                return member
        raise BadEncodingError(f"unknown missing-age policy {token!r}")


class IncomeMode(Enum):
    """Whether person income is absent, a numeric column, or letter-coded
    income ranges that need recoding first."""

    NONE = "none"
    NUMERIC = "numeric"
    LETTERS = "letters"

    @classmethod
    def from_config(cls, token: str) -> "IncomeMode":
        t = token.strip().lower()
        for member in cls:
            if member.value == t:
                return member
        raise BadEncodingError(f"unknown income mode {token!r}")


class ScaleKind(Enum):
    OXFORD = "oxford"
    FAOFAM = "faofam"
    DMP = "dmp"

    @classmethod
    def from_config(cls, token: str) -> "ScaleKind":
        t = token.strip().lower()
        for member in cls:
            if member.value == t:
                return member
        raise BadEncodingError(f"unknown scale {token!r}")


@dataclass(frozen=True)
class Age:
    """A parsed age: years (possibly fractional) or a five-year class index.

    ``missing`` is set only under the strict missing-age policy when the
    reserved unknown-age code was read.
    """

    value: float
    missing: bool = False

    def __post_init__(self):
        if self.value < 0:
            raise ValueError(f"age value must be >= 0, got {self.value}")


@dataclass(frozen=True)
class HouseholdKey:
    """Canonical household identifier plus its strata components.

    Equality and hashing use the canonical string only; under a fixed prefix
    scheme that coincides with component-tuple equality.
    """

    canonical: str
    components: tuple[str, str, str, str] = field(compare=False)

    def __str__(self) -> str:
        return self.canonical


@dataclass(frozen=True)
class ScaleSpec:
    """Which equivalence scale to compute; DMP carries its two parameters."""

    kind: ScaleKind
    dmp_c: float | None = None
    dmp_s: float | None = None


def validate_weight_domain(spec: ScaleSpec) -> None:
    """Check a scale specification; raises DMP_PARAM_OUT_OF_RANGE when the
    DMP parameters are absent or outside [0, 1]. Parameter-free scales
    always pass."""
    if spec.kind is not ScaleKind.DMP:
        return
    for name, value in (("c", spec.dmp_c), ("s", spec.dmp_s)):
        if value is None:
            raise DmpParamOutOfRangeError(f"DMP parameter {name} is not set")
        if not 0.0 <= value <= 1.0:
            raise DmpParamOutOfRangeError(f"DMP parameter {name}={value} outside [0, 1]")


class Member(NamedTuple):
    """One parsed household member as the aggregation stage sees it; a
    named tuple, because the pass builds one per person.

    ``line`` is the person's 1-based line in its input file, used to locate
    errors and warnings. ``income`` is the numeric amount after any letter
    recoding, or None when income is not configured. ``gender_raw`` is the
    raw gender token; the chief's is exported verbatim as the household's
    chief-gender label.
    """

    line: int
    age_raw: str
    gender_raw: str
    is_chief: bool
    income: float | None = None


@dataclass(frozen=True)
class HouseholdAggregate:
    """Per-household outputs of one aggregation pass.

    Scale and income fields are None when the corresponding computation was
    not configured. ``size == n_adults + n_children`` always holds. The
    field order is the column order of households.csv.
    """

    key: HouseholdKey
    size: int
    n_adults: int
    n_children: int
    scale_oxford: float | None
    scale_faofam: float | None
    scale_dmp: float | None
    total_income: float | None
    scaled_income: float | None
    label_area: str
    label_chief_gender: str

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("household size must be >= 1")
        if self.n_adults < 0 or self.n_children < 0:
            raise ValueError("member counts must be >= 0")
        if self.n_adults + self.n_children != self.size:
            raise ValueError(
                f"size {self.size} != adults {self.n_adults} + children {self.n_children}"
            )


@dataclass(frozen=True)
class WarningRecord:
    """A non-fatal data anomaly surfaced in the run report."""

    code: str
    message: str
    line: int | None = None

    def __str__(self) -> str:
        where = f"line {self.line}: " if self.line is not None else ""
        return f"{where}{self.code}: {self.message}"
