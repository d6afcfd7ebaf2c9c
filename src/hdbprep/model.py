"""Domain types shared by every stage of the toolkit.

Raw survey tokens stay strings until a stage explicitly parses them; strata
codes in particular are never interpreted as numbers, because real exports
mix zero-padded and alphanumeric codes. All types are immutable after
construction; the records are named tuples.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

from .errors import HdbError

#: Age value reserved by some surveys for "age unknown" (years encoding only).
UNKNOWN_AGE_YEARS = 99.0

#: Label exported for a household in which no member is marked as chief.
NO_CHIEF_LABEL = "XXX"


class _ConfigEnum(Enum):
    """An enum that a config key names, by one of its spellings in
    `_SPELLINGS`."""

    @classmethod
    def from_config(cls, token: str):
        """The member that ``token`` spells, in any letter case and with
        surrounding spaces ignored; any other token is BAD_ENCODING."""
        spellings, error = _SPELLINGS[cls]
        text = token.strip().lower()
        for member, names in spellings.items():
            if text in names:
                return member
        raise HdbError("BAD_ENCODING", error.format(token))


class AgeEncoding(_ConfigEnum):
    """How the raw age tokens are coded: real ages in years (possibly
    fractional for infants), or indices of five-year age classes."""

    YEARS = 1
    FIVE_YEAR_CLASSES = 2


class GenderEncoding(_ConfigEnum):
    """How the raw gender tokens are coded: male/female as 0/1 or as 1/2."""

    MALE0_FEMALE1 = 1
    MALE1_FEMALE2 = 2


class Gender(Enum):
    MALE = "male"
    FEMALE = "female"


class MissingAgePolicy(_ConfigEnum):
    """What to do with the reserved unknown-age code 99 under YEARS.

    PAPER_COMPAT treats it as an ordinary (adult) age, which is what the
    plain arithmetic does anyway. STRICT flags the person as missing-age and
    emits a warning; the person still contributes adult weight.
    """

    PAPER_COMPAT = "paper-compat"
    STRICT = "strict"


class IncomeMode(_ConfigEnum):
    """Whether person income is absent, a numeric column, or letter-coded
    income ranges that need recoding first."""

    NONE = "none"
    NUMERIC = "numeric"
    LETTERS = "letters"


class ScaleKind(_ConfigEnum):
    OXFORD = "oxford"
    FAOFAM = "faofam"
    DMP = "dmp"


#: For each enum above: the lower-case spellings of each member that a
#: config key may use, the first being the one a written config uses, and
#: the BAD_ENCODING message for any other spelling. A scale spelled "none"
#: reads as no scale.
_SPELLINGS: dict[type[_ConfigEnum], tuple[dict, str]] = {
    AgeEncoding: ({AgeEncoding.YEARS: ("years", "1"),
                   AgeEncoding.FIVE_YEAR_CLASSES: ("classes", "2", "five_year_classes")},
                  "unknown age encoding {!r} (use 1/years or 2/five_year_classes)"),
    GenderEncoding: ({GenderEncoding.MALE0_FEMALE1: ("male0_female1", "1"),
                      GenderEncoding.MALE1_FEMALE2: ("male1_female2", "2")},
                     "unknown gender encoding {!r} (use 1/male0_female1 or 2/male1_female2)"),
    MissingAgePolicy: ({MissingAgePolicy.PAPER_COMPAT: ("paper-compat", "paper_compat"),
                        MissingAgePolicy.STRICT: ("strict",)},
                       "unknown missing-age policy {!r}"),
    IncomeMode: ({mode: (mode.value,) for mode in IncomeMode}, "unknown income mode {!r}"),
    ScaleKind: ({**{kind: (kind.value,) for kind in ScaleKind}, None: ("none",)},
                "unknown scale {!r}"),
}


class _Checked:
    """Base of a named tuple whose ``__new__`` checks its fields: ``_make``,
    and so ``_replace``, build through ``__new__`` too."""

    __slots__ = ()
    _make = classmethod(lambda cls, values: cls(*values))


class _AgeFields(NamedTuple):
    value: float
    missing: bool = False


class Age(_Checked, _AgeFields):
    """A parsed age: years (possibly fractional) or a five-year class index.

    ``missing`` is set only under the strict missing-age policy when the
    reserved unknown-age code was read.
    """

    __slots__ = ()

    def __new__(cls, value: float, missing: bool = False):
        if value < 0:
            raise ValueError(f"age value must be >= 0, got {value}")
        return super().__new__(cls, value, missing)


class HouseholdKey(NamedTuple):
    """Canonical household identifier plus its strata components; a named
    tuple, built once per household. Under one prefix scheme the canonical
    string determines the components, so equal canonical strings mean
    equal keys.
    """

    canonical: str
    components: tuple[str, str, str, str]

    def __str__(self) -> str:
        return self.canonical


class HouseholdAggregate(NamedTuple):
    """Per-household outputs of one aggregation pass; a named tuple, built
    once per household.

    Scale and income fields are None when the corresponding computation was
    not configured. The fold counts each member as adult or child exactly
    once, so ``size == n_adults + n_children``. The field order is the
    column order of households.csv.
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
