"""Adult-equivalence scales.

A household of four does not need four times the income of a single adult:
consumption is partly shared, and children consume less than adults. An
equivalence scale maps household composition to a number of "equivalent
adults"; dividing household income by it gives a per-equivalent-adult
income that is comparable across differently composed households.

Three scales are implemented:

* Oxford: the household chief counts 1.0, every other adult 0.7, every
  child 0.5. The sum over members is the scale.
* FAO-OMS (faofam): male adults count 1.0, female adults 0.8, children 0.5
  regardless of gender. The sum over members is the scale.
* DMP: a two-parameter form E = (Na + c*Ne)**s over the adult count Na and
  child count Ne. c in [0, 1] discounts children; s in [0, 1] captures
  economies of scale (s = 1 means none). Oxford and faofam are per-member
  sums; DMP only needs the two counts.

Adulthood starts at age 15 when ages are in years, and at class index 4
when ages are five-year class indices (classes 1..3 cover ages 0-14).
Boundary semantics match the reference arithmetic exactly: the child test
is a strict ``age < threshold``, so 15.0 years (or class 4) is adult and
14.999 years is child.
"""

from __future__ import annotations

from .errors import HdbError
from .model import Age, AgeEncoding, Gender

#: First adult age, in years.
ADULT_AGE_YEARS = 15.0
#: First adult five-year class index (class 4 is ages 15-19).
ADULT_CLASS = 4.0

WEIGHT_CHILD = 0.5
WEIGHT_ADULT_OTHER = 0.7
WEIGHT_ADULT_FEMALE = 0.8
WEIGHT_FULL = 1.0


def classify_adult(age: Age, encoding: AgeEncoding) -> bool:
    """True when the age reaches the adult threshold of its encoding."""
    threshold = ADULT_AGE_YEARS if encoding is AgeEncoding.YEARS else ADULT_CLASS
    return not age.value < threshold


def oxford_weight(age: Age, encoding: AgeEncoding, is_chief: bool) -> float:
    """Oxford weight of one member: adult chief 1.0, other adult 0.7,
    child 0.5.

    The child test dominates chief status: a member below the adult
    threshold weighs 0.5 even when marked chief, because the reference
    arithmetic branches on age before it ever looks at the chief flag.
    """
    if not classify_adult(age, encoding):
        return WEIGHT_CHILD
    if is_chief:
        return WEIGHT_FULL
    return WEIGHT_ADULT_OTHER


def faofam_weight(age: Age, encoding: AgeEncoding, gender: Gender) -> float:
    """FAO-OMS weight of one member: male adult 1.0, female adult 0.8,
    child 0.5 (either gender)."""
    if not classify_adult(age, encoding):
        return WEIGHT_CHILD
    if gender is Gender.MALE:
        return WEIGHT_FULL
    return WEIGHT_ADULT_FEMALE


def dmp_scale(n_adults: int, n_children: int, c: float, s: float) -> float:
    """DMP scale E = (Na + c*Ne)**s.

    Both parameters must lie in [0, 1]. A household with no members at all
    is an EMPTY_HOUSEHOLD error; an all-children household with c = 0 is
    legal and yields 0.0 (the caller dividing by the scale handles that).
    """
    if n_adults < 0 or n_children < 0 or n_adults + n_children == 0:
        raise HdbError("EMPTY_HOUSEHOLD",
                       f"cannot scale a household of {n_adults} adults, {n_children} children")
    for name, value in (("c", c), ("s", s)):
        if not 0.0 <= value <= 1.0:
            raise HdbError("DMP_PARAM_OUT_OF_RANGE",
                           f"DMP parameter {name}={value} outside [0, 1]")
    return float(n_adults + c * n_children) ** s
