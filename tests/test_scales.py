import math

import pytest
from hypothesis import given, strategies as st

from conftest import raises_code
from hdbprep.model import Age, AgeEncoding, Gender
from hdbprep.scales import (
    ADULT_AGE_YEARS,
    ADULT_CLASS,
    WEIGHT_ADULT_FEMALE,
    WEIGHT_ADULT_OTHER,
    WEIGHT_CHILD,
    WEIGHT_FULL,
    classify_adult,
    dmp_scale,
    faofam_weight,
    oxford_weight,
)

YEARS = AgeEncoding.YEARS
CLASSES = AgeEncoding.FIVE_YEAR_CLASSES


class TestClassifyAdult:
    def test_year_boundary_is_adult(self):
        assert classify_adult(Age(15.0), YEARS)
        assert not classify_adult(Age(14.999), YEARS)
        assert not classify_adult(Age(0.0), YEARS)
        assert classify_adult(Age(99.0), YEARS)

    def test_class_boundary(self):
        assert classify_adult(Age(4.0), CLASSES)
        assert not classify_adult(Age(3.0), CLASSES)

    @given(st.floats(min_value=0, max_value=120, allow_nan=False))
    def test_monotone_in_age(self, value):
        # once adult, always adult for any older age
        if classify_adult(Age(value), YEARS):
            assert classify_adult(Age(value + 1), YEARS)


class TestOxfordWeight:
    def test_adult_chief_full_weight(self):
        assert oxford_weight(Age(34.0), YEARS, True) == 1.0

    def test_adult_non_chief(self):
        assert oxford_weight(Age(40.0), YEARS, False) == 0.7

    def test_child(self):
        assert oxford_weight(Age(10.0), YEARS, False) == 0.5

    def test_child_branch_beats_chief_flag(self):
        # age decides before the chief flag is ever consulted
        assert oxford_weight(Age(10.0), YEARS, True) == 0.5

    def test_class_encoding(self):
        assert oxford_weight(Age(4.0), CLASSES, True) == 1.0
        assert oxford_weight(Age(3.0), CLASSES, True) == 0.5

    def test_never_returns_point_eight(self):
        for age in (Age(3.0), Age(20.0), Age(15.0)):
            for chief in (True, False):
                assert oxford_weight(age, YEARS, chief) != 0.8

    @given(st.floats(min_value=0, max_value=120, allow_nan=False))
    def test_chief_flag_never_decreases_weight(self, value):
        age = Age(value)
        assert oxford_weight(age, YEARS, True) >= oxford_weight(age, YEARS, False)


class TestFaofamWeight:
    def test_adult_male(self):
        assert faofam_weight(Age(20.0), YEARS, Gender.MALE) == 1.0

    def test_adult_female(self):
        assert faofam_weight(Age(40.0), YEARS, Gender.FEMALE) == 0.8

    def test_child_either_gender(self):
        assert faofam_weight(Age(3.0), YEARS, Gender.FEMALE) == 0.5
        assert faofam_weight(Age(3.0), YEARS, Gender.MALE) == 0.5

    def test_class_encoding(self):
        assert faofam_weight(Age(4.0), CLASSES, Gender.FEMALE) == 0.8
        assert faofam_weight(Age(3.0), CLASSES, Gender.MALE) == 0.5

    def test_never_returns_point_seven(self):
        for age in (Age(3.0), Age(20.0)):
            for gender in Gender:
                assert faofam_weight(age, YEARS, gender) != 0.7


@given(
    st.floats(min_value=0, max_value=120, allow_nan=False),
    st.booleans(),
    st.sampled_from(list(Gender)),
)
def test_weights_stay_in_the_published_set(age_value, chief, gender):
    age = Age(age_value)
    published = {WEIGHT_CHILD, WEIGHT_ADULT_OTHER, WEIGHT_ADULT_FEMALE, WEIGHT_FULL}
    assert oxford_weight(age, YEARS, chief) in published
    assert faofam_weight(age, YEARS, gender) in published


class TestDmpScale:
    def test_formula(self):
        assert dmp_scale(2, 3, 0.5, 0.7) == 3.5 ** 0.7

    def test_single_adult_is_one(self):
        assert dmp_scale(1, 0, 0.5, 0.7) == 1.0

    def test_exponent_one_is_weighted_count(self):
        assert dmp_scale(2, 0, 0.3, 1.0) == 2.0
        assert dmp_scale(2, 2, 0.5, 1.0) == 3.0

    def test_exponent_zero_is_one(self):
        assert dmp_scale(5, 3, 0.8, 0.0) == 1.0

    def test_children_only_household(self):
        assert dmp_scale(0, 1, 0.5, 0.7) == 0.5 ** 0.7
        # c = 0 erases the children entirely; legal, yields 0
        assert dmp_scale(0, 4, 0.0, 0.7) == 0.0

    def test_empty_household(self):
        with raises_code("EMPTY_HOUSEHOLD"):
            dmp_scale(0, 0, 0.5, 0.7)

    @pytest.mark.parametrize("c,s", [(-0.1, 0.7), (1.5, 0.7), (0.5, -1), (0.5, 1.2)])
    def test_parameters_outside_unit_interval(self, c, s):
        with raises_code("DMP_PARAM_OUT_OF_RANGE"):
            dmp_scale(2, 2, c, s)

    @given(
        st.integers(min_value=0, max_value=50),
        st.integers(min_value=0, max_value=50),
        st.floats(min_value=0.01, max_value=1),
        st.floats(min_value=0.01, max_value=1),
    )
    def test_monotone_in_both_counts(self, na, ne, c, s):
        if na + ne == 0:
            return
        base = dmp_scale(na, ne, c, s)
        assert dmp_scale(na + 1, ne, c, s) >= base
        assert dmp_scale(na, ne + 1, c, s) >= base

