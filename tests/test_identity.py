import pytest
from hypothesis import given, strategies as st

from conftest import raises_code
from hdbprep.errors import HdbError
from hdbprep.identity import (
    DEFAULT_SCHEME,
    PrefixScheme,
    make_household_key,
    parse_household_key,
)
from hdbprep.model import HouseholdKey
from hdbprep.pipeline import PipelineConfig, run_identify

DMCH = PrefixScheme.from_string("DMCH")


class TestPrefixScheme:
    def test_default_is_rmch(self):
        assert DEFAULT_SCHEME.letters == ("R", "M", "C", "H")

    def test_from_string(self):
        assert PrefixScheme.from_string(" DMCH ").letters == ("D", "M", "C", "H")

    @pytest.mark.parametrize("token", ["RMC", "RMCHX", "rmch", "RMCC", "R2CH"])
    def test_invalid_schemes_rejected(self, token):
        with raises_code("ERROR"):
            PrefixScheme.from_string(token)


class TestMakeHouseholdKey:
    def test_canonical_form(self):
        key = make_household_key("1", "2", "3", "4")
        assert key.canonical == "R1M2C3H4"
        assert key.components == ("1", "2", "3", "4")

    def test_tokens_verbatim(self):
        # leading zeros and widths must survive untouched
        key = make_household_key("01", "1", "12", "007")
        assert key.canonical == "R01M1C12H007"

    def test_prefix_collision(self):
        with raises_code("PREFIX_COLLISION"):
            make_household_key("1R", "1", "1", "1")
        with raises_code("PREFIX_COLLISION"):
            make_household_key("1", "1", "H", "1")

    def test_collision_check_follows_scheme(self):
        # "R" is fine under DMCH, "D" is not
        assert make_household_key("1R", "2", "3", "4", DMCH).canonical == "D1RM2C3H4"
        with raises_code("PREFIX_COLLISION"):
            make_household_key("1D", "2", "3", "4", DMCH)

    def test_empty_token(self):
        with raises_code("EMPTY_TOKEN"):
            make_household_key("", "2", "3", "4")


class TestParseHouseholdKey:
    def test_inverse_of_make(self):
        assert parse_household_key("R1M2C3H4") == ("1", "2", "3", "4")

    @pytest.mark.parametrize("canonical", [
        "R1C3M2H4",   # prefixes out of order
        "R1M2C3",     # missing component
        "M2C3H4",     # missing first prefix
        "R1M2C3H",    # empty last component
        "",           # nothing at all
        "R1M2C3H4R5", # trailing garbage reusing a prefix
        "x1M2C3H4",   # wrong first prefix
    ])
    def test_malformed(self, canonical):
        with raises_code("MALFORMED_KEY"):
            parse_household_key(canonical)

    def test_scheme_specific(self):
        assert parse_household_key("D1M2C3H4", DMCH) == ("1", "2", "3", "4")
        with raises_code("MALFORMED_KEY"):
            parse_household_key("R1M2C3H4", DMCH)


def make_record(region="1", milieu="1", cluster="1", household="1"):
    return (region, milieu, cluster, household)


def identify_records(directory, records):
    """Write the records' strata as column files and run the standalone
    identify stage over them (it reads no other column); returns the key
    file's lines."""
    for name, tokens in zip(("region", "milieu", "cluster", "household"), zip(*records)):
        (directory / f"{name}.txt").write_text(
            "".join(f"{t}\n" for t in tokens), encoding="utf-8"
        )
    run_identify(PipelineConfig(input_dir=directory))
    return (directory / "identhousehold.txt").read_text(encoding="utf-8").splitlines()


class TestIdentifyStream:
    def test_one_key_per_person_boundaries_preserved(self, tmp_path):
        records = [
            make_record(household="1"),
            make_record(household="1"),
            make_record(household="2"),
        ]
        keys = identify_records(tmp_path, records)
        assert len(keys) == 3
        assert keys[0] == keys[1] != keys[2]
        assert keys[2] == "R1M1C1H2"

    def test_error_carries_person_position(self, tmp_path):
        records = [make_record(), make_record(region="2H")]
        with raises_code("PREFIX_COLLISION") as exc:
            identify_records(tmp_path, records)
        assert exc.value.line == 2

    def test_key_of_record_matches_manual_concat(self):
        key = make_household_key(*make_record(region="9", milieu="8", cluster="7", household="6"))
        assert key.canonical == "R" + "9" + "M" + "8" + "C" + "7" + "H" + "6"


# alphabet free of both schemes' letters so collision errors never fire
token = st.text(alphabet="0123456789abefgijklnopqstuvwxyz", min_size=1, max_size=8)
tuples = st.tuples(token, token, token, token)


@given(tuples)
def test_round_trip_property(components):
    key = make_household_key(*components)
    assert parse_household_key(key.canonical) == components


@given(tuples, tuples)
def test_injectivity_property(a, b):
    ka = make_household_key(*a).canonical
    kb = make_household_key(*b).canonical
    assert (ka == kb) == (a == b)


@given(tuples)
def test_round_trip_under_dmch(components):
    key = make_household_key(*components, DMCH)
    assert parse_household_key(key.canonical, DMCH) == components


def per_token_key(region, milieu, cluster, household, scheme=DEFAULT_SCHEME):
    """The key build as a loop over the tokens and the prefix letters, in
    order, each tested on its own: the reference that make_household_key's
    one test per letter over the joined tokens must agree with."""
    components = (region, milieu, cluster, household)
    for token in components:
        if not token:
            raise HdbError("EMPTY_TOKEN", "strata token is empty")
        for letter in scheme.letters:
            if letter in token:
                raise HdbError("PREFIX_COLLISION", f"token {token!r} contains prefix letter "
                               f"{letter!r}; the identifier would not parse back")
    r, m, c, h = scheme.letters
    return HouseholdKey(f"{r}{region}{m}{milieu}{c}{cluster}{h}{household}", components)


def outcome(build, strata, scheme):
    """The key a build returns, or the code and message of its error."""
    try:
        return build(*strata, scheme)
    except HdbError as exc:
        return exc.code, exc.message


# both schemes' letters, a letter of neither, and the empty token
any_token = st.one_of(st.just(""), st.text(alphabet="RMCHD01x", max_size=4))


@given(st.tuples(any_token, any_token, any_token, any_token),
       st.sampled_from([DEFAULT_SCHEME, DMCH]))
def test_key_or_error_equals_the_per_token_loop(strata, scheme):
    assert outcome(make_household_key, strata, scheme) == outcome(per_token_key, strata, scheme)
