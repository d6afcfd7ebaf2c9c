"""Canonical household identifiers.

A household is identified by four nested strata tokens: region, milieu,
cluster, household. The canonical key concatenates them behind single-letter
prefixes so that one string can always be split back into the original
tokens. Run this file directly to see the round trip and its guard rails.
"""

from hdbprep import (
    DEFAULT_SCHEME,
    HdbError,
    PrefixScheme,
    make_household_key,
    parse_household_key,
)

key = make_household_key("1", "2", "3", "47")
print("tokens (1, 2, 3, 47)  ->", key.canonical)
print("parsed back           ->", parse_household_key(key.canonical, DEFAULT_SCHEME))

# tokens travel verbatim; leading zeros survive
padded = make_household_key("01", "2", "03", "007")
print("padded tokens         ->", padded.canonical)

# an alternate prefix alphabet, for files that use D for the region
dmch = PrefixScheme.from_string("DMCH")
print("DMCH scheme           ->", make_household_key("1", "2", "3", "47", dmch).canonical)

# a token containing a prefix letter would make the key ambiguous,
# so building one is an error rather than a corrupt key
try:
    make_household_key("1", "2M", "3", "47")
except HdbError as exc:
    print("collision rejected    ->", exc)

try:
    parse_household_key("R1M2C3", DEFAULT_SCHEME)  # household part missing
except HdbError as exc:
    print("malformed rejected    ->", exc)

# every person gets the key of its household, one per input line; the
# readers hand each person over as a tuple that starts with its four strata
persons = [
    ("1", "1", "1", "1", "34", "1", "1"),
    ("1", "1", "1", "1", "30", "2", "2"),
    ("1", "1", "1", "2", "51", "1", "1"),
]
keys = [make_household_key(*person[:4]) for person in persons]
print("per-person keys       ->", [k.canonical for k in keys])
