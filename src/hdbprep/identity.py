"""Canonical household identifiers.

Survey strata (region, milieu, cluster, household number) only identify a
household jointly: household numbers restart within clusters, clusters
within milieux. Concatenating the four tokens, each preceded by a distinct
prefix letter, yields a single string key that is injective as long as no
token contains any of the prefix letters. That collision check runs on
every key build, so a garbled token fails loudly instead of silently
aliasing two households.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import HdbError
from .model import HouseholdKey, _Checked


class _PrefixFields(NamedTuple):
    region: str = "R"
    milieu: str = "M"
    cluster: str = "C"
    household: str = "H"


class PrefixScheme(_Checked, _PrefixFields):
    """The four single-letter prefixes used to build canonical keys.

    Letters must be distinct uppercase ASCII. The default spells R, M, C, H
    for region, milieu, cluster, household; a D/M/C/H variant is around in
    older exports and is one from_string call away.
    """

    __slots__ = ()

    def __new__(cls, *letters: str, **named: str):
        scheme = super().__new__(cls, *letters, **named)
        for letter in scheme:
            if len(letter) != 1 or not ("A" <= letter <= "Z"):
                raise HdbError("ERROR", f"prefix {letter!r} is not a single uppercase letter")
        if len(set(scheme)) != 4:
            raise HdbError("ERROR", f"prefix letters must be distinct, got {scheme.letters}")
        return scheme

    @property
    def letters(self) -> tuple[str, str, str, str]:
        return tuple(self)

    @classmethod
    def from_string(cls, token: str) -> "PrefixScheme":
        token = token.strip()
        if len(token) != 4:
            raise HdbError("ERROR", f"prefix scheme must be 4 letters, got {token!r}")
        return cls(token[0], token[1], token[2], token[3])


DEFAULT_SCHEME = PrefixScheme()


def make_household_key(
    region: str,
    milieu: str,
    cluster: str,
    household: str,
    scheme: PrefixScheme = DEFAULT_SCHEME,
) -> HouseholdKey:
    """Build the canonical key from the four strata tokens.

    Tokens are used verbatim and must be non-empty. Any occurrence of any
    prefix letter inside any token would break the injectivity of the
    concatenation and raises PREFIX_COLLISION.
    """
    components = (region, milieu, cluster, household)
    r, m, c, h = scheme
    # a letter lies in the concatenation exactly when it lies in some token:
    # the tokens are walked, in order, only to name the first fault
    joined = region + milieu + cluster + household
    if (r in joined or m in joined or c in joined or h in joined
            or not (region and milieu and cluster and household)):
        for token in components:
            if not token:
                raise HdbError("EMPTY_TOKEN", "strata token is empty")
            for letter in scheme:
                if letter in token:
                    raise HdbError("PREFIX_COLLISION", f"token {token!r} contains prefix "
                                   f"letter {letter!r}; the identifier would not parse back")
    return HouseholdKey(f"{r}{region}{m}{milieu}{c}{cluster}{h}{household}", components)


def parse_household_key(
    canonical: str, scheme: PrefixScheme = DEFAULT_SCHEME
) -> tuple[str, str, str, str]:
    """Recover (region, milieu, cluster, household) from a canonical key.

    A true inverse of make_household_key under the same scheme; a string
    no key build could have produced (missing, reordered or duplicated
    prefixes) raises MALFORMED_KEY.
    """
    escaped = [re.escape(letter) for letter in scheme]
    charclass = "".join(escaped)
    match = re.fullmatch("".join(f"{e}([^{charclass}]+)" for e in escaped), canonical)
    if match is None:
        raise HdbError("MALFORMED_KEY", f"cannot parse household key {canonical!r}")
    region, milieu, cluster, household = match.groups()
    return region, milieu, cluster, household
