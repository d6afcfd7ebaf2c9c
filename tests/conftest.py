"""Helpers shared by the test modules."""

from contextlib import contextmanager

import pytest

from hdbprep.errors import HdbError


@contextmanager
def raises_code(code: str):
    """Like ``pytest.raises(HdbError)``, and the error must carry ``code``."""
    with pytest.raises(HdbError) as info:
        yield info
    assert info.value.code == code, str(info.value)
