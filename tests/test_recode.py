import math
import random

import pytest

from conftest import raises_code
from hdbprep.model import IncomeMode
from hdbprep.pipeline import PipelineConfig, run_recode
from hdbprep.recode import IncomeRangeMap, elim1_default_map, income_from_letter

# midpoints recomputed by hand from the bracket bounds
CORRECTED = {
    "A": (0 + 29000) / 2,
    "B": (29000 + 50000) / 2,
    "C": (50000 + 100000) / 2,
    "D": (100000 + 150000) / 2,
    "E": (150000 + 200000) / 2,
    "F": (200000 + 300000) / 2,
    "G": (300000 + 500000) / 2,
    "H": (500000 + 750000) / 2,
    "I": (750000 + 1000000) / 2,
    "J": (1000000 + 1500000) / 2,
    "K": (1500000 + 2500000) / 2,
    "L": 3000000.0,
}


class TestDefaultMaps:
    def test_corrected_amounts(self):
        m = elim1_default_map()
        for code, amount in CORRECTED.items():
            assert m.entries[code] == amount, code

    def test_corrected_keeps_legacy_alias(self):
        m = elim1_default_map()
        assert m.entries["U"] == m.entries["I"] == 875000.0

    def test_corrected_has_no_default(self):
        assert elim1_default_map().default_amount is None

    def test_corrected_strictly_increasing(self):
        m = elim1_default_map()
        amounts = [m.entries[chr(ord("A") + i)] for i in range(12)]
        assert amounts == sorted(amounts)
        assert len(set(amounts)) == 12

    def test_literal_amounts(self):
        m = elim1_default_map(paper_literal=True)
        expected = {
            "A": 14500.0,
            "B": 39500.0,
            "C": 75000.0,
            "D": 125000.0,
            "E": 175000.0,
            "F": 115000.0,
            "G": 400000.0,
            "H": 625000.0,
            "U": 875000.0,
            "J": 1250000.0,
            "K": 2000000.0,
            "L": 3000000.0,
        }
        assert dict(m.entries) == expected

    def test_literal_defaults_to_zero(self):
        m = elim1_default_map(paper_literal=True)
        assert m.default_amount == 0.0

    def test_literal_f_breaks_ordering(self):
        # the one bracket whose midpoint dropped a digit
        m = elim1_default_map(paper_literal=True)
        assert m.entries["F"] < m.entries["E"]

    def test_literal_uses_u_not_i(self):
        m = elim1_default_map(paper_literal=True)
        assert "I" not in m.entries
        assert "U" in m.entries


class TestIncomeRangeMap:
    def test_codes_are_single_characters(self):
        for code in ("AB", "default", " "):
            with raises_code("ERROR"):
                IncomeRangeMap(entries={code: 100.0})

    def test_amounts_nonnegative(self):
        # and finite: an infinite amount would make every total infinite
        for entries, default in (({"A": -5.0}, None), ({"A": math.inf}, None),
                                 ({"A": 1.0}, math.inf), ({"A": 1.0}, -1.0)):
            with raises_code("ERROR"):
                IncomeRangeMap(entries=entries, default_amount=default)

    def test_entries_frozen(self):
        m = IncomeRangeMap(entries={"A": 10.0})
        with pytest.raises(TypeError):
            m.entries["B"] = 20.0  # type: ignore[index]

    def test_codes_listing(self):
        m = IncomeRangeMap(entries={"B": 2.0, "A": 1.0})
        assert tuple(m.entries) == ("B", "A")


class TestIncomeFromLetter:
    def test_lookup(self):
        m = elim1_default_map()
        assert income_from_letter("B", m) == 39500.0

    def test_token_is_trimmed(self):
        m = elim1_default_map()
        assert income_from_letter("  B ", m) == 39500.0

    def test_empty_token(self):
        with raises_code("BAD_INCOME_TOKEN"):
            income_from_letter("   ", elim1_default_map())

    def test_unknown_code_strict(self):
        with raises_code("UNKNOWN_INCOME_CODE"):
            income_from_letter("Z", elim1_default_map())

    def test_unknown_code_with_default(self):
        m = elim1_default_map(paper_literal=True)
        assert income_from_letter("Z", m) == 0.0
        assert income_from_letter("I", m) == 0.0  # literal map never had I

    def test_case_sensitive(self):
        with raises_code("UNKNOWN_INCOME_CODE"):
            income_from_letter("b", elim1_default_map())


def recode_column(directory, tokens):
    """Recode a letter column file through the standalone recode stage."""
    (directory / "monthlyincomeNT.txt").write_text(
        "".join(f"{t}\n" for t in tokens), encoding="utf-8"
    )
    run_recode(PipelineConfig(input_dir=directory, income_mode=IncomeMode.LETTERS))
    text = (directory / "monthlyincome.txt").read_text(encoding="utf-8")
    return [float(t) for t in text.splitlines()]


class TestRecodeStream:
    def test_order_and_length(self, tmp_path):
        assert recode_column(tmp_path, ["A", "B", "A"]) == [14500.0, 39500.0, 14500.0]

    def test_error_carries_line(self, tmp_path):
        with raises_code("UNKNOWN_INCOME_CODE") as info:
            recode_column(tmp_path, ["A", "Z"])
        assert info.value.line == 2

    def test_random_letters_against_plain_dict(self, tmp_path):
        codes = list(CORRECTED) + ["U"]
        rng = random.Random(20260819)
        tokens = [rng.choice(codes) for _ in range(1000)]
        expected = [CORRECTED.get(t, 875000.0) for t in tokens]
        assert recode_column(tmp_path, tokens) == expected
