"""Letter-coded income recoding.

Some survey files store monthly income as a bracket letter (A for the
lowest bracket, L for the highest) rather than an amount. Recoding replaces
each letter with its bracket midpoint so incomes can be summed.

Two built-in tables exist. The default one is recomputed from the bracket
bounds; the legacy table reproduces a historical implementation verbatim,
including its quirks, for byte-compatible reprocessing of old outputs.
"""

from hdbprep import HdbError, IncomeRangeMap, elim1_default_map, income_from_letter

corrected = elim1_default_map()
legacy = elim1_default_map(paper_literal=True)

print("code  corrected   legacy")
for code in "ABCDEFGH":
    print(f"  {code}   {corrected.entries[code]:>9.0f}  {legacy.entries[code]:>9.0f}")

# the two tables disagree on F: the legacy midpoint dropped a digit
print("F bracket is 200000..300000, midpoint", (200000 + 30000) / 2, "in the legacy table")

# the ninth bracket letter appears as U in old files and I in newer ones;
# the corrected table accepts both
print("I ->", income_from_letter("I", corrected))
print("U ->", income_from_letter("U", corrected))

# unknown letters: hard error by default, silent zero in the legacy table
try:
    income_from_letter("Z", corrected)
except HdbError as exc:
    print("corrected table rejects Z:", exc)
print("legacy table maps Z to", income_from_letter("Z", legacy))

# tokens are trimmed before the lookup
tokens = ["A", "C", " B ", "L"]
print("recode", tokens, "->", [income_from_letter(t, corrected) for t in tokens])

# custom bracket tables plug in the same way
tiny = IncomeRangeMap({"X": 100.0, "Y": 900.0}, default_amount=0.0)
print("custom map:", [income_from_letter(t, tiny) for t in ["X", "Y", "?"]])
