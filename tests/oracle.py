"""A reference for `hdbprep run`, kept apart from the package it checks.

It reads the input files itself and computes each output cell from the
definitions: keys by concatenation, letter amounts from its own copy of
the income table, and the Oxford, FAO-OMS and DMP scales summed per
household in a hash map, so the input need not be grouped. It imports
nothing from hdbprep. It covers valid corpora only, so it predicts no
error: a bad token fails here with a plain exception, if at all.
"""

import csv
from collections import Counter
from pathlib import Path

VARIABLES = ("region", "milieu", "cluster", "household", "age", "gender", "poswrchief", "income")

#: The columns of households.csv.
HEADER = ("key", "size", "n_adults", "n_children", "scale_oxford", "scale_faofam",
          "scale_dmp", "total_income", "scaled_income", "label_area", "label_chief_gender")

#: The corrected income table: each bracket's midpoint; I and U name the
#: ninth bracket.
LETTER_AMOUNTS = {
    "A": 14500.0, "B": 39500.0, "C": 75000.0, "D": 125000.0, "E": 175000.0,
    "F": 250000.0, "G": 400000.0, "H": 625000.0, "I": 875000.0, "U": 875000.0,
    "J": 1250000.0, "K": 2000000.0, "L": 3000000.0,
}


def render(number):
    """A number's text in an output file: an integral value below 1e16 in
    magnitude as an integer; any other as the shortest decimal of at most
    12 significant digits that reads back to the same double, or with 12
    significant digits when none does."""
    if number == int(number) and abs(number) < 1e16:
        return str(int(number))
    for digits in range(1, 13):
        text = f"{number:.{digits}g}"
        if float(text) == number:
            break
    return text


def read_persons(input_dir, table, delimiter, income):
    """One tuple of stripped tokens per person, in VARIABLES order (no
    income when ``income`` is "none"): from the default column files, or
    from ``table`` by its header."""
    names = VARIABLES if income != "none" else VARIABLES[:-1]
    if table is None:
        income_file = "monthlyincomeNT.txt" if income == "letters" else "monthlyincome.txt"
        columns = []
        for name in names:
            path = Path(input_dir) / (income_file if name == "income" else f"{name}.txt")
            lines = path.read_text(encoding="utf-8-sig").split("\n")
            if lines[-1] == "":  # the newline that ends the last line
                lines.pop()
            columns.append([line.strip() for line in lines])
        return list(zip(*columns))
    with open(Path(input_dir) / table, encoding="utf-8-sig", newline="") as handle:
        header, *rows = csv.reader(handle, delimiter=delimiter)
    at = [[cell.strip() for cell in header].index(name) for name in names]
    return [tuple(row[i].strip() for i in at) for row in rows]


def expected_outputs(input_dir, *, table=None, delimiter=",", scheme="RMCH", ages="years",
                     genders="male1_female2", income="none", strict=False,
                     scales=("oxford", "faofam", "dmp"), dmp_c=0.5, dmp_s=0.7,
                     scaled_by="oxford", sort=False):
    """The files `hdbprep run` writes on these inputs, and its warnings.

    Returns ({file name: rows}, Counter of warning codes). Each row is a
    tuple of cells: a str, an int for a count, a float for an amount or a
    scale, None for an empty cell. households.csv starts with its header.
    """
    adult_from = 15.0 if ages == "years" else 4.0
    male = "1" if genders == "male1_female2" else "0"
    r, m, c, h = scheme
    keys, amounts, warnings = [], [], Counter()
    # key -> [region, adults, children, Oxford, FAO-OMS, income, chiefs, chief's gender]
    households = {}
    for region, milieu, cluster, number, age, gender, chief, *money in read_persons(
            input_dir, table, delimiter, income):
        key = f"{r}{region}{m}{milieu}{c}{cluster}{h}{number}"
        keys.append((key,))
        amount = 0.0
        if income == "letters":
            amount = LETTER_AMOUNTS[money[0]]
            amounts.append((amount,))
        elif income == "numeric":
            amount = float(money[0])
        years = float(age)
        if strict and ages == "years" and years == 99:
            warnings["AGE_MISSING"] += 1  # unknown age, counted as an adult
        adult = years >= adult_from
        state = households.setdefault(key, [region, 0, 0, 0.0, 0.0, 0.0, 0, "XXX"])
        state[1 if adult else 2] += 1
        state[3] += (1.0 if chief == "1" else 0.7) if adult else 0.5
        state[4] += (1.0 if gender == male else 0.8) if adult else 0.5
        state[5] += amount
        if chief == "1":
            state[6] += 1
            state[7] = gender

    rows = []
    for key in sorted(households) if sort else households:
        region, adults, children, oxford, faofam, total, chiefs, chief_gender = households[key]
        dmp = (adults + dmp_c * children) ** dmp_s
        by_name = {"oxford": oxford, "faofam": faofam, "dmp": dmp}
        scaled = total / by_name[scaled_by] if income != "none" and scaled_by else None
        scale_cells = [by_name[name] if name in scales else None for name in by_name]
        rows.append((key, adults + children, adults, children, *scale_cells,
                     total if income != "none" else None, scaled, region, chief_gender))
        if chiefs > 1:
            warnings["MULTIPLE_CHIEFS"] += 1

    files = {"identhousehold.txt": keys, "households.csv": [HEADER, *rows]}
    if income == "letters":
        files["monthlyincome.txt"] = amounts
    for column, name, written in (
            ("scale_oxford", "scaleoxford.txt", "oxford" in scales),
            ("scale_faofam", "scalefaofam.txt", "faofam" in scales),
            ("scale_dmp", f"scaleDMP-{dmp_c:g}-{dmp_s:g}.txt", "dmp" in scales),
            ("size", "sizehousehold.txt", True),
            ("total_income", "totalincome.txt", income != "none"),
            ("label_area", "labelregion.txt", True),
            ("label_chief_gender", "labelgender.txt", True)):
        if written:
            i = HEADER.index(column)
            files[name] = [(row[i],) for row in rows]
    return files, warnings
