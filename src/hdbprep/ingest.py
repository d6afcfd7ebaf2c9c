"""Reading survey inputs: one-column-per-file text exports and delimited
tables, plus the token parsers for age and gender.

Column files are the native format: one token per line, aligned across
files by line number so that line i of every file describes person i. The
table reader accepts a delimited file with a header row instead and maps
named columns onto the same variables. Both readers return one plain tuple
of stripped tokens per person, in `Variable` order, holding only the
variables they were asked for; nothing is parsed here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Mapping, Sequence

from .errors import (
    BadAgeTokenError,
    BadEncodingError,
    BadGenderTokenError,
    BadStrataTokenError,
    BlankLineError,
    ConfigError,
    DataError,
    EmptyFileError,
    EmptyTokenError,
    IoError,
    LengthMismatchError,
    MissingColumnError,
    RowArityMismatchError,
)
from .model import (
    UNKNOWN_AGE_YEARS,
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    MissingAgePolicy,
)


class Variable(Enum):
    """The person-level variables a data source can supply."""

    REGION = "region"
    MILIEU = "milieu"
    CLUSTER = "cluster"
    HOUSEHOLD = "household"
    AGE = "age"
    GENDER = "gender"
    POSWRCHIEF = "poswrchief"
    INCOME = "income"


#: Variables every run that folds households reads; INCOME alone is optional.
REQUIRED_VARIABLES = tuple(v for v in Variable if v is not Variable.INCOME)

#: The four strata variables that make up a household key, in key order.
STRATA_VARIABLES = REQUIRED_VARIABLES[:4]


@dataclass(frozen=True)
class ColumnSource:
    """One single-column text file supplying one variable."""

    path: Path
    variable: Variable


@dataclass(frozen=True)
class TableSource:
    """One delimited file with a header row supplying several variables.

    ``column_map`` maps a variable onto the header name of its column.
    """

    path: Path
    column_map: Mapping[Variable, str]
    delimiter: str = ","


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> DataError:
    """The error for an input that is not UTF-8, at the 1-based line of its
    first undecodable byte. A chunked read reports offsets within its
    chunk, so they are taken again from the whole file."""
    try:
        path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as whole:
        exc = whole
    bad = exc.object[exc.start : exc.end]
    return DataError(f"bytes {bad!r} are not valid UTF-8").at(
        source=str(path), line=exc.object[: exc.start].count(b"\n") + 1
    )


def read_column_file(source: ColumnSource, skip_header: int = 0) -> list[str]:
    """Read a one-token-per-line file into a list of stripped tokens.

    A single trailing newline is tolerated; blank lines anywhere else are a
    BLANK_LINE error (they would silently shift every later person across
    files). A file with no data lines is an EMPTY_FILE error. Error line
    numbers are 1-based and count skipped header lines. The file is read
    with universal newlines, so a carriage return ends a line and no token
    holds a line break.
    """
    try:
        # utf-8-sig: strip a BOM if a spreadsheet export left one behind
        text = source.path.read_text(encoding="utf-8-sig")
    except OSError as exc:
        raise IoError(f"cannot read {source.path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(source.path, exc) from None
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    tokens = [line.strip() for line in lines[skip_header:]]
    if "" in tokens:
        raise BlankLineError("blank line in column file").at(
            source=str(source.path), line=skip_header + tokens.index("") + 1
        )
    if not tokens:
        raise EmptyFileError("no data lines").at(source=str(source.path))
    # a column has few distinct tokens: keep one string object for each
    distinct: dict[str, str] = {}
    return list(map(distinct.setdefault, tokens, tokens))


def read_column_sources(
    sources: Sequence[ColumnSource], skip_header: int = 0
) -> list[tuple[str, ...]]:
    """Read every column file and align them into one tuple per person,
    its tokens in `Variable` order (region, milieu, cluster, household,
    age, gender, poswrchief, income), restricted to the variables supplied.

    Every file must have as many tokens as the first in `Variable` order;
    a shorter or longer one means the files drifted apart and is a
    LENGTH_MISMATCH error naming the variable and its file.
    """
    columns: dict[Variable, list[str]] = {}
    for source in sources:
        if source.variable in columns:
            raise ConfigError(f"variable '{source.variable.value}' supplied twice")
        columns[source.variable] = read_column_file(source, skip_header=skip_header)
    ordered = [columns[variable] for variable in Variable if variable in columns]
    expected = len(ordered[0])
    for source in sources:
        actual = len(columns[source.variable])
        if actual != expected:
            raise LengthMismatchError(
                source.variable.value, expected=expected, actual=actual
            ).at(source=str(source.path))
    return list(zip(*ordered))


#: A table cell's field name in EMPTY_TOKEN and BAD_STRATA_TOKEN messages.
_FIELD_NAMES = {
    variable: variable.value if variable in STRATA_VARIABLES else f"{variable.value}_raw"
    for variable in Variable
}


def _check_cells(person: tuple[str, ...], variables: Sequence[Variable]) -> None:
    """Raise for the first bad cell of a person, in field order: an empty
    cell, or a strata cell holding a line break."""
    for variable, token in zip(variables, person):
        name = _FIELD_NAMES[variable]
        if not token:
            raise EmptyTokenError(f"field '{name}' is empty")
        if variable in STRATA_VARIABLES and ("\n" in token or "\r" in token):
            raise BadStrataTokenError(f"field '{name}' contains a line break: {token!r}")


def read_table(source: TableSource, skip_header: int = 0) -> list[tuple[str, ...]]:
    """Read a delimited table with a header row into one tuple per person,
    its stripped cells in `Variable` order, restricted to the variables of
    the source's column_map.

    ``skip_header`` lines are discarded before the header itself. Every
    column named in the column_map must appear in the header; every data
    row must have exactly as many cells as the header. An empty cell is an
    EMPTY_TOKEN error and a strata cell holding a line break a
    BAD_STRATA_TOKEN error; these and a row of the wrong length name the
    file and the row's last line. Quoting follows the common convention
    (fields wrapped in double quotes, embedded quotes doubled), which the
    csv module implements.
    """
    try:
        handle = source.path.open(encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IoError(f"cannot read {source.path}: {exc}") from exc
    try:
        with handle:
            reader = csv.reader(handle, delimiter=source.delimiter)
            try:
                for _ in range(skip_header):
                    next(reader)
                header = next(reader)
            except StopIteration:
                raise EmptyFileError("no header row").at(source=str(source.path)) from None
            names = [cell.strip() for cell in header]
            positions: dict[Variable, int] = {}
            for variable, column_name in source.column_map.items():
                try:
                    positions[variable] = names.index(column_name)
                except ValueError:
                    raise MissingColumnError(column_name).at(
                        source=str(source.path)
                    ) from None
            variables = [variable for variable in Variable if variable in positions]
            indexes = [positions[variable] for variable in variables]
            n_strata = sum(variable in STRATA_VARIABLES for variable in variables)
            persons: list[tuple[str, ...]] = []
            for row in reader:
                if len(row) != len(names):
                    raise RowArityMismatchError(expected=len(names), actual=len(row)).at(
                        source=str(source.path), line=reader.line_num
                    )
                person = tuple([row[i].strip() for i in indexes])
                strata = "".join(person[:n_strata])
                if "" in person or "\n" in strata or "\r" in strata:
                    try:
                        _check_cells(person, variables)
                    except DataError as exc:
                        raise exc.at(source=str(source.path), line=reader.line_num)
                persons.append(person)
    except UnicodeDecodeError as exc:
        raise _not_utf8(source.path, exc) from None
    if not persons:
        raise EmptyFileError("no data rows").at(source=str(source.path))
    return persons


def parse_age(
    raw: str,
    encoding: AgeEncoding,
    policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT,
) -> Age:
    """Parse an age token under the given encoding.

    Years may be fractional (infant ages below 1 are real data) but must be
    finite and non-negative. Class indices must be integers >= 1. Under the
    strict policy the reserved unknown-age code 99 (years only) yields an
    Age flagged missing rather than an error.
    """
    token = raw.strip()
    if encoding is AgeEncoding.YEARS:
        try:
            value = float(token)
        except ValueError:
            raise BadAgeTokenError(token) from None
        if value != value or value in (float("inf"), float("-inf")):
            raise BadAgeTokenError(token)
        if value < 0:
            raise BadAgeTokenError(token)
        missing = policy is MissingAgePolicy.STRICT and value == UNKNOWN_AGE_YEARS
        return Age(value, missing=missing)
    if encoding is AgeEncoding.FIVE_YEAR_CLASSES:
        try:
            index = int(token)
        except ValueError:
            raise BadAgeTokenError(token) from None
        if index < 1:
            raise BadAgeTokenError(token)
        return Age(float(index))
    raise BadEncodingError(f"unhandled age encoding {encoding!r}")  # pragma: no cover


_GENDER_TOKENS = {
    GenderEncoding.MALE0_FEMALE1: {"0": Gender.MALE, "1": Gender.FEMALE},
    GenderEncoding.MALE1_FEMALE2: {"1": Gender.MALE, "2": Gender.FEMALE},
}


def parse_gender(raw: str, encoding: GenderEncoding) -> Gender:
    """Parse a gender token; only the two exact tokens of the declared
    encoding are accepted."""
    token = raw.strip()
    table = _GENDER_TOKENS.get(encoding)
    if table is None:
        raise BadGenderTokenError(token, str(encoding))
    gender = table.get(token)
    if gender is None:
        raise BadGenderTokenError(token, encoding.name)
    return gender
