"""Reading survey inputs: one-column-per-file text exports and delimited
tables, plus the token parsers for age and gender.

Column files are the native format: one token per line, aligned across
files by line number so that line i of every file describes person i. The
table reader accepts a delimited file with a header row instead and maps
named columns onto the same variables.
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
    BlankLineError,
    ConfigError,
    DataError,
    EmptyFileError,
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
    PersonRecord,
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


#: Variables every source must supply; INCOME alone is optional.
REQUIRED_VARIABLES = tuple(v for v in Variable if v is not Variable.INCOME)


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
    numbers are 1-based and count skipped header lines.
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
    tokens: list[str] = []
    for i, line in enumerate(lines, 1):
        if i <= skip_header:
            continue
        token = line.rstrip("\r").strip()
        if not token:
            raise BlankLineError(f"blank line in column file").at(
                source=str(source.path), line=i
            )
        tokens.append(token)
    if not tokens:
        raise EmptyFileError("no data lines").at(source=str(source.path))
    return tokens


def zip_columns(columns: Mapping[Variable, Sequence[str]]) -> list[PersonRecord]:
    """Align per-variable token lists into PersonRecords.

    All required variables must be present and all supplied lists must have
    the same length as REGION's; a shorter or longer list means the files
    drifted apart and is a LENGTH_MISMATCH error naming the variable.
    """
    for variable in REQUIRED_VARIABLES:
        if variable not in columns:
            raise ConfigError(f"no source supplies variable '{variable.value}'")
    expected = len(columns[Variable.REGION])
    for variable, tokens in columns.items():
        if len(tokens) != expected:
            raise LengthMismatchError(
                variable.value, expected=expected, actual=len(tokens)
            )
    incomes = columns.get(Variable.INCOME)
    records = []
    for i in range(expected):
        records.append(
            PersonRecord(
                region=columns[Variable.REGION][i],
                milieu=columns[Variable.MILIEU][i],
                cluster=columns[Variable.CLUSTER][i],
                household=columns[Variable.HOUSEHOLD][i],
                age_raw=columns[Variable.AGE][i],
                gender_raw=columns[Variable.GENDER][i],
                poswrchief_raw=columns[Variable.POSWRCHIEF][i],
                income_raw=incomes[i] if incomes is not None else None,
            )
        )
    return records


def read_column_sources(
    sources: Sequence[ColumnSource], skip_header: int = 0
) -> list[PersonRecord]:
    """Read every column file and align them into PersonRecords."""
    columns: dict[Variable, list[str]] = {}
    for source in sources:
        if source.variable in columns:
            raise ConfigError(f"variable '{source.variable.value}' supplied twice")
        columns[source.variable] = read_column_file(source, skip_header=skip_header)
    return zip_columns(columns)


def read_table(source: TableSource, skip_header: int = 0) -> list[PersonRecord]:
    """Read a delimited table with a header row into PersonRecords.

    ``skip_header`` lines are discarded before the header itself. Every
    column named in the source's column_map must appear in the header; every
    data row must have exactly as many cells as the header. Quoting follows
    the common convention (fields wrapped in double quotes, embedded quotes
    doubled), which the csv module implements.
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
            for variable in REQUIRED_VARIABLES:
                if variable not in positions:
                    raise ConfigError(
                        f"column map does not cover variable '{variable.value}'"
                    )
            records: list[PersonRecord] = []
            for row in reader:
                line = reader.line_num
                if len(row) != len(names):
                    raise RowArityMismatchError(expected=len(names), actual=len(row)).at(
                        source=str(source.path), line=line
                    )
                cell = {v: row[i].strip() for v, i in positions.items()}
                record = PersonRecord(
                    region=cell[Variable.REGION],
                    milieu=cell[Variable.MILIEU],
                    cluster=cell[Variable.CLUSTER],
                    household=cell[Variable.HOUSEHOLD],
                    age_raw=cell[Variable.AGE],
                    gender_raw=cell[Variable.GENDER],
                    poswrchief_raw=cell[Variable.POSWRCHIEF],
                    income_raw=cell.get(Variable.INCOME),
                )
                records.append(record)
    except UnicodeDecodeError as exc:
        raise _not_utf8(source.path, exc) from None
    if not records:
        raise EmptyFileError("no data rows").at(source=str(source.path))
    return records


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
