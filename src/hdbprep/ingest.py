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
from enum import Enum
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Mapping, NamedTuple, Sequence

from .errors import HdbError
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


class ColumnSource(NamedTuple):
    """One single-column text file supplying one variable."""

    path: Path
    variable: Variable


class TableSource:
    """One delimited file with a header row supplying several variables.

    ``column_map`` maps a variable onto the header name of its column. Not
    a tuple, so that it is never taken for a sequence of sources.
    """

    def __init__(self, path: Path, column_map: Mapping[Variable, str], delimiter: str = ","):
        self.path = path
        self.column_map = column_map
        self.delimiter = delimiter


def _not_utf8(path: Path, exc: UnicodeDecodeError) -> HdbError:
    """The error for an input that is not UTF-8, at the 1-based line of its
    first undecodable byte. A chunked read reports offsets within its
    chunk, so they are taken again from the whole file."""
    try:
        path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as whole:
        exc = whole
    bad = exc.object[exc.start : exc.end]
    return HdbError("NOT_UTF8", f"bytes {bad!r} are not valid UTF-8", source=str(path),
                    line=exc.object[: exc.start].count(b"\n") + 1)


def read_column_file(source: ColumnSource, skip_header: int = 0) -> list[str]:
    """Read a one-token-per-line file into a list of stripped tokens.

    A single trailing newline is tolerated; blank lines anywhere else are a
    BLANK_LINE error (they would silently shift every later person across
    files). A file with no data lines is an EMPTY_FILE error. Only a line
    feed ends a line: the carriage return of a CRLF is stripped with the
    token's whitespace, and one inside a token is a BAD_STRATA_TOKEN error,
    as a line break in a table cell is. Error line numbers are 1-based and
    count skipped header lines.
    """
    try:
        # utf-8-sig: strip a BOM if a spreadsheet export left one behind
        text = source.path.read_bytes().decode("utf-8-sig")
    except OSError as exc:
        raise HdbError("IO_ERROR", f"cannot read {source.path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise _not_utf8(source.path, exc) from None
    lines = text.split("\n")[skip_header:]
    if lines and lines[-1] == "":
        lines.pop()
    # a column has few distinct lines: strip each once, one string per token
    distinct: dict[str, str] = {}
    stripped = {line: distinct.setdefault(token := line.strip(), token) for line in set(lines)}
    tokens = list(map(stripped.__getitem__, lines))
    if "" in distinct:
        raise HdbError("BLANK_LINE", "blank line in column file", source=str(source.path),
                       line=skip_header + tokens.index("") + 1)
    if not tokens:
        raise HdbError("EMPTY_FILE", "no data lines", source=str(source.path))
    if "\r" in text and "\r" in "".join(distinct):
        index = next(i for i, token in enumerate(tokens) if "\r" in token)
        raise HdbError("BAD_STRATA_TOKEN", f"column {source.variable.value!r} contains a "
                       f"line break: {tokens[index]!r}", source=str(source.path),
                       line=skip_header + index + 1)
    return tokens


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
            raise HdbError("ERROR", f"variable '{source.variable.value}' supplied twice")
        columns[source.variable] = read_column_file(source, skip_header=skip_header)
    ordered = [columns[variable] for variable in Variable if variable in columns]
    expected = len(ordered[0])
    for source in sources:
        actual = len(columns[source.variable])
        if actual != expected:
            raise HdbError("LENGTH_MISMATCH", f"column '{source.variable.value}' has {actual} "
                           f"tokens, expected {expected}", source=str(source.path))
    return list(zip(*ordered))


#: The data rows of a table read and checked as one block: few enough that
#: rows alive together cost the cyclic garbage collector no extra passes.
TABLE_BLOCK_ROWS = 64


def _check_cells(person: tuple[str, ...], variables: Sequence[Variable],
                 source: TableSource, line: int) -> None:
    """Raise for the first bad cell of a person, in field order: an empty
    cell, or a cell holding a line break."""
    for variable, token in zip(variables, person):
        name = source.column_map[variable]
        if not token:
            raise HdbError("EMPTY_TOKEN", f"column {name!r} is empty", source=str(source.path),
                           line=line)
        if "\n" in token or "\r" in token:
            raise HdbError("BAD_STRATA_TOKEN", f"column {name!r} contains a line break: "
                           f"{token!r}", source=str(source.path), line=line)


def read_table(
    source: TableSource, skip_header: int = 0, starts: dict[int, int] | None = None
) -> list[tuple[str, ...]]:
    """Read a delimited table with a header row into one tuple per person,
    its stripped cells in `Variable` order, restricted to the variables of
    the source's column_map.

    ``skip_header`` lines are discarded before the header itself. Every
    column named in the column_map must appear in the header; every data
    row must have exactly as many cells as the header. An empty cell is an
    EMPTY_TOKEN error and a cell holding a line break a BAD_STRATA_TOKEN
    error, each naming the cell's column by its header; these and a row of
    the wrong length name the file and the row's first line. A row the csv
    module cannot parse, such as one with a cell over its field size limit,
    is a BAD_TABLE_ROW error naming the line it stopped on, once the rows
    before it are checked. Quoting follows the common convention (fields
    wrapped in double quotes, embedded quotes doubled), which the csv
    module implements.

    Rows are read TABLE_BLOCK_ROWS at a time and checked by column; a block
    that fails or holds a multi-line row is checked row by row instead.

    ``starts``, when given, receives the first line of the first row and of
    every row after one that a quoted line break spans, by row index; every
    other row starts on the line after the previous row's first line.
    """
    try:
        handle = source.path.open(encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise HdbError("IO_ERROR", f"cannot read {source.path}: {exc}") from exc
    try:
        with handle:
            reader = csv.reader(handle, delimiter=source.delimiter)
            try:
                for _ in range(skip_header):
                    next(reader)
                header = next(reader)
            except StopIteration:
                raise HdbError("EMPTY_FILE", "no header row", source=str(source.path)) from None
            names = [cell.strip() for cell in header]
            positions: dict[Variable, int] = {}
            for variable, column_name in source.column_map.items():
                try:
                    positions[variable] = names.index(column_name)
                except ValueError:
                    raise HdbError("MISSING_COLUMN", f"column '{column_name}' not found in "
                                   "header row", source=str(source.path)) from None
            variables = [variable for variable in Variable if variable in positions]
            indexes = [positions[variable] for variable in variables]
            persons: list[tuple[str, ...]] = []
            follows = None  # the first line of a row when the one before spans one line
            while True:
                before, rows, failure = reader.line_num, [], None
                try:
                    rows.extend(islice(reader, TABLE_BLOCK_ROWS))
                except (csv.Error, UnicodeDecodeError) as exc:
                    failure = exc  # raised once the rows before it are checked
                columns = []
                # with newline="", only a row that spans lines holds a line break
                if (failure is None and reader.line_num - before == len(rows)
                        and set(map(len, rows)) <= {len(names)}):
                    columns = [list(map(str.strip, map(itemgetter(i), rows))) for i in indexes]
                if columns and not any("" in column for column in columns):
                    if rows and before + 1 != follows and starts is not None:
                        starts[len(persons)] = before + 1
                    follows = reader.line_num + 1
                    persons.extend(zip(*columns))
                else:
                    first = before + 1
                    for row in rows:  # the first bad row, and each row's first line
                        if first != follows and starts is not None:
                            starts[len(persons)] = first
                        follows = first + 1
                        if len(row) != len(names):
                            raise HdbError("ROW_ARITY_MISMATCH", f"row has {len(row)} fields, "
                                           f"header has {len(names)}", source=str(source.path),
                                           line=first)
                        person = tuple([row[i].strip() for i in indexes])
                        breaks = sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
                        if "" in person or breaks:
                            _check_cells(person, variables, source, first)
                        persons.append(person)
                        first += 1 + breaks
                    if failure is not None:
                        raise failure
                if len(rows) < TABLE_BLOCK_ROWS:
                    break
    except csv.Error as exc:
        # a row the csv module refuses, such as one with a cell over its field
        # size limit (a process-wide setting, left as it is)
        raise HdbError("BAD_TABLE_ROW", f"cannot parse the row: {exc}",
                       source=str(source.path), line=reader.line_num) from None
    except UnicodeDecodeError as exc:
        raise _not_utf8(source.path, exc) from None
    if not persons:
        raise HdbError("EMPTY_FILE", "no data rows", source=str(source.path))
    return persons


def parse_age(
    raw: str,
    encoding: AgeEncoding,
    policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT,
) -> Age:
    """Parse an age token under the given encoding.

    Years may be fractional (infant ages below 1 are real data) but must be
    finite and non-negative. Class indices must be integers >= 1. Neither
    may hold ``_``, which Python reads between digits (``1_5`` as 15).
    Under the strict policy the reserved unknown-age code 99 (years only)
    yields an Age flagged missing rather than an error.
    """
    token = raw.strip()
    if encoding is AgeEncoding.YEARS:
        try:
            value = float(token)
        except ValueError:
            value = float("nan")
        if 0 <= value < float("inf") and "_" not in token:  # junk, as NaN, fails both bounds
            missing = policy is MissingAgePolicy.STRICT and value == UNKNOWN_AGE_YEARS
            return Age(value, missing=missing)
    else:
        try:
            index = int(token)
        except ValueError:
            index = 0
        if index >= 1 and "_" not in token:
            return Age(float(index))
    raise HdbError("BAD_AGE_TOKEN", f"cannot read {token!r} as an age")


_GENDER_TOKENS = {
    GenderEncoding.MALE0_FEMALE1: {"0": Gender.MALE, "1": Gender.FEMALE},
    GenderEncoding.MALE1_FEMALE2: {"1": Gender.MALE, "2": Gender.FEMALE},
}


def parse_gender(raw: str, encoding: GenderEncoding) -> Gender:
    """Parse a gender token; only the two exact tokens of the declared
    encoding are accepted."""
    token = raw.strip()
    gender = _GENDER_TOKENS[encoding].get(token)
    if gender is None:
        raise HdbError("BAD_GENDER_TOKEN",
                       f"gender code {token!r} is not valid under encoding {encoding.name}")
    return gender
