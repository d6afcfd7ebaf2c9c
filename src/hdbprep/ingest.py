"""Reading survey inputs: one-column-per-file text exports and delimited
tables. The module only reads; the fold in `hdbprep.aggregate` parses the
member tokens.

Column files are the native format: one token per line, aligned across
files by line number so that line i of every file describes person i. The
table reader accepts a delimited file with a header row instead and maps
named columns onto the same variables. Both readers return one plain tuple
of stripped tokens per person, in `Variable` order, holding only the
variables they were asked for.
"""

from __future__ import annotations

import csv
from enum import Enum
from itertools import islice
from operator import itemgetter
from pathlib import Path
from typing import Collection, Mapping, NamedTuple, Sequence

from .errors import HdbError


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


def _refused(tokens: Collection[str]) -> set[str]:
    """The read tokens refused: an empty one, and one that holds a line break
    or a U+FEFF (the BOM of an export joined on mid-file); NUL and other
    controls are token characters. A batch is tested whole, then each token."""
    text = "".join(tokens)
    if "" not in tokens and "\n" not in text and "\r" not in text and "\ufeff" not in text:
        return set()
    return set(tokens) if len(tokens) == 1 else {t for t in tokens if _refused((t,))}


def _refusal(token: str, column: str, path: Path, line: int, blank_line: bool = False) -> HdbError:
    """The error for a refused token: BLANK_LINE or EMPTY_TOKEN when empty,
    else BAD_STRATA_TOKEN, naming a line break before a byte order mark."""
    where = {"source": str(path), "line": line}
    if token:
        what = "a line break" if "\n" in token or "\r" in token else "a byte order mark"
        message = f"column {column!r} contains {what}: {token!r}"
        return HdbError("BAD_STRATA_TOKEN", message, **where)
    if blank_line:
        return HdbError("BLANK_LINE", "blank line in column file", **where)
    return HdbError("EMPTY_TOKEN", f"column {column!r} is empty", **where)


def read_column_sources(
    sources: Sequence[ColumnSource], skip_header: int = 0
) -> list[tuple[str, ...]]:
    """Read every column file and align them into one tuple per person,
    its tokens in `Variable` order (region, milieu, cluster, household,
    age, gender, poswrchief, income), restricted to the variables supplied.

    Each file is read whole, in turn, as one stripped token per line, a
    leading BOM stripped. Only a line feed ends a line, and a single
    trailing one is tolerated. A file's first `_refused` line is an error:
    BLANK_LINE (it would shift every later person across files), or
    BAD_STRATA_TOKEN for a lone carriage return or a U+FEFF. A file with no
    data lines is an EMPTY_FILE error. Line numbers count skipped lines.

    Once every file is read, each must have as many tokens as the first in
    `Variable` order; a shorter or longer one means the files drifted apart
    and is a LENGTH_MISMATCH error naming the variable and its file.
    """
    columns: dict[Variable, list[str]] = {}
    for path, variable in sources:
        if variable in columns:
            raise HdbError("ERROR", f"variable '{variable.value}' supplied twice")
        try:
            # utf-8-sig: strip a BOM if a spreadsheet export left one behind
            text = path.read_bytes().decode("utf-8-sig")
        except OSError as exc:
            raise HdbError("IO_ERROR", f"cannot read {path}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, exc) from None
        lines = text.split("\n")[skip_header:]
        if lines and lines[-1] == "":
            lines.pop()
        # a column has few distinct lines: strip each once, one string per token
        distinct: dict[str, str] = {}
        stripped = {line: distinct.setdefault(token := line.strip(), token) for line in set(lines)}
        columns[variable] = tokens = list(map(stripped.__getitem__, lines))
        if bad := _refused(distinct):
            index = next(i for i, token in enumerate(tokens) if token in bad)
            raise _refusal(tokens[index], variable.value, path, skip_header + index + 1, True)
        if not tokens:
            raise HdbError("EMPTY_FILE", "no data lines", source=str(path))
    ordered = [columns[variable] for variable in Variable if variable in columns]
    expected = len(ordered[0])
    for path, variable in sources:
        actual = len(columns[variable])
        if actual != expected:
            raise HdbError("LENGTH_MISMATCH", f"column '{variable.value}' has {actual} "
                           f"tokens, expected {expected}", source=str(path))
    return list(zip(*ordered))


#: The data rows of a table read and checked as one block: few enough that
#: rows alive together cost the cyclic garbage collector no extra passes.
TABLE_BLOCK_ROWS = 64


def read_table(
    source: TableSource, skip_header: int = 0, lines: list[range] | None = None
) -> list[tuple[str, ...]]:
    """Read a delimited table with a header row into one tuple per person,
    its stripped cells in `Variable` order, restricted to the variables of
    the source's column_map.

    ``skip_header`` lines are discarded before the header itself. Every
    column named in the column_map must appear in the header; every data
    row must have exactly as many cells as the header. A row of another
    length, and a read cell that `_refused` refuses (named by its header),
    are errors at the file and the row's first line. A row the csv module
    cannot parse, such as one with a cell over its field size limit, is a
    BAD_TABLE_ROW error naming the line it stopped on, once the rows before
    it are checked. Quoting follows the common convention (fields wrapped
    in double quotes, embedded quotes doubled) of the csv module.

    Rows are read TABLE_BLOCK_ROWS at a time and checked by column; a block
    that fails or holds a multi-line row is checked row by row instead.

    ``lines``, when given, receives the rows' first lines as ranges: one
    for a block checked by column, whose rows lie on one line each, and one
    per run of rows up to a multi-line row for a block checked row by row.
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
            indexes = [positions[variable] for variable in Variable if variable in positions]
            persons: list[tuple[str, ...]] = []
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
                if columns and not any(map(_refused, columns)):
                    persons.extend(zip(*columns))
                    runs = [range(before + 1, reader.line_num + 1)]
                else:
                    runs, first = [], before + 1
                    start = first
                    for row in rows:  # the first bad row, and each run of one-line rows
                        if len(row) != len(names):
                            raise HdbError("ROW_ARITY_MISMATCH", f"row has {len(row)} fields, "
                                           f"header has {len(names)}", source=str(source.path),
                                           line=first)
                        person = tuple([row[i].strip() for i in indexes])
                        if bad := _refused(person):
                            i = next(i for i, token in enumerate(person) if token in bad)
                            raise _refusal(person[i], names[indexes[i]], source.path, first)
                        breaks = sum(c.count("\n") + c.count("\r") - c.count("\r\n") for c in row)
                        persons.append(person)
                        first += 1 + breaks
                        if breaks:  # the next row's first line skips the breaks
                            runs.append(range(start, first - breaks))
                            start = first
                    if failure is not None:
                        raise failure
                    runs.append(range(start, first))
                if lines is not None:
                    lines.extend(runs)
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
