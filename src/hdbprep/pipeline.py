"""End-to-end orchestration: one pass reads the persons, builds their
household keys, recodes or parses their incomes, folds households and
writes the selected outputs.

The pipeline owns configuration (an INI file, every key mirrored by a CLI
flag) and the on-disk output contract. Every command is a selection of
outputs from the same pass, whose one per-person loop does only the work
its selection needs: `identify` reads the four strata columns and builds
keys, `recode-income` reads and recodes the income column alone, and
households are folded only when a household output is selected. The CLI
selects the outputs of `recode-income` and `aggregate` from `_run` itself.
Nothing is written until every step has succeeded, so a run that stops on
a data error writes none of its outputs (an I/O failure part-way through
the writes can still leave the files written before it).

The household fold is fed each person as the pass reads it, so no
person-indexed rows are kept (under --sort it keeps a small state per
household, not its members, and orders households by key at the end).
The per-person work is per distinct token, numeric incomes aside: a
household key is built once per run of lines with the same strata tokens
(once per household under --sort), each letter income code is recoded
once, and the fold looks each member profile and each household
composition up in per-run tables. Each household value is rendered to
text once, with each distinct number formatted once; the per-variable
files and households.csv write the same text, each file in one write.

Person-level outputs keep input order; household-level files are aligned
with each other row by row, one row per household run, in run order.

Output files
    identhousehold.txt      canonical key, one line per person
    monthlyincome.txt       recoded amount, one line per person (letter mode)
    per-variable files      one value per household; see _HOUSEHOLD_FILES
    households.csv          every household column in one table
"""

from __future__ import annotations

import configparser
import io
import math
import sys
from contextlib import contextmanager
from itertools import chain
from pathlib import Path
from types import MappingProxyType
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

from .aggregate import TokenTable, aggregate_all
from .errors import HdbError
from .identity import DEFAULT_SCHEME, PrefixScheme, make_household_key
from .ingest import (
    REQUIRED_VARIABLES,
    STRATA_VARIABLES,
    ColumnSource,
    TableSource,
    Variable,
    read_column_sources,
    read_table,
)
from .model import (
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    MissingAgePolicy,
    ScaleKind,
    _Checked,
)
from .recode import IncomeRangeMap, _income_amount, elim1_default_map, income_from_letter

#: Default column-file names, shared with the synthetic generator's layout;
#: read-only, as every config that keeps the default shares this mapping.
DEFAULT_COLUMN_FILES = MappingProxyType({
    Variable.REGION: "region.txt",
    Variable.MILIEU: "milieu.txt",
    Variable.CLUSTER: "cluster.txt",
    Variable.HOUSEHOLD: "household.txt",
    Variable.AGE: "age.txt",
    Variable.GENDER: "gender.txt",
    Variable.POSWRCHIEF: "poswrchief.txt",
})
DEFAULT_LETTER_INCOME_FILE = "monthlyincomeNT.txt"
DEFAULT_NUMERIC_INCOME_FILE = "monthlyincome.txt"

IDENT_FILE = "identhousehold.txt"
RECODED_INCOME_FILE = "monthlyincome.txt"
TABLE_FILE = "households.csv"

#: The per-variable household files in output order: --only name ->
#: (file name, HouseholdAggregate field). The DMP file's name embeds its
#: parameters, so it is made by dmp_file_name.
_HOUSEHOLD_FILES = {
    "oxford": ("scaleoxford.txt", "scale_oxford"),
    "faofam": ("scalefaofam.txt", "scale_faofam"),
    "dmp": (None, "scale_dmp"),
    "size": ("sizehousehold.txt", "size"),
    "income": ("totalincome.txt", "total_income"),
    "area": ("labelregion.txt", "label_area"),
    "chief": ("labelgender.txt", "label_chief_gender"),
}

#: Selectable per-variable outputs of the aggregate stage.
AGGREGATE_OUTPUTS = tuple(_HOUSEHOLD_FILES)

#: The columns of households.csv, which are also its header: every
#: HouseholdAggregate field, in field order.
_TABLE_COLUMNS = HouseholdAggregate._fields

#: Table mode: the header name of each variable's column, by default its own.
_DEFAULT_TABLE_COLUMNS = MappingProxyType({v: v.value for v in Variable})


def _bad_value(section: str, option: str, problem: str) -> str:
    """The message of an error for a config value that a check rejects,
    naming its key."""
    return f"bad value for [{section}] {option}: {problem}"


class _ConfigFields(NamedTuple):
    input_mode: str = "columns"
    input_dir: Path | str = Path(".")
    column_files: Mapping[Variable, str] = DEFAULT_COLUMN_FILES
    income_file: str | None = None
    table_file: str | None = None
    table_delimiter: str = ","
    table_columns: Mapping[Variable, str] = _DEFAULT_TABLE_COLUMNS
    skip_header: int = 0
    scheme: PrefixScheme = DEFAULT_SCHEME
    age_encoding: AgeEncoding = AgeEncoding.YEARS
    gender_encoding: GenderEncoding = GenderEncoding.MALE1_FEMALE2
    missing_age_policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT
    income_mode: IncomeMode = IncomeMode.NONE
    income_map: IncomeRangeMap | None = None
    paper_literal: bool = False
    scales: frozenset[ScaleKind] = frozenset(ScaleKind)
    dmp_c: float = 0.5
    dmp_s: float = 0.7
    scaled_by: ScaleKind | None = ScaleKind.OXFORD
    paper_sentinel: bool = False
    sort: bool = False
    out_dir: Path | str | None = None


class PipelineConfig(_Checked, _ConfigFields):
    """One run's full configuration.

    ``input_dir`` anchors every relative path (input files and, unless
    ``out_dir`` is set, the outputs too, matching the one-folder workflow
    the file formats come from). ``column_files`` names the file of each
    variable in columns mode (the income file follows the income mode
    unless ``income_file`` names it), ``table_columns`` its header in table
    mode. ``scales`` is the set of enabled scales (any iterable of
    `ScaleKind`); ``dmp_c`` and ``dmp_s`` are checked only while the DMP
    scale is enabled.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        fields = super().__new__(cls, *args, **kwargs)._asdict()
        fields.update(input_dir=Path(fields["input_dir"]), scales=frozenset(fields["scales"]))
        if fields["out_dir"] is not None:
            fields["out_dir"] = Path(fields["out_dir"])
        self = super().__new__(cls, **fields)
        if self.input_mode not in ("columns", "table"):
            raise HdbError("ERROR", _bad_value(
                "input", "mode", f"must be 'columns' or 'table', got {self.input_mode!r}"))
        if self.input_mode == "table" and not self.table_file:
            raise HdbError("ERROR", _bad_value("input", "table", "table mode needs a table file"))
        if self.income_file == "":
            raise HdbError("ERROR", _bad_value("input", "income", "names no file"))
        if self.skip_header < 0:
            raise HdbError("ERROR", _bad_value(
                "input", "skip_header", f"must be >= 0, got {self.skip_header}"))
        if len(self.table_delimiter) != 1:
            raise HdbError("ERROR", _bad_value(
                "input", "delimiter",
                f"must be one character or 'tab', got {self.table_delimiter!r}"))
        if ScaleKind.DMP in self.scales:
            for name, value in (("c", self.dmp_c), ("s", self.dmp_s)):
                if not 0.0 <= value <= 1.0:
                    raise HdbError("DMP_PARAM_OUT_OF_RANGE", _bad_value(
                        "scales", f"dmp_{name}", f"DMP parameter {name}={value} outside [0, 1]"))
        # a scaled income is made only when there is an income to scale
        scaled_by = self.scaled_by if self.income_mode is not IncomeMode.NONE else None
        if scaled_by is not None and scaled_by not in self.scales:
            raise HdbError("ERROR", _bad_value("scales", "scaled_by", "scaled income wants the "
                                               f"{scaled_by.value} scale, which is not configured"))
        return self

    @property
    def effective_income_file(self) -> str:
        if self.income_file:
            return self.income_file
        if self.income_mode is IncomeMode.LETTERS:
            return DEFAULT_LETTER_INCOME_FILE
        return DEFAULT_NUMERIC_INCOME_FILE

    @property
    def effective_out_dir(self) -> Path:
        return self.out_dir if self.out_dir is not None else self.input_dir

    @property
    def table_source(self) -> str | None:
        """The table file in table mode, which then locates every line an
        error or warning names; None in columns mode."""
        return str(self.input_dir / self.table_file) if self.input_mode == "table" else None

    def active_income_map(self) -> IncomeRangeMap:
        return self.income_map or elim1_default_map(self.paper_literal)


class RunReport(NamedTuple):
    """What one run did: counts, outputs written, warnings, skipped steps."""

    persons: int
    households: int | None
    outputs: tuple[Path, ...] = ()
    warnings: tuple[HdbError, ...] = ()
    skipped: tuple[str, ...] = ()

    def render(self) -> str:
        lines = [f"persons read: {self.persons}"]
        if self.households is not None:
            lines.append(f"households: {self.households}")
        for path in self.outputs:
            lines.append(f"wrote: {path}")
        for note in self.skipped:
            lines.append(f"skipped: {note}")
        for warning in self.warnings:
            where = warning.location()
            lines.append(f"warning: {where + ': ' if where else ''}{warning.code}: "
                         f"{warning.message}")
        return "\n".join(lines)


def _boolean(text: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[text.lower()]
    except KeyError:
        raise ValueError(f"Not a boolean: {text}") from None


def _delimiter(text: str) -> str:
    """A table delimiter: the spelling ``tab``, in any letter case, for a
    tab, which a config value cannot hold as itself (its surrounding
    whitespace is stripped); any other text as it is."""
    return "\t" if text.lower() == "tab" else text


#: What a ValueError of each plain reader is called in a config error.
_READER_KINDS = {_boolean: "boolean", float: "number", int: "integer",
                 _income_amount: "number"}

#: The config keys that each set one PipelineConfig field: (section,
#: option, field, reader of the key's text). A key the file leaves out
#: keeps the field's default.
_CONFIG_KEYS = (
    ("input", "mode", "input_mode", str),
    ("input", "income", "income_file", str),
    ("input", "table", "table_file", str),
    ("input", "delimiter", "table_delimiter", _delimiter),
    ("input", "skip_header", "skip_header", int),
    ("identify", "scheme", "scheme", PrefixScheme.from_string),
    ("variables", "age_encoding", "age_encoding", AgeEncoding.from_config),
    ("variables", "gender_encoding", "gender_encoding", GenderEncoding.from_config),
    ("variables", "missing_age_policy", "missing_age_policy", MissingAgePolicy.from_config),
    ("income", "mode", "income_mode", IncomeMode.from_config),
    ("income", "paper_literal", "paper_literal", _boolean),
    ("scales", "dmp_c", "dmp_c", float),
    ("scales", "dmp_s", "dmp_s", float),
    ("scales", "scaled_by", "scaled_by", ScaleKind.from_config),
    ("output", "paper_sentinel", "paper_sentinel", _boolean),
    ("output", "sort", "sort", _boolean),
)


def load_config(
    path: Path, overrides: Mapping[tuple[str, str], str] | None = None
) -> PipelineConfig:
    """Read an INI config file; see the repository README for the grammar.

    Relative paths in the file resolve against the file's own directory, so
    a config can travel with its data folder. ``overrides`` maps (section,
    option) to text that replaces the file's value before any key is read.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # income-map letters are case-sensitive
    try:
        data = path.read_bytes()
    except OSError as exc:
        raise HdbError("IO_ERROR", f"cannot read config {path}: {exc}") from exc
    try:
        # newline=None: the universal newlines of a file opened in text mode
        parser.read_file(
            io.StringIO(data.decode("utf-8"), newline=None), source=str(path)
        )
    except UnicodeDecodeError as exc:
        raise HdbError("ERROR", "config file is not valid UTF-8", source=str(path),
                       line=data[: exc.start].count(b"\n") + 1) from None
    except configparser.Error as exc:
        if isinstance(exc, configparser.DuplicateOptionError):
            problem = f"[{exc.section}] {exc.option} is set twice"
        elif isinstance(exc, configparser.DuplicateSectionError):
            problem = f"section [{exc.section}] appears twice"
        elif isinstance(exc, configparser.MissingSectionHeaderError):
            problem = "a key comes before any [section] header"
        else:  # a ParsingError lists every line it refuses; the first is named
            problem = "line is no [section] header and no key = value"
        line = exc.lineno if hasattr(exc, "lineno") else exc.errors[0][0]
        raise HdbError("ERROR", f"bad config: {problem}", source=str(path), line=line) from exc
    for (section, option), text in (overrides or {}).items():
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, option, text)

    def read(section: str, option: str, reader: Callable[..., object], *args):
        """``reader(*args, text)`` of the key's text, its errors naming the key."""
        try:
            return reader(*args, parser.get(section, option))
        except ValueError as exc:
            kind = _READER_KINDS[reader]
            raise HdbError("ERROR", f"bad {kind} for [{section}] {option}: {exc}") from exc
        except HdbError as exc:
            exc.message = _bad_value(section, option, exc.message)
            raise

    values = {
        name: read(section, option, reader)
        for section, option, name, reader in _CONFIG_KEYS
        if parser.has_option(section, option)
    }

    income_map = None
    if parser.has_section("income_map"):
        # each letter, and the default, is a key read and checked like any other
        entries = {code: read("income_map", code, _income_amount,
                              None if code == "default" else code)
                   for code in parser.options("income_map")}
        default_amount = entries.pop("default", None)
        if not entries:
            raise HdbError("ERROR", "bad value for [income_map]: the section maps no "
                           "income code")
        income_map = IncomeRangeMap(entries, default_amount)

    base = path.resolve().parent
    out_dir = parser.get("output", "dir", fallback=None)
    return PipelineConfig(
        input_dir=base / parser.get("input", "dir", fallback="."),
        column_files={
            variable: parser.get("input", variable.value, fallback=name)
            for variable, name in DEFAULT_COLUMN_FILES.items()
        },
        table_columns={
            variable: parser.get("input", f"{variable.value}_column", fallback=header)
            for variable, header in _DEFAULT_TABLE_COLUMNS.items()
        },
        income_map=income_map,
        # each scale is on unless its key says otherwise
        scales={kind for kind in ScaleKind if not parser.has_option("scales", kind.value)
                or read("scales", kind.value, _boolean)},
        out_dir=base / out_dir if out_dir else None,
        **values,
    )


def format_number(value: float) -> str:
    """Render a number with a decimal point and no grouping: integers
    without a fractional part, anything else as the shortest decimal of at
    most 12 significant digits that reads back to the same double (full 12
    digits when none shorter does)."""
    if math.isnan(value) or math.isinf(value):
        raise ValueError(f"cannot format {value}")
    if value == int(value) and abs(value) < 1e16:
        return str(int(value))
    # a normal double's shortest decimal of at most 12 digits lies within an
    # ulp (2e-16 relative) of it on the 12-digit grid (1e-12 apart), so %.12g
    # lands on it; a subnormal has fewer bits, and only repr is sure to
    if abs(value) < sys.float_info.min:
        text = repr(value)
        if len(text.partition("e")[0].lstrip("-0.").replace(".", "")) <= 12:
            return text
    return f"{value:.12g}"


def dmp_file_name(c: float, s: float) -> str:
    return f"scaleDMP-{format_number(c)}-{format_number(s)}.txt"


@contextmanager
def _open_output(path: Path) -> Iterator[TextIO]:
    """Open an output file for UTF-8 text, its directory made first and
    no newline translated; an OSError while opening or writing it is
    IO_ERROR."""
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            yield handle
    except OSError as exc:
        raise HdbError("IO_ERROR", f"cannot write {path}: {exc}") from exc


def _write_lines(path: Path, lines: Iterable[str]) -> Path:
    """Write each line followed by a newline, in one write."""
    lines = list(lines)
    with _open_output(path) as handle:
        handle.write("\n".join(lines) + "\n" if lines else "")
    return path


def _renderer() -> tuple[Callable[[float | None], str],
                         Callable[[HouseholdAggregate], tuple[str, ...]]]:
    """Renderers of a number (None as an empty cell, a float through
    format_number) and of a household's row of cells in `_TABLE_COLUMNS`
    order. They share a table of the text of each number rendered, so a
    value that repeats is formatted once."""
    texts = TokenTable(format_number)
    texts[None] = ""
    number = texts.__getitem__

    def row(household: HouseholdAggregate) -> tuple[str, ...]:
        key, size, adults, children, oxford, faofam, dmp, income, scaled, area, chief = household
        return (key.canonical, str(size), str(adults), str(children), number(oxford),
                number(faofam), number(dmp), number(income), number(scaled), area, chief)

    return number, row


def write_household_table(rows: Iterable[Sequence[str]], path: Path) -> Path:
    """Write the combined one-row-per-household table: the header (always
    present), then each row of cells already rendered to text, in
    `_TABLE_COLUMNS` order (an empty cell where a statistic was not
    configured)."""
    import csv

    with _open_output(path) as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(_TABLE_COLUMNS)
        writer.writerows(rows)
    return path


def _read_persons(
    config: PipelineConfig, variables: Sequence[Variable]
) -> tuple[list[tuple[str, ...]], dict[int, int]]:
    """One tuple per person in line order, holding the tokens of
    ``variables`` (given in `Variable` order) and read from their columns
    alone, and the first line of the first person and of every person that
    does not start on the line after the previous one, by person index."""
    if config.input_mode == "columns":
        names = {**config.column_files, Variable.INCOME: config.effective_income_file}
    else:
        names = config.table_columns
    for variable in variables:
        if variable not in names:
            raise HdbError("ERROR", f"no source supplies variable '{variable.value}'")
    try:
        if config.input_mode == "columns":
            sources = [
                ColumnSource(config.input_dir / names[variable], variable)
                for variable in variables
            ]
            persons = read_column_sources(sources, skip_header=config.skip_header)
            return persons, {0: config.skip_header + 1}
        source = TableSource(
            config.input_dir / config.table_file,
            {variable: names[variable] for variable in variables},
            delimiter=config.table_delimiter,
        )
        starts: dict[int, int] = {}
        return read_table(source, skip_header=config.skip_header, starts=starts), starts
    except HdbError as exc:
        raise exc.at(stage="ingest")


def _line_numbers(starts: Mapping[int, int], count: int) -> Iterable[int]:
    """Each of ``count`` persons' first line: from each person that
    ``starts`` holds, the next line for every person up to the next one."""
    bounds = sorted(starts) + [count]
    return chain.from_iterable(
        range(starts[i], starts[i] + j - i) for i, j in zip(bounds, bounds[1:])
    )


def _run(
    config: PipelineConfig,
    *,
    keys: bool = False,
    amounts: bool = False,
    files: bool = False,
    only: Sequence[str] | None = None,
    table: bool = False,
) -> RunReport:
    """The one pass behind every command, writing the selected outputs:
    ``keys`` the key file, ``amounts`` the recoded-income file (letter mode
    only), ``files`` the per-variable household files (``only`` picks
    enabled ones; default every one the config enables) and ``table``
    households.csv. The CLI's `recode-income` and `aggregate` call it.

    Only the columns a selected output needs are read, and the one
    per-person loop handles each person in line order: key, then income,
    then member, each only when a selected output needs it; the fold takes
    each member as the pass makes it. An error names the input line of the
    first person whose token fails (skipped lines and a table's header
    count), and a table's file; the first error met wins, on one line the
    key's, then the income's, then the member's (a household's when it
    closes, see `aggregate_all`). The scaled income is computed only for
    households.csv. Nothing is written before every step has succeeded.
    """
    with_income = config.income_mode is not IncomeMode.NONE
    enabled = {kind.value for kind in config.scales} | {"size", "area", "chief"}
    if with_income:
        enabled.add("income")
    if amounts and config.income_mode is not IncomeMode.LETTERS:
        raise HdbError("ERROR", "income recoding needs income mode 'letters'")
    selected = dict.fromkeys(AGGREGATE_OUTPUTS if only is None else only) if files else {}
    for name in only or ():
        if name not in enabled:
            raise HdbError("ERROR", f"aggregate output {name!r} is not enabled by this config")
    plan = [_HOUSEHOLD_FILES[name] for name in selected if name in enabled]

    fold = files or table
    need_keys = keys or fold
    need_income = with_income and (amounts or fold)
    if fold:
        variables = REQUIRED_VARIABLES + ((Variable.INCOME,) if with_income else ())
    else:
        variables = STRATA_VARIABLES if need_keys else (Variable.INCOME,)
    mapping = (
        config.active_income_map() if config.income_mode is IncomeMode.LETTERS else None
    )
    persons, starts = _read_persons(config, variables)
    n_persons = len(persons)
    number, render = _renderer()
    key_lines: list[str] = []
    amount_lines: list[str] = []
    # under --sort a household's lines may lie anywhere: strata -> its key
    known: dict[tuple[str, ...], HouseholdKey] = {}

    def members(persons) -> Iterator[tuple[HouseholdKey, tuple]]:
        strata = key = None
        # letter code -> (amount, its text for the amount file); numeric
        # tokens, too many to table, are parsed each time
        incomes = TokenTable(lambda token: (amount := income_from_letter(token, mapping),
                                            number(amount) if amounts else None))
        for line, person in zip(_line_numbers(starts, n_persons), persons):
            # a household's members share one key, built at its first line
            if need_keys and (tokens := person[:4]) != strata:
                strata = tokens
                key = known.get(strata)
                if key is None:
                    try:
                        key = make_household_key(*strata, config.scheme)
                    except HdbError as exc:
                        raise exc.at(source=config.table_source, line=line, stage="identify")
                    if config.sort:
                        known[strata] = key
            if keys:
                key_lines.append(key.canonical)
            income = None
            if need_income:
                token = person[-1]
                try:
                    if mapping is None:
                        try:
                            income = float(token)
                        except ValueError:
                            income = math.nan
                        if not math.isfinite(income) or "_" in token:  # float reads 1_000
                            raise HdbError("BAD_INCOME_TOKEN",
                                           f"cannot read {token!r} as an income amount")
                    else:
                        income, text = incomes[token]
                        if amounts:  # only letter mode writes the amount file
                            amount_lines.append(text)
                except HdbError as exc:
                    raise exc.at(source=config.table_source, line=line, stage="recode")
            if fold:
                yield key, (line, person[4], person[5], person[6] == "1", income)

    rows = members(persons)
    del persons  # the pass holds them until it ends
    if not fold:
        for _ in rows:  # the pass folds no member
            pass
    rendered: list[tuple[str, ...]] = []
    warnings: list[HdbError] = []
    if fold:
        try:
            rendered = [render(household)
                        for household in aggregate_all(rows, config, warnings, scale_income=table)]
        except HdbError as exc:
            raise exc.at(stage="aggregate")

    # every value is rendered once; the per-variable files and
    # households.csv write the same text
    columns = dict(zip(_TABLE_COLUMNS, zip(*rendered)))
    out_dir = config.effective_out_dir
    outputs = []
    if keys:
        outputs.append(_write_lines(out_dir / IDENT_FILE, key_lines))
    if amounts:
        outputs.append(_write_lines(out_dir / RECODED_INCOME_FILE, amount_lines))
    for file_name, attribute in plan:
        path = out_dir / (file_name or dmp_file_name(config.dmp_c, config.dmp_s))
        outputs.append(_write_lines(path, columns[attribute]))
    if table:
        outputs.append(write_household_table(rendered, out_dir / TABLE_FILE))
    return RunReport(
        persons=n_persons,
        households=len(rendered) if fold else None,
        outputs=tuple(outputs),
        warnings=tuple(warnings),
    )


def run_identify(config: PipelineConfig) -> RunReport:
    """Write one canonical key per person, reading only the four strata
    columns."""
    return _run(config, keys=True)


def run_pipeline(config: PipelineConfig) -> RunReport:
    """The full fused run: person-level files, every enabled household
    file, and the combined households.csv."""
    report = _run(
        config,
        keys=True,
        amounts=config.income_mode is IncomeMode.LETTERS,
        files=True,
        table=True,
    )
    if config.income_mode is IncomeMode.NONE:
        skipped = ("income recoding and totals: no income configured",)
    elif config.scaled_by is None:
        skipped = ("scaled income: no scale chosen",)
    else:
        skipped = ()
    return report._replace(skipped=skipped)
