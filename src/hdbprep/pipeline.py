"""End-to-end orchestration: read persons, build keys, recode income,
aggregate households, write output files.

The pipeline owns configuration (an INI file, every key mirrored by a CLI
flag) and the on-disk output contract. Person-level outputs keep input
order; household-level files are aligned with each other row by row, one
row per household run, in run order.

Output files
    identhousehold.txt      canonical key, one line per person
    monthlyincome.txt       recoded amount, one line per person (letter mode)
    scaleoxford.txt         Oxford scale, one line per household
    scalefaofam.txt         FAO-OMS scale, one line per household
    scaleDMP-<c>-<s>.txt    DMP scale; the name embeds the parameters
    sizehousehold.txt       household size
    totalincome.txt         household income total
    labelregion.txt         area label
    labelgender.txt         chief-gender label
    households.csv          all of the above joined into one table
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .aggregate import AggregationSettings, aggregate_all
from .errors import (
    BadIncomeTokenError,
    ConfigError,
    HdbError,
    IoError,
)
from .identity import DEFAULT_SCHEME, PrefixScheme, make_household_key
from .ingest import (
    ColumnSource,
    TableSource,
    Variable,
    read_column_file,
    read_column_sources,
    read_table,
)
from .model import (
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    Member,
    MissingAgePolicy,
    PersonRecord,
    ScaleKind,
    ScaleSpec,
    WarningRecord,
)
from .recode import IncomeRangeMap, elim1_default_map, income_from_letter

#: Default column-file names, shared with the synthetic generator's layout.
DEFAULT_COLUMN_FILES = {
    Variable.REGION: "region.txt",
    Variable.MILIEU: "milieu.txt",
    Variable.CLUSTER: "cluster.txt",
    Variable.HOUSEHOLD: "household.txt",
    Variable.AGE: "age.txt",
    Variable.GENDER: "gender.txt",
    Variable.POSWRCHIEF: "poswrchief.txt",
}
DEFAULT_LETTER_INCOME_FILE = "monthlyincomeNT.txt"
DEFAULT_NUMERIC_INCOME_FILE = "monthlyincome.txt"

IDENT_FILE = "identhousehold.txt"
RECODED_INCOME_FILE = "monthlyincome.txt"
SIZE_FILE = "sizehousehold.txt"
OXFORD_FILE = "scaleoxford.txt"
FAOFAM_FILE = "scalefaofam.txt"
TOTAL_INCOME_FILE = "totalincome.txt"
AREA_LABEL_FILE = "labelregion.txt"
CHIEF_LABEL_FILE = "labelgender.txt"
TABLE_FILE = "households.csv"

#: Selectable per-variable outputs of the aggregate stage.
AGGREGATE_OUTPUTS = ("oxford", "faofam", "dmp", "size", "income", "area", "chief")

_DEFAULT_SCALES = (
    ScaleSpec(ScaleKind.OXFORD),
    ScaleSpec(ScaleKind.FAOFAM),
    ScaleSpec(ScaleKind.DMP, dmp_c=0.5, dmp_s=0.7),
)

_DEFAULT_TABLE_COLUMNS = (
    ("region", "region"),
    ("milieu", "milieu"),
    ("cluster", "cluster"),
    ("household", "household"),
    ("age", "age"),
    ("gender", "gender"),
    ("poswrchief", "poswrchief"),
    ("income", "income"),
)


@dataclass(frozen=True)
class PipelineConfig:
    """One run's full configuration.

    ``input_dir`` anchors every relative path (input files and, unless
    ``out_dir`` is set, the outputs too, matching the one-folder workflow
    the file formats come from).
    """

    input_mode: str = "columns"
    input_dir: Path | str = Path(".")
    region_file: str = DEFAULT_COLUMN_FILES[Variable.REGION]
    milieu_file: str = DEFAULT_COLUMN_FILES[Variable.MILIEU]
    cluster_file: str = DEFAULT_COLUMN_FILES[Variable.CLUSTER]
    household_file: str = DEFAULT_COLUMN_FILES[Variable.HOUSEHOLD]
    age_file: str = DEFAULT_COLUMN_FILES[Variable.AGE]
    gender_file: str = DEFAULT_COLUMN_FILES[Variable.GENDER]
    poswrchief_file: str = DEFAULT_COLUMN_FILES[Variable.POSWRCHIEF]
    income_file: str | None = None
    table_file: str | None = None
    table_delimiter: str = ","
    table_columns: tuple[tuple[str, str], ...] = _DEFAULT_TABLE_COLUMNS
    skip_header: int = 0
    scheme: PrefixScheme = DEFAULT_SCHEME
    age_encoding: AgeEncoding = AgeEncoding.YEARS
    gender_encoding: GenderEncoding = GenderEncoding.MALE1_FEMALE2
    missing_age_policy: MissingAgePolicy = MissingAgePolicy.PAPER_COMPAT
    income_mode: IncomeMode = IncomeMode.NONE
    income_map: IncomeRangeMap | None = None
    paper_literal: bool = False
    scales: tuple[ScaleSpec, ...] = _DEFAULT_SCALES
    scaled_by: ScaleKind | None = ScaleKind.OXFORD
    paper_sentinel: bool = False
    sort: bool = False
    out_dir: Path | str | None = None

    def __post_init__(self):
        object.__setattr__(self, "input_dir", Path(self.input_dir))
        if self.out_dir is not None:
            object.__setattr__(self, "out_dir", Path(self.out_dir))
        if self.input_mode not in ("columns", "table"):
            raise ConfigError(f"input mode must be 'columns' or 'table', got {self.input_mode!r}")
        if self.input_mode == "table" and not self.table_file:
            raise ConfigError("table input mode needs a table file")
        if self.skip_header < 0:
            raise ConfigError("skip_header must be >= 0")
        if len(self.table_delimiter) != 1:
            raise ConfigError("delimiter must be a single character")
        kinds = [spec.kind for spec in self.scales]
        if len(set(kinds)) != len(kinds):
            raise ConfigError("each scale may be configured at most once")
        if self.income_mode is not IncomeMode.NONE and self.scaled_by is not None:
            if self.scaled_by not in kinds:
                raise ConfigError(
                    f"scaled income wants the {self.scaled_by.value} scale, "
                    "which is not configured"
                )

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

    def dmp_spec(self) -> ScaleSpec | None:
        for spec in self.scales:
            if spec.kind is ScaleKind.DMP:
                return spec
        return None

    def active_income_map(self) -> IncomeRangeMap:
        return self.income_map or elim1_default_map(self.paper_literal)


@dataclass(frozen=True)
class RunReport:
    """What one run did: counts, outputs written, warnings, skipped steps."""

    persons: int
    households: int | None
    outputs: tuple[Path, ...] = ()
    warnings: tuple[WarningRecord, ...] = ()
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
            lines.append(f"warning: {warning}")
        return "\n".join(lines)


def load_config(path: Path) -> PipelineConfig:
    """Read an INI config file; see the repository README for the grammar.

    Relative paths in the file resolve against the file's own directory, so
    a config can travel with its data folder.
    """
    path = Path(path)
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str  # income-map letters are case-sensitive
    try:
        with path.open(encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise IoError(f"cannot read config {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"bad config {path}: {exc}") from exc

    base = path.resolve().parent

    def get(section: str, option: str, fallback: str | None = None) -> str | None:
        return parser.get(section, option, fallback=fallback)

    def getbool(section: str, option: str, fallback: bool) -> bool:
        try:
            return parser.getboolean(section, option, fallback=fallback)
        except ValueError as exc:
            raise ConfigError(f"bad boolean for [{section}] {option}: {exc}") from exc

    def getfloat(section: str, option: str, fallback: float) -> float:
        try:
            return parser.getfloat(section, option, fallback=fallback)
        except ValueError as exc:
            raise ConfigError(f"bad number for [{section}] {option}: {exc}") from exc

    def getint(section: str, option: str, fallback: int) -> int:
        try:
            return parser.getint(section, option, fallback=fallback)
        except ValueError as exc:
            raise ConfigError(f"bad integer for [{section}] {option}: {exc}") from exc

    input_dir = base / get("input", "dir", ".")
    income_mode = IncomeMode.from_config(get("income", "mode", "none"))

    table_columns = []
    for variable, default_header in _DEFAULT_TABLE_COLUMNS:
        table_columns.append((variable, get("input", f"{variable}_column", default_header)))

    income_map = None
    if parser.has_section("income_map"):
        entries = {}
        default_amount = None
        for code, amount in parser.items("income_map"):
            try:
                value = float(amount)
            except ValueError as exc:
                raise ConfigError(f"bad amount for income code {code!r}: {amount!r}") from exc
            if code == "default":
                default_amount = value
            else:
                entries[code] = value
        income_map = IncomeRangeMap(entries, default_amount)

    scales = []
    if getbool("scales", "oxford", True):
        scales.append(ScaleSpec(ScaleKind.OXFORD))
    if getbool("scales", "faofam", True):
        scales.append(ScaleSpec(ScaleKind.FAOFAM))
    if getbool("scales", "dmp", True):
        scales.append(
            ScaleSpec(
                ScaleKind.DMP,
                dmp_c=getfloat("scales", "dmp_c", 0.5),
                dmp_s=getfloat("scales", "dmp_s", 0.7),
            )
        )

    scaled_by_token = get("scales", "scaled_by", "oxford")
    scaled_by = (
        None if scaled_by_token.strip().lower() == "none"
        else ScaleKind.from_config(scaled_by_token)
    )

    out_dir_token = get("output", "dir", None)

    return PipelineConfig(
        input_mode=get("input", "mode", "columns").strip(),
        input_dir=input_dir,
        region_file=get("input", "region", DEFAULT_COLUMN_FILES[Variable.REGION]),
        milieu_file=get("input", "milieu", DEFAULT_COLUMN_FILES[Variable.MILIEU]),
        cluster_file=get("input", "cluster", DEFAULT_COLUMN_FILES[Variable.CLUSTER]),
        household_file=get("input", "household", DEFAULT_COLUMN_FILES[Variable.HOUSEHOLD]),
        age_file=get("input", "age", DEFAULT_COLUMN_FILES[Variable.AGE]),
        gender_file=get("input", "gender", DEFAULT_COLUMN_FILES[Variable.GENDER]),
        poswrchief_file=get("input", "poswrchief", DEFAULT_COLUMN_FILES[Variable.POSWRCHIEF]),
        income_file=get("input", "income", None),
        table_file=get("input", "table", None),
        table_delimiter=get("input", "delimiter", ","),
        table_columns=tuple(table_columns),
        skip_header=getint("input", "skip_header", 0),
        scheme=PrefixScheme.from_string(get("identify", "scheme", "RMCH")),
        age_encoding=AgeEncoding.from_config(get("variables", "age_encoding", "years")),
        gender_encoding=GenderEncoding.from_config(
            get("variables", "gender_encoding", "male1_female2")
        ),
        missing_age_policy=MissingAgePolicy.from_config(
            get("variables", "missing_age_policy", "paper-compat")
        ),
        income_mode=income_mode,
        income_map=income_map,
        paper_literal=getbool("income", "paper_literal", False),
        scales=tuple(scales),
        scaled_by=scaled_by,
        paper_sentinel=getbool("output", "paper_sentinel", False),
        sort=getbool("output", "sort", False),
        out_dir=(base / out_dir_token) if out_dir_token else None,
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
    for precision in range(1, 13):
        text = f"{value:.{precision}g}"
        if float(text) == value:
            return text
    return f"{value:.12g}"


def dmp_file_name(c: float, s: float) -> str:
    return f"scaleDMP-{format_number(c)}-{format_number(s)}.txt"


def _write_lines(path: Path, lines: Iterable[str]) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            for line in lines:
                handle.write(line)
                handle.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def write_household_table(
    aggregates: Sequence[HouseholdAggregate], path: Path
) -> Path:
    """Write the combined one-row-per-household table (header always
    present; empty column where a statistic was not configured)."""
    import csv

    def cell(value) -> str:
        if value is None:
            return ""
        if isinstance(value, str):
            return value
        if isinstance(value, int):
            return str(value)
        return format_number(value)

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(
                ["key", "size", "n_adults", "n_children", "scale_oxford",
                 "scale_faofam", "scale_dmp", "total_income", "scaled_income",
                 "label_area", "label_chief_gender"]
            )
            for a in aggregates:
                writer.writerow(
                    [a.key.canonical, cell(a.size), cell(a.n_adults),
                     cell(a.n_children), cell(a.scale_oxford), cell(a.scale_faofam),
                     cell(a.scale_dmp), cell(a.total_income), cell(a.scaled_income),
                     a.label_area, a.label_chief_gender]
                )
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc
    return path


def _read_persons(config: PipelineConfig) -> list[PersonRecord]:
    want_income = config.income_mode is not IncomeMode.NONE
    try:
        if config.input_mode == "columns":
            sources = [
                ColumnSource(config.input_dir / config.region_file, Variable.REGION),
                ColumnSource(config.input_dir / config.milieu_file, Variable.MILIEU),
                ColumnSource(config.input_dir / config.cluster_file, Variable.CLUSTER),
                ColumnSource(config.input_dir / config.household_file, Variable.HOUSEHOLD),
                ColumnSource(config.input_dir / config.age_file, Variable.AGE),
                ColumnSource(config.input_dir / config.gender_file, Variable.GENDER),
                ColumnSource(config.input_dir / config.poswrchief_file, Variable.POSWRCHIEF),
            ]
            if want_income:
                sources.append(
                    ColumnSource(
                        config.input_dir / config.effective_income_file, Variable.INCOME
                    )
                )
            return read_column_sources(sources, skip_header=config.skip_header)
        column_map = {}
        for variable_name, header in config.table_columns:
            variable = Variable(variable_name)
            if variable is Variable.INCOME and not want_income:
                continue
            column_map[variable] = header
        source = TableSource(
            config.input_dir / config.table_file,
            column_map,
            delimiter=config.table_delimiter,
        )
        return read_table(source, skip_header=config.skip_header)
    except HdbError as exc:
        raise exc.at(stage="ingest")


def _member_income(
    record: PersonRecord, config: PipelineConfig, mapping: IncomeRangeMap | None
) -> float | None:
    if config.income_mode is IncomeMode.NONE:
        return None
    if config.income_mode is IncomeMode.LETTERS:
        return income_from_letter(record.income_raw, mapping)
    token = record.income_raw
    try:
        value = float(token)
    except ValueError:
        raise BadIncomeTokenError(token) from None
    if math.isnan(value) or math.isinf(value):
        raise BadIncomeTokenError(token)
    return value


def _build_rows(
    config: PipelineConfig, persons: Sequence[PersonRecord]
) -> list[tuple[HouseholdKey, Member]]:
    """Pair every person with their household key and parsed-enough Member.

    Rows come back in input order; the aggregation stage decides whether to
    sort. Person index (1-based) is the line number carried into all later
    error messages.
    """
    mapping = (
        config.active_income_map()
        if config.income_mode is IncomeMode.LETTERS
        else None
    )
    rows: list[tuple[HouseholdKey, Member]] = []
    for i, person in enumerate(persons, 1):
        try:
            key = make_household_key(
                person.region, person.milieu, person.cluster, person.household,
                config.scheme,
            )
        except HdbError as exc:
            raise exc.at(line=i, stage="identify")
        try:
            income = _member_income(person, config, mapping)
        except HdbError as exc:
            raise exc.at(line=i, stage="recode")
        rows.append(
            (
                key,
                Member(
                    line=i,
                    age_raw=person.age_raw,
                    gender_raw=person.gender_raw,
                    is_chief=person.is_chief,
                    income=income,
                ),
            )
        )
    return rows


def _settings_for(config: PipelineConfig, *, with_scaled_income: bool) -> AggregationSettings:
    return AggregationSettings(
        age_encoding=config.age_encoding,
        gender_encoding=config.gender_encoding,
        scales=config.scales,
        income_enabled=config.income_mode is not IncomeMode.NONE,
        scaled_by=(
            config.scaled_by
            if with_scaled_income and config.income_mode is not IncomeMode.NONE
            else None
        ),
        paper_sentinel=config.paper_sentinel,
        missing_age_policy=config.missing_age_policy,
    )


def _aggregate_rows(
    config: PipelineConfig,
    rows: list[tuple[HouseholdKey, Member]],
    warnings: list[WarningRecord],
    *,
    with_scaled_income: bool,
) -> list[HouseholdAggregate]:
    if config.sort:
        rows = sorted(rows, key=lambda row: row[0].canonical)
    settings = _settings_for(config, with_scaled_income=with_scaled_income)
    try:
        return list(aggregate_all(rows, settings, warnings))
    except HdbError as exc:
        raise exc.at(stage="aggregate")


def run_identify(config: PipelineConfig) -> RunReport:
    """Standalone key-building pass: write one canonical key per person."""
    persons = _read_persons(config)
    rows = _build_rows(config, persons)
    out = _write_lines(
        config.effective_out_dir / IDENT_FILE,
        (key.canonical for key, _ in rows),
    )
    return RunReport(persons=len(persons), households=None, outputs=(out,))


def run_recode(config: PipelineConfig) -> RunReport:
    """Standalone income recoding: letter file in, amount file out.

    Reads only the income tokens (the one-pass workflow this mirrors does
    not need the other variables yet).
    """
    if config.income_mode is not IncomeMode.LETTERS:
        raise ConfigError("income recoding needs income mode 'letters'")
    mapping = config.active_income_map()
    try:
        if config.input_mode == "columns":
            tokens = read_column_file(
                ColumnSource(
                    config.input_dir / config.effective_income_file, Variable.INCOME
                ),
                skip_header=config.skip_header,
            )
        else:
            persons = _read_persons(config)
            tokens = [person.income_raw for person in persons]
    except HdbError as exc:
        raise exc.at(stage="ingest")
    amounts = []
    for i, token in enumerate(tokens, 1):
        try:
            amounts.append(income_from_letter(token, mapping))
        except HdbError as exc:
            raise exc.at(line=i, stage="recode")
    out = _write_lines(
        config.effective_out_dir / RECODED_INCOME_FILE,
        (format_number(a) for a in amounts),
    )
    return RunReport(persons=len(tokens), households=None, outputs=(out,))


def _aggregate_file_plan(
    config: PipelineConfig, only: Sequence[str] | None
) -> list[str]:
    configured = {spec.kind.value for spec in config.scales}
    available = [name for name in ("oxford", "faofam", "dmp") if name in configured]
    available.append("size")
    if config.income_mode is not IncomeMode.NONE:
        available.append("income")
    available.extend(("area", "chief"))
    if only is None:
        return available
    plan = []
    for name in only:
        if name not in AGGREGATE_OUTPUTS:
            raise ConfigError(
                f"unknown aggregate output {name!r} (choose from {', '.join(AGGREGATE_OUTPUTS)})"
            )
        if name not in available:
            raise ConfigError(f"aggregate output {name!r} is not enabled by this config")
        if name not in plan:
            plan.append(name)
    return plan


def _write_aggregate_files(
    config: PipelineConfig,
    aggregates: Sequence[HouseholdAggregate],
    plan: Sequence[str],
) -> list[Path]:
    out_dir = config.effective_out_dir
    dmp = config.dmp_spec()
    outputs = []
    for name in plan:
        if name == "oxford":
            outputs.append(_write_lines(
                out_dir / OXFORD_FILE,
                (format_number(a.scale_oxford) for a in aggregates),
            ))
        elif name == "faofam":
            outputs.append(_write_lines(
                out_dir / FAOFAM_FILE,
                (format_number(a.scale_faofam) for a in aggregates),
            ))
        elif name == "dmp":
            outputs.append(_write_lines(
                out_dir / dmp_file_name(dmp.dmp_c, dmp.dmp_s),
                (format_number(a.scale_dmp) for a in aggregates),
            ))
        elif name == "size":
            outputs.append(_write_lines(
                out_dir / SIZE_FILE, (str(a.size) for a in aggregates)
            ))
        elif name == "income":
            outputs.append(_write_lines(
                out_dir / TOTAL_INCOME_FILE,
                (format_number(a.total_income) for a in aggregates),
            ))
        elif name == "area":
            outputs.append(_write_lines(
                out_dir / AREA_LABEL_FILE, (a.label_area for a in aggregates)
            ))
        else:
            outputs.append(_write_lines(
                out_dir / CHIEF_LABEL_FILE,
                (a.label_chief_gender for a in aggregates),
            ))
    return outputs


def run_aggregate(
    config: PipelineConfig, only: Sequence[str] | None = None
) -> RunReport:
    """Aggregation pass writing the selected per-variable household files;
    ``only`` picks a subset (default: everything the config enables)."""
    plan = _aggregate_file_plan(config, only)
    persons = _read_persons(config)
    rows = _build_rows(config, persons)
    warnings: list[WarningRecord] = []
    aggregates = _aggregate_rows(config, rows, warnings, with_scaled_income=False)
    outputs = _write_aggregate_files(config, aggregates, plan)
    return RunReport(
        persons=len(persons),
        households=len(aggregates),
        outputs=tuple(outputs),
        warnings=tuple(warnings),
    )


def run_pipeline(config: PipelineConfig) -> RunReport:
    """The full fused run: person-level files, every enabled household
    file, and the combined households.csv."""
    persons = _read_persons(config)
    rows = _build_rows(config, persons)
    skipped = []

    outputs = [
        _write_lines(
            config.effective_out_dir / IDENT_FILE,
            (key.canonical for key, _ in rows),
        )
    ]
    if config.income_mode is IncomeMode.LETTERS:
        outputs.append(
            _write_lines(
                config.effective_out_dir / RECODED_INCOME_FILE,
                (format_number(member.income) for _, member in rows),
            )
        )
    elif config.income_mode is IncomeMode.NONE:
        skipped.append("income recoding and totals: no income configured")

    warnings: list[WarningRecord] = []
    aggregates = _aggregate_rows(config, rows, warnings, with_scaled_income=True)
    plan = _aggregate_file_plan(config, None)
    outputs.extend(_write_aggregate_files(config, aggregates, plan))
    if config.income_mode is not IncomeMode.NONE and config.scaled_by is None:
        skipped.append("scaled income: no scale chosen")
    outputs.append(
        write_household_table(aggregates, config.effective_out_dir / TABLE_FILE)
    )
    return RunReport(
        persons=len(persons),
        households=len(aggregates),
        outputs=tuple(outputs),
        warnings=tuple(warnings),
        skipped=tuple(skipped),
    )
