"""Synthetic person-level databases with known ground truth.

The generator emits a nested survey frame (regions containing milieux
containing clusters containing households) with members grouped
consecutively, exactly the layout the ingest and aggregation stages expect,
and computes every household-level statistic directly during generation.
That ground truth is built from first principles right here, with literal
weights and inline key concatenation; it deliberately shares no code with
the identity, scales or aggregate modules, so a bug there cannot hide in
the expected values. The second reference, `tests/oracle.py`, lives
outside the package and reads the written files back itself.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from functools import partial
from operator import itemgetter
from pathlib import Path
from typing import Callable, NamedTuple, TextIO

from .errors import HdbError
from .ingest import REQUIRED_VARIABLES, Variable
from .model import (
    NO_CHIEF_LABEL,
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    ScaleKind,
)
# the income-file names stay importable from here, for callers that write
# the generated layout themselves
from .pipeline import DEFAULT_LETTER_INCOME_FILE as LETTER_INCOME_FILE  # noqa: F401
from .pipeline import DEFAULT_NUMERIC_INCOME_FILE as NUMERIC_INCOME_FILE  # noqa: F401
from .pipeline import PipelineConfig, _write_lines, _write_staged

# Letter incomes the generator can draw, with the amounts the ground truth
# assigns them. Literal on purpose: these must not come from the recode
# module they are used to test.
_SYNTH_INCOME_AMOUNTS = {
    "A": 14500.0,
    "B": 39500.0,
    "C": 75000.0,
    "D": 125000.0,
    "E": 175000.0,
    "F": 250000.0,
    "G": 400000.0,
    "H": 625000.0,
    "I": 875000.0,
    "U": 875000.0,
    "J": 1250000.0,
    "K": 2000000.0,
    "L": 3000000.0,
}
_SYNTH_INCOME_CODES = tuple(sorted(_SYNTH_INCOME_AMOUNTS))


@dataclass(frozen=True)
class SynthParams:
    """Knobs of one generated database. The seed fixes everything."""

    n_households: int
    seed: int
    n_regions: int = 4
    max_milieux: int = 3
    max_clusters: int = 4
    max_households_per_cluster: int = 6
    max_household_size: int = 9
    age_encoding: AgeEncoding = AgeEncoding.YEARS
    gender_encoding: GenderEncoding = GenderEncoding.MALE1_FEMALE2
    income_mode: IncomeMode = IncomeMode.LETTERS
    renumber_households: bool = False
    anomalies: bool = False
    scheme_letters: tuple[str, str, str, str] = ("R", "M", "C", "H")
    dmp_c: float = 0.5
    dmp_s: float = 0.7
    scaled_by: ScaleKind = ScaleKind.OXFORD

    def __post_init__(self):
        for name in ("n_households", "n_regions", "max_milieux", "max_clusters",
                     "max_households_per_cluster", "max_household_size"):
            if getattr(self, name) < 1:
                raise HdbError("ERROR", f"{name} must be >= 1")
        capacity = (self.n_regions * self.max_milieux * self.max_clusters
                    * self.max_households_per_cluster)
        if self.n_households < self.n_regions:
            raise HdbError("ERROR",
                           f"{self.n_households} households cannot fill {self.n_regions} regions")
        if self.n_households > capacity:
            raise HdbError("ERROR",
                           f"{self.n_households} households exceed frame capacity {capacity}")
        PipelineConfig(dmp_c=self.dmp_c, dmp_s=self.dmp_s)  # the config's range check
        if (self.scaled_by is ScaleKind.DMP and self.income_mode is not IncomeMode.NONE
                and self.dmp_c == 0 and self.dmp_s > 0):
            raise HdbError("ERROR", "dmp_c = 0 gives a children-only household a DMP scale of "
                           "0, which its scaled income would be divided by")


class SynthPerson(NamedTuple):
    """One generated person as raw tokens, in the order the readers return
    them; ``income_raw`` is None when no income is generated."""

    region: str
    milieu: str
    cluster: str
    household: str
    age_raw: str
    gender_raw: str
    poswrchief_raw: str
    income_raw: str | None = None


@dataclass(frozen=True)
class SynthResult:
    """Generated persons (consecutive by household) and the per-household
    ground truth, in file order."""

    params: SynthParams
    persons: tuple[SynthPerson, ...]
    ground_truth: tuple[HouseholdAggregate, ...]


def _drawer(rng: random.Random) -> Callable[[int], int]:
    """``below(n)``: a uniform int in [0, n), drawn from the stream exactly
    as ``rng.randrange(n)`` draws it (the fewest bits that hold n, redrawn
    until the value lies below n), in one Python call instead of three.
    ``randint(a, b)`` is ``a + below(b - a + 1)`` and ``choice(seq)`` is
    ``seq[below(len(seq))]``, so a seed gives the same database as through
    those methods. It makes the frame, size and chief draws; `generate`
    draws each person's age and income inline, taking the same words."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        if n < 1:  # no draw lies below n, so the redraw would never end
            raise ValueError(f"empty range for below({n})")
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    return below


def _composition(below: Callable[[int], int], total: int, parts: int,
                 cap: int) -> list[int]:
    # split total into `parts` counts, each in [1, cap]: each added unit
    # goes to a uniform pick among the parts still below cap, in part order
    counts = [1] * parts
    open_parts = list(range(parts))
    for _ in range(total - parts):
        i = below(len(open_parts))
        part = open_parts[i]
        counts[part] += 1
        if counts[part] == cap:
            del open_parts[i]
    return counts


def _plan_frame(below: Callable[[int], int], params: SynthParams):
    """Lay out households into (region, milieu, cluster) cells.

    Yields (region_idx, milieu_idx, cluster_idx, n_households_in_cluster);
    milieu indices restart per region and cluster indices per milieu, the
    way real survey numbering does.
    """
    per_cluster_cap = params.max_households_per_cluster
    per_milieu_cap = params.max_clusters * per_cluster_cap
    per_region_cap = params.max_milieux * per_milieu_cap
    region_counts = _composition(below, params.n_households, params.n_regions, per_region_cap)
    for r, region_total in enumerate(region_counts, 1):
        lo = max(1, math.ceil(region_total / per_milieu_cap))
        hi = min(params.max_milieux, region_total)
        milieu_counts = _composition(below, region_total, lo + below(hi - lo + 1),
                                     per_milieu_cap)
        for m, milieu_total in enumerate(milieu_counts, 1):
            lo = max(1, math.ceil(milieu_total / per_cluster_cap))
            hi = min(params.max_clusters, milieu_total)
            cluster_counts = _composition(below, milieu_total, lo + below(hi - lo + 1),
                                          per_cluster_cap)
            for c, cluster_total in enumerate(cluster_counts, 1):
                yield r, m, c, cluster_total


def generate(params: SynthParams) -> SynthResult:
    """Generate one database and its ground truth.

    Every household has exactly one chief. With ``anomalies`` on, the first
    household has none, the second has two, and the third carries a dirty
    region token (an internal space), so the warning and verbatim-token
    paths get exercised by file-level tests too.

    Each person draws, in order: an age, a gender (``rng.random()``) and,
    unless incomes are off, an income. Ages and incomes are drawn inline,
    from the same ``getrandbits`` words as ``below`` takes, and their tokens
    come from per-run tables that the persons share.
    """
    rng = random.Random(params.seed)
    below = _drawer(rng)
    getrandbits = rng.getrandbits
    uniform = rng.random
    new = tuple.__new__  # builds each record in C, fields in order
    # (first age, number of ages, first adult age): years stop at 90, so
    # 99 stays reserved; five-year classes run 1..18
    age_base, n_ages, adult_age = (
        (0, 91, 15) if params.age_encoding is AgeEncoding.YEARS else (1, 18, 4)
    )
    age_tokens = [str(age_base + i) for i in range(n_ages)]
    adult = [age_base + i >= adult_age for i in range(n_ages)]
    male_token, female_token = (
        ("0", "1") if params.gender_encoding is GenderEncoding.MALE0_FEMALE1 else ("1", "2")
    )
    has_income = params.income_mode is not IncomeMode.NONE
    if params.income_mode is IncomeMode.NUMERIC:
        # numeric tokens print without a fractional part
        income_tokens = [str(100 * i) for i in range(5001)]
        income_values = range(0, 500001, 100)
    else:
        income_tokens = _SYNTH_INCOME_CODES
        income_values = [_SYNTH_INCOME_AMOUNTS[code] for code in income_tokens]
    n_incomes = len(income_tokens)
    age_bits, income_bits = n_ages.bit_length(), n_incomes.bit_length()
    anomalies = params.anomalies
    sch = params.scheme_letters

    persons: list[SynthPerson] = []
    add_person = persons.append
    truth: list[HouseholdAggregate] = []
    household_index = -1

    for region_idx, milieu_idx, cluster_idx, n_in_cluster in _plan_frame(below, params):
        region_tok = str(region_idx)
        milieu_tok = str(milieu_idx)
        cluster_tok = str(cluster_idx)
        for within_cluster in range(1, n_in_cluster + 1):
            household_index += 1
            household_region = region_tok
            if anomalies and household_index == 2:
                household_region = region_tok + " x"  # dirty but legal token
            household_tok = str(within_cluster if params.renumber_households
                                else household_index + 1)

            size = 1 + below(params.max_household_size)
            chief_positions = {below(size)}
            if anomalies and household_index == 0:
                chief_positions = set()
            elif anomalies and household_index == 1:
                size = max(size, 2)
                first = below(size)
                second = below(size)
                while second == first:
                    second = below(size)
                chief_positions = {first, second}

            # per-member draws plus the ground-truth arithmetic, inline
            adults = children = 0
            oxford = faofam = 0.0
            total_income = 0.0
            chief_label = NO_CHIEF_LABEL
            income_tok = None
            for position in range(size):
                age = getrandbits(age_bits)
                while age >= n_ages:
                    age = getrandbits(age_bits)
                male = uniform() < 0.5
                gender_tok = male_token if male else female_token
                is_chief = position in chief_positions
                if has_income:
                    income = getrandbits(income_bits)
                    while income >= n_incomes:
                        income = getrandbits(income_bits)
                    income_tok = income_tokens[income]
                    total_income += income_values[income]

                if is_chief:
                    chief_label = gender_tok
                # child weight beats chief status, age decides first
                if not adult[age]:
                    children += 1
                    oxford += 0.5
                    faofam += 0.5
                else:
                    adults += 1
                    oxford += 1.0 if is_chief else 0.7
                    faofam += 1.0 if male else 0.8

                add_person(new(SynthPerson, (household_region, milieu_tok, cluster_tok,
                                             household_tok, age_tokens[age], gender_tok,
                                             "1" if is_chief else "2", income_tok)))

            canonical = (f"{sch[0]}{household_region}{sch[1]}{milieu_tok}"
                         f"{sch[2]}{cluster_tok}{sch[3]}{household_tok}")
            dmp = (adults + params.dmp_c * children) ** params.dmp_s
            if has_income:
                scaled_by = params.scaled_by
                scaled_income = total_income / (oxford if scaled_by is ScaleKind.OXFORD
                                                else faofam if scaled_by is ScaleKind.FAOFAM
                                                else dmp)
            else:
                total_income = scaled_income = None
            key = new(HouseholdKey,
                      (canonical, (household_region, milieu_tok, cluster_tok, household_tok)))
            truth.append(new(HouseholdAggregate, (
                key, size, adults, children, oxford, faofam, dmp, total_income, scaled_income,
                household_region, chief_label)))

    return SynthResult(params, tuple(persons), tuple(truth))


def _layout(result: SynthResult) -> tuple[PipelineConfig, tuple[Variable, ...]]:
    """The default config of the generated income mode, which reads the
    files written here, and the variables written, in `Variable` order."""
    config = PipelineConfig(income_mode=result.params.income_mode)
    with_income = config.income_mode is not IncomeMode.NONE
    return config, REQUIRED_VARIABLES + ((Variable.INCOME,) if with_income else ())


def _column_writers(result: SynthResult) -> list[tuple[str, Callable[[TextIO], None]]]:
    """The standard one-column-per-file layout of the generated persons, as
    (file name, writer) pairs for `_write_staged`."""
    config, variables = _layout(result)
    names = {**config.column_files, Variable.INCOME: config.effective_income_file}
    # a person's tokens lie in Variable order
    return [(names[variable], partial(_write_lines, lines=map(itemgetter(i), result.persons)))
            for i, variable in enumerate(variables)]


def write_column_files(result: SynthResult, out_dir: Path) -> list[Path]:
    """Write the generated persons as the standard one-column-per-file
    layout, every file or none; returns the paths written."""
    return list(_write_staged(Path(out_dir), _column_writers(result)))


def _write_persons_table(result: SynthResult, delimiter: str, handle: TextIO) -> None:
    """Write the generated persons to ``handle`` as one delimited table with
    a header; if a cell holds a carriage return, which csv leaves bare, the
    file read back shows it, and every cell is quoted instead."""
    config, variables = _layout(result)
    cells = itemgetter(*range(len(variables)))
    for quoting in (csv.QUOTE_MINIMAL, csv.QUOTE_ALL):
        handle.seek(0)
        handle.truncate()
        writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n", quoting=quoting)
        writer.writerow(config.table_columns[variable] for variable in variables)
        writer.writerows(map(cells, result.persons))
        handle.flush()
        with open(handle.name, "rb") as written:  # in small reads, which leave no large buffer
            if not any(b"\r" in block for block in iter(lambda: written.read(1 << 14), b"")):
                break


def write_table(result: SynthResult, path: Path, delimiter: str = ",") -> Path:
    """Write the generated persons as one delimited table with a header (see
    `_write_persons_table`), staged; returns the path written."""
    path = Path(path)
    writer = partial(_write_persons_table, result, delimiter)
    return _write_staged(path.parent, [(path.name, writer)])[0]
