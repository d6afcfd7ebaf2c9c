"""Synthetic person-level databases with known ground truth.

The generator emits a nested survey frame (regions containing milieux
containing clusters containing households) with members grouped
consecutively, exactly the layout the ingest and aggregation stages expect,
and computes every household-level statistic directly during generation.
That ground truth is built from first principles right here, with literal
weights and inline key concatenation; it deliberately shares no code with
the identity, scales or aggregate modules, so a bug there cannot hide in
the expected values.

`oracle_aggregate` is the second independent check: an order-insensitive
hash-map aggregation over (key, member) rows. It accepts input in any
order, which is exactly what the streaming aggregator refuses, and is used
to confirm that the streaming pass computes the same numbers.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple

from .errors import HdbError
from .model import (
    NO_CHIEF_LABEL,
    AgeEncoding,
    GenderEncoding,
    HouseholdAggregate,
    HouseholdKey,
    IncomeMode,
    Member,
    ScaleKind,
)
from .pipeline import _write_lines

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

#: Column-file names the generator writes, keyed by variable.
COLUMN_FILE_NAMES = {
    "region": "region.txt",
    "milieu": "milieu.txt",
    "cluster": "cluster.txt",
    "household": "household.txt",
    "age": "age.txt",
    "gender": "gender.txt",
    "poswrchief": "poswrchief.txt",
}
LETTER_INCOME_FILE = "monthlyincomeNT.txt"
NUMERIC_INCOME_FILE = "monthlyincome.txt"


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

    @property
    def is_chief(self) -> bool:
        return self.poswrchief_raw == "1"


@dataclass(frozen=True)
class SynthResult:
    """Generated persons (consecutive by household) and the per-household
    ground truth, in file order."""

    params: SynthParams
    persons: tuple[SynthPerson, ...]
    ground_truth: tuple[HouseholdAggregate, ...]


def _composition(rng: random.Random, total: int, parts: int, cap: int) -> list[int]:
    # split total into `parts` counts, each in [1, cap]
    counts = [1] * parts
    for _ in range(total - parts):
        open_parts = [i for i in range(parts) if counts[i] < cap]
        counts[rng.choice(open_parts)] += 1
    return counts


def _plan_frame(rng: random.Random, params: SynthParams):
    """Lay out households into (region, milieu, cluster) cells.

    Yields (region_idx, milieu_idx, cluster_idx, n_households_in_cluster);
    milieu indices restart per region and cluster indices per milieu, the
    way real survey numbering does.
    """
    per_region_cap = (params.max_milieux * params.max_clusters
                      * params.max_households_per_cluster)
    region_counts = _composition(rng, params.n_households, params.n_regions, per_region_cap)
    for r, region_total in enumerate(region_counts, 1):
        per_milieu_cap = params.max_clusters * params.max_households_per_cluster
        lo = max(1, math.ceil(region_total / per_milieu_cap))
        hi = min(params.max_milieux, region_total)
        milieu_counts = _composition(rng, region_total, rng.randint(lo, hi), per_milieu_cap)
        for m, milieu_total in enumerate(milieu_counts, 1):
            lo = max(1, math.ceil(milieu_total / params.max_households_per_cluster))
            hi = min(params.max_clusters, milieu_total)
            cluster_counts = _composition(rng, milieu_total, rng.randint(lo, hi),
                                          params.max_households_per_cluster)
            for c, cluster_total in enumerate(cluster_counts, 1):
                yield r, m, c, cluster_total


def _draw_income(rng: random.Random, mode: IncomeMode) -> tuple[str | None, float | None]:
    if mode is IncomeMode.LETTERS:
        code = rng.choice(_SYNTH_INCOME_CODES)
        return code, _SYNTH_INCOME_AMOUNTS[code]
    if mode is IncomeMode.NUMERIC:
        amount = float(rng.randint(0, 5000) * 100)
        # numeric tokens print without a fractional part
        return str(int(amount)), amount
    return None, None


def generate(params: SynthParams) -> SynthResult:
    """Generate one database and its ground truth.

    Every household has exactly one chief. With ``anomalies`` on, the first
    household has none, the second has two, and the third carries a dirty
    region token (an internal space), so the warning and verbatim-token
    paths get exercised by file-level tests too.
    """
    rng = random.Random(params.seed)
    years = params.age_encoding is AgeEncoding.YEARS
    male_token, female_token = (
        ("0", "1") if params.gender_encoding is GenderEncoding.MALE0_FEMALE1 else ("1", "2")
    )
    sch = params.scheme_letters

    persons: list[SynthPerson] = []
    truth: list[HouseholdAggregate] = []
    household_counter = 0
    person_line = 0

    for region_idx, milieu_idx, cluster_idx, n_in_cluster in _plan_frame(rng, params):
        for within_cluster in range(1, n_in_cluster + 1):
            household_counter += 1
            household_index = household_counter - 1
            region_tok = str(region_idx)
            if params.anomalies and household_index == 2:
                region_tok = region_tok + " x"  # dirty but legal token
            milieu_tok = str(milieu_idx)
            cluster_tok = str(cluster_idx)
            household_tok = str(within_cluster if params.renumber_households
                                else household_counter)

            size = rng.randint(1, params.max_household_size)
            chief_positions = {rng.randrange(size)}
            if params.anomalies and household_index == 0:
                chief_positions = set()
            elif params.anomalies and household_index == 1:
                size = max(size, 2)
                first = rng.randrange(size)
                second = rng.randrange(size)
                while second == first:
                    second = rng.randrange(size)
                chief_positions = {first, second}

            # per-member draws plus the ground-truth arithmetic, inline
            adults = children = 0
            oxford = faofam = 0.0
            total_income = 0.0
            chief_label = NO_CHIEF_LABEL
            for position in range(size):
                person_line += 1
                if years:
                    age_value = rng.randint(0, 90)  # 99 stays reserved
                    is_adult = age_value >= 15
                else:
                    age_value = rng.randint(1, 18)
                    is_adult = age_value >= 4
                male = rng.random() < 0.5
                gender_tok = male_token if male else female_token
                is_chief = position in chief_positions
                income_tok, income_amount = _draw_income(rng, params.income_mode)

                if is_adult:
                    adults += 1
                else:
                    children += 1
                if is_chief:
                    chief_label = gender_tok
                # child weight beats chief status, age decides first
                if not is_adult:
                    oxford += 0.5
                elif is_chief:
                    oxford += 1.0
                else:
                    oxford += 0.7
                if not is_adult:
                    faofam += 0.5
                elif male:
                    faofam += 1.0
                else:
                    faofam += 0.8
                if income_amount is not None:
                    total_income += income_amount

                persons.append(
                    SynthPerson(
                        region=region_tok,
                        milieu=milieu_tok,
                        cluster=cluster_tok,
                        household=household_tok,
                        age_raw=str(age_value),
                        gender_raw=gender_tok,
                        poswrchief_raw="1" if is_chief else "2",
                        income_raw=income_tok,
                    )
                )

            canonical = (f"{sch[0]}{region_tok}{sch[1]}{milieu_tok}"
                         f"{sch[2]}{cluster_tok}{sch[3]}{household_tok}")
            dmp = (adults + params.dmp_c * children) ** params.dmp_s
            has_income = params.income_mode is not IncomeMode.NONE
            scale_for_income = {ScaleKind.OXFORD: oxford,
                                ScaleKind.FAOFAM: faofam,
                                ScaleKind.DMP: dmp}[params.scaled_by]
            truth.append(
                HouseholdAggregate(
                    key=HouseholdKey(canonical,
                                     (region_tok, milieu_tok, cluster_tok, household_tok)),
                    size=size,
                    n_adults=adults,
                    n_children=children,
                    scale_oxford=oxford,
                    scale_faofam=faofam,
                    scale_dmp=dmp,
                    total_income=total_income if has_income else None,
                    label_area=region_tok,
                    label_chief_gender=chief_label,
                    scaled_income=(total_income / scale_for_income) if has_income else None,
                )
            )

    return SynthResult(params, tuple(persons), tuple(truth))


def write_column_files(result: SynthResult, out_dir: Path) -> list[Path]:
    """Write the generated persons as the standard one-column-per-file
    layout; returns the paths written."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # a person's tokens lie in COLUMN_FILE_NAMES order, the income last
    paths = [_write_lines(out_dir / name, [p[i] for p in result.persons])
             for i, name in enumerate(COLUMN_FILE_NAMES.values())]
    mode = result.params.income_mode
    if mode is not IncomeMode.NONE:
        name = LETTER_INCOME_FILE if mode is IncomeMode.LETTERS else NUMERIC_INCOME_FILE
        paths.append(_write_lines(out_dir / name, [p.income_raw for p in result.persons]))
    return paths


def write_table(result: SynthResult, path: Path, delimiter: str = ",") -> Path:
    """Write the generated persons as one delimited table with a header."""
    import csv

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    has_income = result.params.income_mode is not IncomeMode.NONE
    header = ["region", "milieu", "cluster", "household", "age", "gender", "poswrchief"]
    if has_income:
        header.append("income")
    try:
        with path.open("w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, delimiter=delimiter, lineterminator="\n")
            writer.writerow(header)
            for p in result.persons:
                row = [p.region, p.milieu, p.cluster, p.household,
                       p.age_raw, p.gender_raw, p.poswrchief_raw]
                if has_income:
                    row.append(p.income_raw)
                writer.writerow(row)
    except OSError as exc:
        raise HdbError("IO_ERROR", f"cannot write {path}: {exc}") from exc
    return path


def oracle_aggregate(
    rows: Iterable[tuple[HouseholdKey, Member]],
    *,
    age_encoding: AgeEncoding,
    gender_encoding: GenderEncoding,
    dmp_c: float = 0.5,
    dmp_s: float = 0.7,
    income_enabled: bool = False,
    scaled_by: ScaleKind | None = None,
) -> Mapping[str, HouseholdAggregate]:
    """Order-insensitive reference aggregation over (key, member) rows.

    Accumulates per-key statistics in a hash map, so shuffled input is fine.
    All arithmetic is inlined (thresholds, weights, the DMP formula) rather
    than borrowed from the scales or aggregate modules; the streaming
    aggregator is tested against this, not the other way round.
    """
    male_token, female_token = (
        ("0", "1") if gender_encoding is GenderEncoding.MALE0_FEMALE1 else ("1", "2")
    )
    threshold = 15.0 if age_encoding is AgeEncoding.YEARS else 4.0

    class Acc:
        __slots__ = ("key", "size", "adults", "children", "oxford", "faofam",
                     "income", "chief_label")

        def __init__(self, key: HouseholdKey):
            self.key = key
            self.size = 0
            self.adults = 0
            self.children = 0
            self.oxford = 0.0
            self.faofam = 0.0
            self.income = 0.0
            self.chief_label = NO_CHIEF_LABEL

    accs: dict[str, Acc] = {}
    for key, member in rows:
        acc = accs.get(key.canonical)
        if acc is None:
            acc = accs[key.canonical] = Acc(key)
        acc.size += 1
        try:
            age_value = float(member.age_raw)
        except ValueError:
            raise HdbError("BAD_AGE_TOKEN", f"cannot read {member.age_raw!r} as an age",
                           line=member.line) from None
        is_adult = not age_value < threshold
        if is_adult:
            acc.adults += 1
        else:
            acc.children += 1
        if member.is_chief:
            acc.chief_label = member.gender_raw
        if not is_adult:
            acc.oxford += 0.5
        elif member.is_chief:
            acc.oxford += 1.0
        else:
            acc.oxford += 0.7
        if not is_adult:
            acc.faofam += 0.5
        elif member.gender_raw == male_token:
            acc.faofam += 1.0
        elif member.gender_raw == female_token:
            acc.faofam += 0.8
        else:
            raise HdbError("BAD_GENDER_TOKEN", f"gender code {member.gender_raw!r} is not "
                           f"valid under encoding {gender_encoding.name}", line=member.line)
        if income_enabled:
            acc.income += member.income

    out: dict[str, HouseholdAggregate] = {}
    for canonical, acc in accs.items():
        dmp = (acc.adults + dmp_c * acc.children) ** dmp_s
        scaled = None
        if scaled_by is not None:
            divisor = {ScaleKind.OXFORD: acc.oxford,
                       ScaleKind.FAOFAM: acc.faofam,
                       ScaleKind.DMP: dmp}[scaled_by]
            scaled = acc.income / divisor
        out[canonical] = HouseholdAggregate(
            key=acc.key,
            size=acc.size,
            n_adults=acc.adults,
            n_children=acc.children,
            scale_oxford=acc.oxford,
            scale_faofam=acc.faofam,
            scale_dmp=dmp,
            total_income=acc.income if income_enabled else None,
            label_area=acc.key.components[0],
            label_chief_gender=acc.chief_label,
            scaled_income=scaled,
        )
    return out
