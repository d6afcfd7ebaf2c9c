import csv
from itertools import chain

import pytest
from hypothesis import given, settings, strategies as st

from conftest import raises_code
from hdbprep import ingest
from hdbprep.aggregate import parse_age, parse_gender
from hdbprep.errors import HdbError
from hdbprep.ingest import (
    ColumnSource,
    TableSource,
    Variable,
    read_column_sources,
    read_table,
)
from hdbprep.model import (
    Age,
    AgeEncoding,
    Gender,
    GenderEncoding,
    MissingAgePolicy,
)
from hdbprep.pipeline import PipelineConfig, run_identify, run_pipeline


def column(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return ColumnSource(path, Variable.REGION)


def read_column_file(source, skip_header=0):
    """The tokens of one column file, read as a single source."""
    return [person[0] for person in read_column_sources([source], skip_header=skip_header)]


class TestReadColumnFile:
    def test_plain_lines(self, tmp_path):
        src = column(tmp_path, "a.txt", "1\n2\n3\n")
        assert read_column_file(src) == ["1", "2", "3"]

    def test_missing_final_newline_ok(self, tmp_path):
        src = column(tmp_path, "a.txt", "1\n2")
        assert read_column_file(src) == ["1", "2"]

    def test_crlf_and_padding_stripped(self, tmp_path):
        src = column(tmp_path, "a.txt", " 1 \r\n2\r\n")
        assert read_column_file(src) == ["1", "2"]

    def test_lone_carriage_return_is_a_line_break_in_a_token(self, tmp_path):
        # only a line feed ends a line, so the columns cannot drift apart
        src = column(tmp_path, "a.txt", "header\n1\n1\r2\n3\n")
        with raises_code("BAD_STRATA_TOKEN") as exc:
            read_column_file(src, skip_header=1)
        assert (exc.value.source, exc.value.line) == (str(src.path), 3)
        assert exc.value.message == "column 'region' contains a line break: '1\\r2'"

    def test_carriage_return_line_endings_fail_at_line_one(self, tmp_path):
        src = column(tmp_path, "a.txt", "1\r2\r3\r")
        with raises_code("BAD_STRATA_TOKEN") as exc:
            read_column_file(src)
        assert exc.value.line == 1

    def test_bom_stripped(self, tmp_path):
        path = tmp_path / "a.txt"
        path.write_bytes(b"\xef\xbb\xbf7\n8\n")
        assert read_column_file(ColumnSource(path, Variable.REGION)) == ["7", "8"]

    def test_skip_header(self, tmp_path):
        src = column(tmp_path, "a.txt", "region\n1\n2\n")
        assert read_column_file(src, skip_header=1) == ["1", "2"]

    def test_interior_blank_line_is_an_error(self, tmp_path):
        # a silent skip would shift every later person across files
        src = column(tmp_path, "a.txt", "1\n\n3\n")
        with raises_code("BLANK_LINE") as exc:
            read_column_file(src)
        assert exc.value.line == 2

    def test_empty_file(self, tmp_path):
        src = column(tmp_path, "a.txt", "")
        with raises_code("EMPTY_FILE"):
            read_column_file(src)

    def test_header_only_file_is_empty(self, tmp_path):
        src = column(tmp_path, "a.txt", "region\n")
        with raises_code("EMPTY_FILE"):
            read_column_file(src, skip_header=1)

    def test_unreadable_path(self, tmp_path):
        src = ColumnSource(tmp_path / "absent.txt", Variable.REGION)
        with raises_code("IO_ERROR"):
            read_column_file(src)


class TestZipColumns:
    """Column files zipped into one tuple per person, in variable order."""

    def write(self, tmp_path, **extra):
        columns = {
            Variable.REGION: ["1", "1"],
            Variable.MILIEU: ["1", "1"],
            Variable.CLUSTER: ["1", "1"],
            Variable.HOUSEHOLD: ["1", "1"],
            Variable.AGE: ["30", "7"],
            Variable.GENDER: ["1", "2"],
            Variable.POSWRCHIEF: ["1", "2"],
        }
        columns.update({Variable[name.upper()]: tokens for name, tokens in extra.items()})
        sources = []
        # listed in reverse: the tuple order is the variable order regardless
        for variable, tokens in reversed(columns.items()):
            path = tmp_path / f"{variable.value}.txt"
            path.write_text("".join(f"{t}\n" for t in tokens), encoding="utf-8")
            sources.append(ColumnSource(path, variable))
        return sources

    def test_alignment(self, tmp_path):
        records = read_column_sources(self.write(tmp_path))
        assert records == [("1", "1", "1", "1", "30", "1", "1"),
                           ("1", "1", "1", "1", "7", "2", "2")]

    def test_income_column_optional(self, tmp_path):
        records = read_column_sources(self.write(tmp_path, income=["A", "B"]))
        assert [r[-1] for r in records] == ["A", "B"]

    def test_length_mismatch_names_the_variable(self, tmp_path):
        with raises_code("LENGTH_MISMATCH") as exc:
            read_column_sources(self.write(tmp_path, age=["30"]))
        assert exc.value.message == "column 'age' has 1 tokens, expected 2"

    def test_reads_only_the_sources_given(self, tmp_path):
        strata = self.write(tmp_path)[-4:]
        assert read_column_sources(strata) == [("1", "1", "1", "1")] * 2

    def test_missing_required_variable(self, tmp_path):
        self.write(tmp_path)
        files = {v: f"{v.value}.txt" for v in Variable if v is not Variable.INCOME}
        del files[Variable.GENDER]
        config = PipelineConfig(input_dir=tmp_path, column_files=files)
        with raises_code("ERROR") as info:
            run_pipeline(config)
        assert info.value.message == "no source supplies variable 'gender'"
        # identify reads the strata alone and needs no gender column
        assert run_identify(config).persons == 2


def test_read_column_sources_rejects_duplicate_variable(tmp_path):
    (tmp_path / "a.txt").write_text("1\n", encoding="utf-8")
    sources = [
        ColumnSource(tmp_path / "a.txt", Variable.REGION),
        ColumnSource(tmp_path / "a.txt", Variable.REGION),
    ]
    with raises_code("ERROR"):
        read_column_sources(sources)


class TestReadTable:
    def write(self, tmp_path, text, delimiter=","):
        path = tmp_path / "persons.csv"
        path.write_text(text, encoding="utf-8")
        column_map = {
            Variable.REGION: "region",
            Variable.MILIEU: "milieu",
            Variable.CLUSTER: "cluster",
            Variable.HOUSEHOLD: "household",
            Variable.AGE: "age",
            Variable.GENDER: "gender",
            Variable.POSWRCHIEF: "poswrchief",
        }
        return TableSource(path, column_map, delimiter=delimiter)

    HEADER = "region,milieu,cluster,household,age,gender,poswrchief\n"

    def test_basic(self, tmp_path):
        src = self.write(tmp_path, self.HEADER + "1,1,1,1,30,1,1\n1,1,1,1,7,2,2\n")
        records = read_table(src)
        assert records == [("1", "1", "1", "1", "30", "1", "1"),
                           ("1", "1", "1", "1", "7", "2", "2")]

    def test_starts_hold_the_rows_after_multi_line_rows(self, tmp_path):
        header = 'region,milieu,cluster,household,age,gender,poswrchief,"two\nlines"\n'
        rows = ['1,1,1,1,30,1,1,"a\nb\nc"', "1,1,1,1,7,2,2,", '1,1,1,2,9,2,1,"d\ne"',
                "1,1,1,2,8,2,2,", "1,1,1,2,6,1,2,"]
        lines = []
        records = read_table(self.write(tmp_path, header + "\n".join(rows) + "\n"),
                             skip_header=0, lines=lines)
        assert len(records) == 5
        # header on lines 1-2, rows on lines 3-5, 6, 7-8, 9 and 10
        assert list(chain.from_iterable(lines)) == [3, 6, 7, 9, 10]
        # one range per run of rows up to a multi-line row: sparse, as a table
        # may hold a multi-line cell in most blocks
        assert lines == [range(3, 4), range(6, 8), range(9, 11)]

    def test_linebreak_outside_strata_rejected(self, tmp_path):
        src = self.write(tmp_path, self.HEADER + '1,1,1,1,30,1,"1\r1"\n')
        with raises_code("BAD_STRATA_TOKEN") as exc:
            read_table(src)
        assert exc.value.message == "column 'poswrchief' contains a line break: '1\\r1'"
        assert exc.value.line == 2

    def test_reads_only_the_mapped_columns(self, tmp_path):
        src = self.write(tmp_path, "household,region,cluster,milieu\n4,1,3,2\n")
        strata = {v: src.column_map[v] for v in
                  (Variable.HOUSEHOLD, Variable.MILIEU, Variable.REGION, Variable.CLUSTER)}
        assert read_table(TableSource(src.path, strata)) == [("1", "2", "3", "4")]

    def test_extra_columns_ignored(self, tmp_path):
        src = self.write(
            tmp_path,
            "region,milieu,cluster,household,age,gender,poswrchief,junk\n"
            "1,1,1,1,30,1,1,zzz\n",
        )
        assert read_table(src)[0][0] == "1"

    def test_quoted_cells(self, tmp_path):
        src = self.write(tmp_path, self.HEADER + '"1",1,1,1,"30",1,"1"\n')
        assert read_table(src) == [("1", "1", "1", "1", "30", "1", "1")]

    def test_semicolon_delimiter(self, tmp_path):
        src = self.write(
            tmp_path,
            self.HEADER.replace(",", ";") + "1;1;1;1;30;1;1\n",
            delimiter=";",
        )
        assert read_table(src)[0][4] == "30"

    def test_missing_column(self, tmp_path):
        src = self.write(tmp_path, "region,milieu,cluster,household,age,gender\n1,1,1,1,30,1\n")
        with raises_code("MISSING_COLUMN") as exc:
            read_table(src)
        assert "poswrchief" in exc.value.message

    def test_row_arity_mismatch_locates_line(self, tmp_path):
        src = self.write(tmp_path, self.HEADER + "1,1,1,1,30,1,1\n1,1,1\n")
        with raises_code("ROW_ARITY_MISMATCH") as exc:
            read_table(src)
        assert exc.value.line == 3

    def test_no_data_rows(self, tmp_path):
        src = self.write(tmp_path, self.HEADER)
        with raises_code("EMPTY_FILE"):
            read_table(src)

    def test_skip_header_lines_before_real_header(self, tmp_path):
        src = self.write(tmp_path, "export 2026\n" + self.HEADER + "1,1,1,1,30,1,1\n")
        assert read_table(src, skip_header=1)[0][4] == "30"


def read_rows(path, column_map, delimiter):
    """A row-at-a-time reference reader: (persons, each row's first line)
    of the table, or (code, line) of its first error."""
    with path.open(encoding="utf-8-sig", newline="") as handle:
        reader = csv.reader(handle, delimiter=delimiter)
        names = [cell.strip() for cell in next(reader)]
        indexes = [names.index(column_map[v]) for v in Variable if v in column_map]
        persons, firsts = [], []
        last = reader.line_num
        for row in reader:
            first, last = last + 1, reader.line_num
            if len(row) != len(names):
                return "ROW_ARITY_MISMATCH", first
            person = tuple(row[i].strip() for i in indexes)
            for token in person:
                if not token:
                    return "EMPTY_TOKEN", first
                if "\n" in token or "\r" in token:
                    return "BAD_STRATA_TOKEN", first
            persons.append(person)
            firsts.append(first)
    return (persons, firsts) if persons else ("EMPTY_FILE", None)


#: Good cells of the read columns, their faults, and cells of an unread note.
READ_CELLS = st.sampled_from(["1", "2", " 3", "4 ", "10"])
BAD_CELLS = st.sampled_from(["", " ", "5\n6", "7\r8", "7\r\n8"])
NOTE_CELLS = st.sampled_from(["", "n", "a\nb", "a\r\nb", "a\rb", "\r", "\n\n", 'q"q', "x,y",
                              "x\ty"])


@st.composite
def tables(draw):
    """(text, delimiter, read variables) of a table: a header of every
    variable and a note, then rows of which a few hold a bad read cell or
    one cell more or less; breaks quoted inside cells (a lone carriage
    return sometimes bare), line feed or CRLF row ends, and a BOM or none."""
    delimiter = draw(st.sampled_from([",", "\t"]))
    rows = [[v.value for v in Variable] + ["note"]]
    for _ in range(draw(st.integers(0, 12))):
        row = [draw(READ_CELLS) for _ in Variable] + [draw(NOTE_CELLS)]
        fault = draw(st.integers(0, 24))
        if fault == 0:
            row[draw(st.integers(0, 7))] = draw(BAD_CELLS)
        elif fault in (1, 2):
            row = (row + ["1"])[:8 + fault]
        rows.append(row)
    bare = draw(st.booleans())

    def cell(text):
        if text == "a\rb" and bare:
            return text
        if any(c in text for c in (delimiter, '"', "\n", "\r")):
            return '"' + text.replace('"', '""') + '"'
        return text

    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in rows]
    text = "".join(delimiter.join(map(cell, row)) + end for row, end in zip(rows, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    read = draw(st.sampled_from([list(Variable), list(Variable)[:4], list(Variable)[4:]]))
    return ("\ufeff" if draw(st.booleans()) else "") + text, delimiter, read


class TestReadTableBlocks:
    """The block reader gives what a row-at-a-time reader gives, at every
    block size."""

    @settings(max_examples=150, deadline=None)
    @given(tables())
    def test_same_persons_starts_and_errors(self, tmp_path_factory, table):
        text, delimiter, read = table
        path = tmp_path_factory.mktemp("blocks") / "persons.csv"
        path.write_bytes(text.encode("utf-8"))
        column_map = {v: v.value for v in read}
        want = read_rows(path, column_map, delimiter)
        default = ingest.TABLE_BLOCK_ROWS
        try:
            for block in (1, 2, 3, default):
                ingest.TABLE_BLOCK_ROWS = block
                lines = []
                try:
                    got = (read_table(TableSource(path, column_map, delimiter), lines=lines),
                           list(chain.from_iterable(lines)))
                except HdbError as exc:
                    got = exc.code, exc.line
                assert got == want, block
        finally:
            ingest.TABLE_BLOCK_ROWS = default


class TestParseAge:
    def test_years_integer_and_fraction(self):
        assert parse_age("30", AgeEncoding.YEARS) == Age(30.0)
        assert parse_age("0.5", AgeEncoding.YEARS) == Age(0.5)
        assert parse_age(" 15 ", AgeEncoding.YEARS) == Age(15.0)

    @pytest.mark.parametrize("token", ["", "abc", "12ans", "-3", "nan", "inf", "-inf", "1_5"])
    def test_years_rejects_junk(self, token):
        with raises_code("BAD_AGE_TOKEN"):
            parse_age(token, AgeEncoding.YEARS)

    def test_unknown_age_code_paper_compat(self):
        age = parse_age("99", AgeEncoding.YEARS)
        assert age == Age(99.0) and not age.missing

    def test_unknown_age_code_strict(self):
        age = parse_age("99", AgeEncoding.YEARS, MissingAgePolicy.STRICT)
        assert age.missing and age.value == 99.0
        # the reserved code is years-specific
        assert not parse_age("99", AgeEncoding.FIVE_YEAR_CLASSES,
                             MissingAgePolicy.STRICT).missing

    def test_classes_integer_only(self):
        assert parse_age("4", AgeEncoding.FIVE_YEAR_CLASSES) == Age(4.0)
        for token in ["0", "-1", "3.5", "x", "1_2"]:
            with raises_code("BAD_AGE_TOKEN"):
                parse_age(token, AgeEncoding.FIVE_YEAR_CLASSES)

    @given(st.floats(min_value=0, max_value=150, allow_nan=False, allow_infinity=False))
    def test_years_accepts_any_printable_nonnegative(self, value):
        assert parse_age(str(value), AgeEncoding.YEARS).value == value


class TestParseGender:
    def test_male0_female1(self):
        enc = GenderEncoding.MALE0_FEMALE1
        assert parse_gender("0", enc) is Gender.MALE
        assert parse_gender(" 1 ", enc) is Gender.FEMALE
        with raises_code("BAD_GENDER_TOKEN"):
            parse_gender("2", enc)

    def test_male1_female2(self):
        enc = GenderEncoding.MALE1_FEMALE2
        assert parse_gender("1", enc) is Gender.MALE
        assert parse_gender("2", enc) is Gender.FEMALE
        with raises_code("BAD_GENDER_TOKEN"):
            parse_gender("0", enc)

    @pytest.mark.parametrize("token", ["", "M", "male", "1.0"])
    def test_junk_tokens(self, token):
        with raises_code("BAD_GENDER_TOKEN"):
            parse_gender(token, GenderEncoding.MALE1_FEMALE2)
