"""Error and warning codes, and the one error class that carries them.

Every problem the toolkit reports has a stable code, and `CODES` is the
one table of them: each code maps to the process exit code and a one-line
meaning. Exit code 1 marks a problem in the survey content itself, for
example a bad token or misaligned columns; exit code 2 a problem with the
configuration or the environment; exit code 0 a warning, a non-fatal
anomaly.

An `HdbError` carries one code and a message, plus an optional source
file, line number and pipeline stage, so the CLI can point at the
offending input. A warning is an `HdbError` too: the run collects it
instead of raising it, and the run report lists it.
"""

from __future__ import annotations

#: code -> (exit code, meaning); exit code 0 marks a warning.
CODES: dict[str, tuple[int, str]] = {
    "ERROR": (2, "bad configuration, parameter or config file"),
    "IO_ERROR": (2, "a file cannot be read or written"),
    "BAD_ENCODING": (2, "unknown encoding, missing-age policy, income mode or scale"),
    "DMP_PARAM_OUT_OF_RANGE": (2, "a DMP parameter lies outside [0, 1]"),
    "NOT_UTF8": (1, "an input file holds bytes that are not UTF-8"),
    "EMPTY_FILE": (1, "an input file has no data lines, or a table no header row"),
    "BLANK_LINE": (1, "a column file has a blank line before its end"),
    "LENGTH_MISMATCH": (1, "a column file has more or fewer lines than the first"),
    "MISSING_COLUMN": (1, "a configured column is not in the table's header row"),
    "ROW_ARITY_MISMATCH": (1, "a table row has more or fewer cells than the header"),
    "BAD_TABLE_ROW": (1, "a table row cannot be parsed, such as a cell over the csv "
                         "field size limit"),
    "EMPTY_TOKEN": (1, "a table cell or a strata token is empty"),
    "BAD_STRATA_TOKEN": (1, "a table cell or a column-file token holds a line break or a U+FEFF"),
    "PREFIX_COLLISION": (1, "a strata token contains a prefix letter of the key"),
    "MALFORMED_KEY": (1, "a string is not a canonical household key"),
    "BAD_AGE_TOKEN": (1, "an age token is not a valid age under its encoding"),
    "BAD_GENDER_TOKEN": (1, "a gender token is not one of its encoding's two codes"),
    "BAD_INCOME_TOKEN": (1, "an income token is empty or not a finite amount"),
    "UNKNOWN_INCOME_CODE": (1, "an income letter is not in the range map"),
    "MISSING_INCOME": (1, "a member has no income amount while income is on"),
    "NON_CONSECUTIVE_KEY": (1, "a household reappears after another; input not grouped"),
    "EMPTY_HOUSEHOLD": (1, "a household has no members, or negative counts"),
    "ZERO_SCALE": (1, "the scale that divides a household's income is not positive"),
    "INCOME_OVERFLOW": (1, "a household's income total or scaled income is not finite"),
    "AGE_MISSING": (0, "the unknown-age code 99, read under the strict policy"),
    "MULTIPLE_CHIEFS": (0, "a household marks more than one member as chief"),
}


class HdbError(Exception):
    """A coded toolkit error; its exit code is its code's row of CODES."""

    def __init__(self, code: str, message: str, *, source=None, line: int | None = None):
        super().__init__(message)
        self.code = code
        self.message = message
        self.source = source
        self.line = line
        self.stage: str | None = None

    @property
    def exit_code(self) -> int:
        return CODES[self.code][0]

    def at(self, *, source=None, line: int | None = None, stage: str | None = None):
        """Attach location or stage info if not already set; returns self."""
        if self.source is None and source is not None:
            self.source = source
        if self.line is None and line is not None:
            self.line = line
        if self.stage is None and stage is not None:
            self.stage = stage
        return self

    def location(self) -> str:
        if self.source is not None and self.line is not None:
            return f"{self.source}:{self.line}"
        if self.source is not None:
            return str(self.source)
        if self.line is not None:
            return f"line {self.line}"
        return ""

    def __str__(self) -> str:
        parts = []
        if self.stage:
            parts.append(f"[{self.stage}]")
        parts.append(self.code)
        loc = self.location()
        if loc:
            parts.append(f"({loc})")
        return " ".join(parts) + f": {self.message}"
