import pytest

from hdbprep.cli import main


@pytest.fixture()
def synth_dir(tmp_path):
    data = tmp_path / "data"
    code = main(["synth", "--seed", "7", "--households", "12",
                 "--out-dir", str(data)])
    assert code == 0
    return data


class TestSynthCommand:
    def test_writes_columns_and_config(self, tmp_path, capsys):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "7", "--households", "12",
                     "--out-dir", str(data)]) == 0
        out = capsys.readouterr().out
        assert "persons:" in out
        assert "households: 12" in out
        for name in ("region.txt", "milieu.txt", "cluster.txt", "household.txt",
                     "age.txt", "gender.txt", "poswrchief.txt",
                     "monthlyincomeNT.txt", "config.ini"):
            assert (data / name).exists(), name

    def test_table_flag(self, tmp_path):
        data = tmp_path / "data"
        assert main(["synth", "--seed", "7", "--households", "12",
                     "--out-dir", str(data), "--table"]) == 0
        assert (data / "persons.csv").exists()

    def test_bad_parameters_exit_two(self, tmp_path):
        code = main(["synth", "--seed", "1", "--households", "2",
                     "--out-dir", str(tmp_path / "d")])
        assert code == 2  # 2 households cannot fill the default 4 regions

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        main(["synth", "--seed", "5", "--households", "10", "--out-dir", str(a)])
        main(["synth", "--seed", "5", "--households", "10", "--out-dir", str(b)])
        assert (a / "age.txt").read_bytes() == (b / "age.txt").read_bytes()
        assert (a / "household.txt").read_bytes() == (b / "household.txt").read_bytes()


class TestRunCommand:
    def test_full_run(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["run", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "persons read:" in printed
        assert "households: 12" in printed
        for name in ("identhousehold.txt", "monthlyincome.txt", "scaleoxford.txt",
                     "scalefaofam.txt", "scaleDMP-0.5-0.7.txt", "sizehousehold.txt",
                     "totalincome.txt", "labelregion.txt", "labelgender.txt",
                     "households.csv"):
            assert (out / name).exists(), name

    def test_outputs_default_next_to_inputs(self, synth_dir):
        code = main(["run", "--config", str(synth_dir / "config.ini")])
        assert code == 0
        assert (synth_dir / "households.csv").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_data_error_exits_one_with_location(self, synth_dir, capsys):
        age = synth_dir / "age.txt"
        lines = age.read_text().splitlines()
        lines[4] = "unknown"
        age.write_text("".join(f"{l}\n" for l in lines))
        code = main(["run", "--config", str(synth_dir / "config.ini")])
        assert code == 1
        err = capsys.readouterr().err
        assert "BAD_AGE_TOKEN" in err
        assert "line 5" in err
        assert "[aggregate]" in err

    def test_sentinel_flag_keeps_the_run_alive(self, synth_dir, tmp_path):
        age = synth_dir / "age.txt"
        lines = age.read_text().splitlines()
        lines[4] = "unknown"
        age.write_text("".join(f"{l}\n" for l in lines))
        out = tmp_path / "out"
        code = main(["run", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--paper-sentinel"])
        assert code == 0
        oxford = [float(t) for t in
                  (out / "scaleoxford.txt").read_text().splitlines()]
        # clean weights are multiples of 0.1; the 0.99 flag leaves a 9 in
        # the hundredths digit of exactly one household sum
        assert sum(round(v * 100) % 10 == 9 for v in oxford) == 1


class TestStageCommands:
    def test_identify(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["identify", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        keys = (out / "identhousehold.txt").read_text().splitlines()
        assert all(k.startswith("R") for k in keys)

    def test_identify_scheme_override(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        main(["identify", "--config", str(synth_dir / "config.ini"),
              "--out-dir", str(out), "--scheme", "DMCH"])
        keys = (out / "identhousehold.txt").read_text().splitlines()
        assert all(k.startswith("D") for k in keys)

    def test_recode_income(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["recode-income", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out)])
        assert code == 0
        amounts = (out / "monthlyincome.txt").read_text().splitlines()
        letters = (synth_dir / "monthlyincomeNT.txt").read_text().splitlines()
        assert len(amounts) == len(letters)

    def test_aggregate_only(self, synth_dir, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["aggregate", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--only", "size", "chief"])
        assert code == 0
        assert (out / "sizehousehold.txt").exists()
        assert (out / "labelgender.txt").exists()
        assert not (out / "scaleoxford.txt").exists()

    def test_aggregate_only_rejects_unknown(self, synth_dir):
        with pytest.raises(SystemExit) as info:
            main(["aggregate", "--config", str(synth_dir / "config.ini"),
                  "--only", "median"])
        assert info.value.code == 2

    def test_aggregate_dmp_override(self, synth_dir, tmp_path):
        out = tmp_path / "out"
        code = main(["aggregate", "--config", str(synth_dir / "config.ini"),
                     "--out-dir", str(out), "--only", "dmp", "size",
                     "--dmp-c", "1", "--dmp-s", "1"])
        assert code == 0
        # c=1, s=1 collapses the scale to plain household size
        dmp = (out / "scaleDMP-1-1.txt").read_text().splitlines()
        sizes = (out / "sizehousehold.txt").read_text().splitlines()
        assert dmp == sizes

    def test_recode_without_letter_mode_exits_two(self, tmp_path, capsys):
        data = tmp_path / "data"
        main(["synth", "--seed", "3", "--households", "10",
              "--out-dir", str(data), "--income", "none"])
        code = main(["recode-income", "--config", str(data / "config.ini")])
        assert code == 2
        assert "error:" in capsys.readouterr().err


def write_two_persons(directory, income=("A", "B"), gender=("1", "2")):
    """One household: an adult chief on line 1 and a child on line 2, with
    letter incomes and a config that enables every output."""
    directory.mkdir(parents=True, exist_ok=True)
    columns = {
        "region.txt": ("1", "1"), "milieu.txt": ("1", "1"),
        "cluster.txt": ("1", "1"), "household.txt": ("1", "1"),
        "age.txt": ("40", "10"), "gender.txt": gender,
        "poswrchief.txt": ("1", "2"), "monthlyincomeNT.txt": income,
    }
    for name, tokens in columns.items():
        (directory / name).write_text("".join(f"{t}\n" for t in tokens))
    config = directory / "config.ini"
    config.write_text("[income]\nmode = letters\n")
    return config


class TestOutputSelections:
    """Each command computes only what its outputs need, and a run that
    stops on a data error writes nothing."""

    def test_identify_does_not_recode_income(self, tmp_path, capsys):
        config = write_two_persons(tmp_path / "data", income=("A", "Z"))
        out = tmp_path / "out"
        assert main(["identify", "--config", str(config), "--out-dir", str(out)]) == 0
        assert (out / "identhousehold.txt").read_text().splitlines() == ["R1M1C1H1"] * 2
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert "[recode] UNKNOWN_INCOME_CODE (line 2)" in err

    def test_failed_run_leaves_earlier_outputs_untouched(self, tmp_path, capsys):
        data = tmp_path / "data"
        out = tmp_path / "out"
        config = write_two_persons(data)
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        capsys.readouterr()
        write_two_persons(data, income=("A", "C"), gender=("9", "2"))
        assert main(["run", "--config", str(config), "--out-dir", str(out)]) == 1
        assert "BAD_GENDER_TOKEN" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before


class TestUndecodableInput:
    """A byte that is not UTF-8 is a located data error, never a traceback."""

    @pytest.mark.parametrize("layout", ["columns", "table"])
    def test_names_file_and_line(self, layout, tmp_path, capsys):
        data = tmp_path / "data"
        # enough persons that the table's bad byte lies past the first
        # read chunk, where a decoder's own offsets no longer count lines
        assert main(["synth", "--seed", "3", "--households", "200",
                     "--out-dir", str(data), "--table"]) == 0
        config = data / "config.ini"
        name = "region.txt" if layout == "columns" else "persons.csv"
        if layout == "table":
            config.write_text(config.read_text().replace(
                "mode = columns", "mode = table\ntable = persons.csv"))
        lines = (data / name).read_bytes().split(b"\n")
        if layout == "table":
            assert len(b"\n".join(lines[:599])) > 8192
        lines[599] = b"\xe9" + lines[599]
        (data / name).write_bytes(b"\n".join(lines))
        capsys.readouterr()
        assert main(["run", "--config", str(config), "--out-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert f"{name}:600)" in err
        assert "not valid UTF-8" in err
        assert not (tmp_path / "out").exists()

    def test_config_file(self, tmp_path, capsys):
        config = tmp_path / "config.ini"
        config.write_bytes(b"[input]\nmode = columns\n; r\xe9gion\n")
        assert main(["run", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert "config.ini:3)" in err
        assert "not valid UTF-8" in err
