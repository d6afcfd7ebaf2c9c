"""The full pipeline on a synthetic database.

Generates a small survey in the standard one-column-per-file layout,
along with the exact statistics every household should produce, then runs
the fused pipeline over the files and prints what came out. The same flow
is available from the shell:

    hdbprep synth --seed 7 --households 25 --out-dir demo_data
    hdbprep run --config demo_data/config.ini --out-dir demo_out
"""

import tempfile
from pathlib import Path

from hdbprep import IncomeMode, PipelineConfig, run_pipeline
from hdbprep.synth import SynthParams, generate, write_column_files

with tempfile.TemporaryDirectory(prefix="hdbprep_demo_") as tmp:
    workdir = Path(tmp)
    result = generate(SynthParams(n_households=25, seed=7, anomalies=True))
    write_column_files(result, workdir)
    print(f"generated {len(result.persons)} persons in {len(result.ground_truth)} "
          f"households under {workdir}")

    config = PipelineConfig(
        input_dir=workdir,
        income_mode=IncomeMode.LETTERS,
        out_dir=workdir / "out",
    )
    report = run_pipeline(config)
    print(report.render())

    table = (workdir / "out" / "households.csv").read_text().splitlines()
    print("first household rows:")
    for line in table[:4]:
        print(" ", line)

    # the generator kept its own books, so the output can be checked directly
    truth = result.ground_truth[0]
    first = table[1].split(",")
    print("ground truth for", truth.key.canonical,
          "size", truth.size, "oxford", truth.scale_oxford)
    assert first[0] == truth.key.canonical
    assert int(first[1]) == truth.size
    print("pipeline output matches the generator's ground truth")
