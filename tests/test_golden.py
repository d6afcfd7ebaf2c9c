"""Pinned output bytes of every processing command on four small
synthetic corpora.

Each case generates its corpus with `hdbprep synth`, runs one command
(`run`, `identify`, `recode-income` or `aggregate`) on it and compares the sha256 of stdout (with the output directory
replaced by a placeholder) and of every file written against committed
digests. Any change to an output byte fails here, so a refactor that
claims byte-identical output is checked against the committed history,
not only against a second run of itself. A deliberate output change must
update the digests in the same commit.
"""

import hashlib

import pytest

from hdbprep.cli import main

#: case -> (synth flags, run flags)
CASES = {
    "letters_years_anomalies": (
        ["--income", "letters", "--age-encoding", "years", "--anomalies"], [],
    ),
    "numeric_classes_renumber_sorted": (
        ["--income", "numeric", "--age-encoding", "classes", "--renumber"], ["--sort"],
    ),
    "no_income": (["--income", "none"], []),
    "letters_paper_sentinel": (["--income", "letters"], ["--paper-sentinel"]),
}

GOLDEN = {
    "letters_paper_sentinel": {
        "households.csv":
            "d58616fc74cc7116920b5eef2b48869e12e37b399c6ac4cc920f1b07c5e8a556",
        "identhousehold.txt":
            "44398a504455b584be8fdc19f9d83cedf9a5174f073f1b1af2a4c69a010c952a",
        "labelgender.txt":
            "ad37910c2249bd89400a32963616a77b15306d7908c78aef332557aa7559d1d7",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "monthlyincome.txt":
            "b8c10e2a63259ae7282c13163d50957e21764182249de755967e801faa26edbd",
        "scaleDMP-0.5-0.7.txt":
            "76de4cb81cb2c46f35816ca6046bea5002ee7ea9f555b2956d52383fa3d09837",
        "scalefaofam.txt":
            "4ce58b994467f5d1a7a49d7623da3d0b1e5e47c5b5413d8ae9e8bd0c976f1b45",
        "scaleoxford.txt":
            "974621f1071a5c97bd9e392471486bcf71c3930eda01baa5fc594a9d4c34dbd7",
        "sizehousehold.txt":
            "79890cd686c0adaf0cf7268187d3b7f289a6fecafe7c51d0616d07788dd5b11d",
        "stdout":
            "89e0e52f77a4318d131c84e66b64daa2d4844e201832756ae231b3c23afc7a92",
        "totalincome.txt":
            "cdbd5e015524867f7d84b87e41511b11d24feba19b1c22efbb01a16cc0581c10",
    },
    "letters_years_anomalies": {
        "households.csv":
            "b3c2c6464d7c0a543a0ac92a33990698c21573848bace84eaf5a12bf72c0ad97",
        "identhousehold.txt":
            "cde1396621f304368f03fd42dee9c71c91c162e58489964ac9156d0497fa9944",
        "labelgender.txt":
            "ebe5a9255e7f32135e4268fdcd2dafc1701b40f977fe101063dd6f16bf4c408f",
        "labelregion.txt":
            "2edfdcef8249d08b987cfd1805801c6a6833060601fb639fd5224c34f5248b0d",
        "monthlyincome.txt":
            "c4791f1f7f3e3d0363810d51d915f029f1d689fee0deddbef8ae75494bb31245",
        "scaleDMP-0.5-0.7.txt":
            "9b9caf6aaca50fcbbc2d09fb32268e6ba0d3eae51ceebf153c88330f98f25aaf",
        "scalefaofam.txt":
            "e509b46dc5a71bc9adaf2502835fdba5f75bead1947e135cee2e319434f5c25c",
        "scaleoxford.txt":
            "e6e96e3c0b3e46e5cfcf4bdbc5f514a9613d990f33d081fe51df0f4dc2e62e7c",
        "sizehousehold.txt":
            "b65ed3bfc9e01871837335a3dbd48acdd26c98da3c3b3ee52b669ebe2af322ab",
        "stdout":
            "afb9a10b061611bc666a377afdc262997548178de4a8178f8ff4a990309833ca",
        "totalincome.txt":
            "cee4afe9a7e5a95ec2e49fa487c82ba9f531208b4c58f8c626f4c06d91f1b807",
    },
    "no_income": {
        "households.csv":
            "cc543006147e3e63aa0b89c62b3007b660e93a4434d5ab404dbc9b1357bb751e",
        "identhousehold.txt":
            "dea1a89e74130ee90b657f9374ae835a4d1908dc802ff7bd97aa75ca8c2ed8ba",
        "labelgender.txt":
            "5dd4d4a3c7d0fa4618257e64c66a2e55cd34517c6e44980c5ebadce0b2f4fce7",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "scaleDMP-0.5-0.7.txt":
            "75e0b5af4517f94bc06a08f3b38dbf9e9dd69d5c44d6b70f1342f96cc638d69c",
        "scalefaofam.txt":
            "f73cc76b3be71988b904cd0c5d98eab2f331483b022d98f30bbab1e4f12d5e6d",
        "scaleoxford.txt":
            "f0d8e5c8c859f8c73e899a64f86c47046aaf875135f99dc42abefe5c3c5f717a",
        "sizehousehold.txt":
            "3f35d84adaa7fd91d650cbf2ac0d52db9842ee26d68099c977742f72619922ee",
        "stdout":
            "462d8f603ec286e8b8a3d7dfd728473f0cc8a8464edae6794f8101d5c1f65284",
    },
    "numeric_classes_renumber_sorted": {
        "households.csv":
            "4f21b60b8a801a8f0f8721fc76c83c54a8de7a5ad17999864ee8c6ab559ad740",
        "identhousehold.txt":
            "04b8a4caa5ead7aa615dd91d08005c9f06a97978189ef683e22f0543b70b2990",
        "labelgender.txt":
            "a110f3ae319fa48a3cf4d14a75da942c31a0d7b7d268ca1f2530ba5970bf9299",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "scaleDMP-0.5-0.7.txt":
            "3537b6a6117393ed748e3d7a27f687c34a8fe1b2539a5c22a37a09388030b21e",
        "scalefaofam.txt":
            "9217fbebe57f42697a2900c909f68cea815f70692e898a8d3b7ddff16c33d6fc",
        "scaleoxford.txt":
            "98a0ba8b0fea860bbdf713ee27165f42ad746105fdfb44d2712379598445648c",
        "sizehousehold.txt":
            "d86bacc7243f9f0d40bbeb1236a96c1b71c12ee498798fa6a3750b04025f1bcc",
        "stdout":
            "96ee6ec81871e131e44a3a0b8836a458fa9af9ad34dd8c926ef821b44dc812d0",
        "totalincome.txt":
            "0b98f01cd66e0b571604e610d7774a78feb0343ebd949f5548e31b6384848377",
    },
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(tmp_path, capsys, synth_flags, command) -> dict[str, str]:
    data = tmp_path / "data"
    out = tmp_path / "out"
    assert main(["synth", "--seed", "21", "--households", "60", "--max-size", "10",
                 "--out-dir", str(data), *synth_flags]) == 0
    capsys.readouterr()
    assert main([*command, "--config", str(data / "config.ini"),
                 "--out-dir", str(out)]) == 0
    stdout = capsys.readouterr().out.replace(str(out), "<OUT>")
    digests = {"stdout": sha256(stdout.encode("utf-8"))}
    for path in sorted(out.iterdir()):
        digests[path.name] = sha256(path.read_bytes())
    return digests


@pytest.mark.parametrize("case", sorted(CASES))
def test_run_output_bytes_are_pinned(case, tmp_path, capsys):
    synth_flags, run_flags = CASES[case]
    assert run_digests(tmp_path, capsys, synth_flags, ["run", *run_flags]) == GOLDEN[case]


#: stage case -> (corpus case, command and flags). `recode-income` needs
#: letter incomes and `--only income` needs an income column, so those two
#: skip the corpora without them.
STAGE_CASES = {
    f"{name}-{case}": (case, [*command, *CASES[case][1]])
    for name, command, cases in (
        ("identify", ["identify"], sorted(CASES)),
        ("recode-income", ["recode-income"],
         ["letters_paper_sentinel", "letters_years_anomalies"]),
        ("aggregate", ["aggregate"], sorted(CASES)),
        ("aggregate-only-income-size", ["aggregate", "--only", "income", "size"],
         [case for case in sorted(CASES) if case != "no_income"]),
    )
    for case in cases
}

STAGE_GOLDEN = {
    "aggregate-letters_paper_sentinel": {
        "labelgender.txt":
            "ad37910c2249bd89400a32963616a77b15306d7908c78aef332557aa7559d1d7",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "scaleDMP-0.5-0.7.txt":
            "76de4cb81cb2c46f35816ca6046bea5002ee7ea9f555b2956d52383fa3d09837",
        "scalefaofam.txt":
            "4ce58b994467f5d1a7a49d7623da3d0b1e5e47c5b5413d8ae9e8bd0c976f1b45",
        "scaleoxford.txt":
            "974621f1071a5c97bd9e392471486bcf71c3930eda01baa5fc594a9d4c34dbd7",
        "sizehousehold.txt":
            "79890cd686c0adaf0cf7268187d3b7f289a6fecafe7c51d0616d07788dd5b11d",
        "stdout":
            "c7c5da3dcce008b3b60d3c44de6f695abbac5df03558629257cc46e03156af83",
        "totalincome.txt":
            "cdbd5e015524867f7d84b87e41511b11d24feba19b1c22efbb01a16cc0581c10",
    },
    "aggregate-letters_years_anomalies": {
        "labelgender.txt":
            "ebe5a9255e7f32135e4268fdcd2dafc1701b40f977fe101063dd6f16bf4c408f",
        "labelregion.txt":
            "2edfdcef8249d08b987cfd1805801c6a6833060601fb639fd5224c34f5248b0d",
        "scaleDMP-0.5-0.7.txt":
            "9b9caf6aaca50fcbbc2d09fb32268e6ba0d3eae51ceebf153c88330f98f25aaf",
        "scalefaofam.txt":
            "e509b46dc5a71bc9adaf2502835fdba5f75bead1947e135cee2e319434f5c25c",
        "scaleoxford.txt":
            "e6e96e3c0b3e46e5cfcf4bdbc5f514a9613d990f33d081fe51df0f4dc2e62e7c",
        "sizehousehold.txt":
            "b65ed3bfc9e01871837335a3dbd48acdd26c98da3c3b3ee52b669ebe2af322ab",
        "stdout":
            "690b92453aad81695dcc00c55da089fc365be44d28e3b3d3c381a727ef103451",
        "totalincome.txt":
            "cee4afe9a7e5a95ec2e49fa487c82ba9f531208b4c58f8c626f4c06d91f1b807",
    },
    "aggregate-no_income": {
        "labelgender.txt":
            "5dd4d4a3c7d0fa4618257e64c66a2e55cd34517c6e44980c5ebadce0b2f4fce7",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "scaleDMP-0.5-0.7.txt":
            "75e0b5af4517f94bc06a08f3b38dbf9e9dd69d5c44d6b70f1342f96cc638d69c",
        "scalefaofam.txt":
            "f73cc76b3be71988b904cd0c5d98eab2f331483b022d98f30bbab1e4f12d5e6d",
        "scaleoxford.txt":
            "f0d8e5c8c859f8c73e899a64f86c47046aaf875135f99dc42abefe5c3c5f717a",
        "sizehousehold.txt":
            "3f35d84adaa7fd91d650cbf2ac0d52db9842ee26d68099c977742f72619922ee",
        "stdout":
            "de6be1439739a204486ab2d0a12b7b1f488e577e854f5bc7e228d91e22bbe0b2",
    },
    "aggregate-numeric_classes_renumber_sorted": {
        "labelgender.txt":
            "a110f3ae319fa48a3cf4d14a75da942c31a0d7b7d268ca1f2530ba5970bf9299",
        "labelregion.txt":
            "2c16a1dc458ccaa41d9828226ddf833799799b6761a97907fba6cf4742a0e0ba",
        "scaleDMP-0.5-0.7.txt":
            "3537b6a6117393ed748e3d7a27f687c34a8fe1b2539a5c22a37a09388030b21e",
        "scalefaofam.txt":
            "9217fbebe57f42697a2900c909f68cea815f70692e898a8d3b7ddff16c33d6fc",
        "scaleoxford.txt":
            "98a0ba8b0fea860bbdf713ee27165f42ad746105fdfb44d2712379598445648c",
        "sizehousehold.txt":
            "d86bacc7243f9f0d40bbeb1236a96c1b71c12ee498798fa6a3750b04025f1bcc",
        "stdout":
            "785fbe2dddb493b64bd44747d446b41c161fd2ea9fa596fd8eaddb664e63d3d1",
        "totalincome.txt":
            "0b98f01cd66e0b571604e610d7774a78feb0343ebd949f5548e31b6384848377",
    },
    "aggregate-only-income-size-letters_paper_sentinel": {
        "sizehousehold.txt":
            "79890cd686c0adaf0cf7268187d3b7f289a6fecafe7c51d0616d07788dd5b11d",
        "stdout":
            "8b67a23bb71aeca3c4f368dffbec88dee6afdf4064072ef50a1104b9ad84cab0",
        "totalincome.txt":
            "cdbd5e015524867f7d84b87e41511b11d24feba19b1c22efbb01a16cc0581c10",
    },
    "aggregate-only-income-size-letters_years_anomalies": {
        "sizehousehold.txt":
            "b65ed3bfc9e01871837335a3dbd48acdd26c98da3c3b3ee52b669ebe2af322ab",
        "stdout":
            "7643410385dfe40f23c1c721e73abe340cc7331616aa22f4b1e570910b30f5be",
        "totalincome.txt":
            "cee4afe9a7e5a95ec2e49fa487c82ba9f531208b4c58f8c626f4c06d91f1b807",
    },
    "aggregate-only-income-size-numeric_classes_renumber_sorted": {
        "sizehousehold.txt":
            "d86bacc7243f9f0d40bbeb1236a96c1b71c12ee498798fa6a3750b04025f1bcc",
        "stdout":
            "e650d31401359f6095356d93adbcf2507508e44d1b951f03ca72a2e94d51274c",
        "totalincome.txt":
            "0b98f01cd66e0b571604e610d7774a78feb0343ebd949f5548e31b6384848377",
    },
    "identify-letters_paper_sentinel": {
        "identhousehold.txt":
            "44398a504455b584be8fdc19f9d83cedf9a5174f073f1b1af2a4c69a010c952a",
        "stdout":
            "57afca0e91fbe8b883b7709963484610be64695dd1b2ee70756b2a29822cf000",
    },
    "identify-letters_years_anomalies": {
        "identhousehold.txt":
            "cde1396621f304368f03fd42dee9c71c91c162e58489964ac9156d0497fa9944",
        "stdout":
            "57afca0e91fbe8b883b7709963484610be64695dd1b2ee70756b2a29822cf000",
    },
    "identify-no_income": {
        "identhousehold.txt":
            "dea1a89e74130ee90b657f9374ae835a4d1908dc802ff7bd97aa75ca8c2ed8ba",
        "stdout":
            "7ccf6b1753631c4798bbadb16382996f332a39ad6a756eddef9a1d918d2cb494",
    },
    "identify-numeric_classes_renumber_sorted": {
        "identhousehold.txt":
            "04b8a4caa5ead7aa615dd91d08005c9f06a97978189ef683e22f0543b70b2990",
        "stdout":
            "2493f0bcea947d80369203aeff34d23318b73528fd0c40546c1702c395814d47",
    },
    "recode-income-letters_paper_sentinel": {
        "monthlyincome.txt":
            "b8c10e2a63259ae7282c13163d50957e21764182249de755967e801faa26edbd",
        "stdout":
            "9f73c93389e098ed5ee5c637ec22065688fb6c990416c27d6d6edb1820c9c956",
    },
    "recode-income-letters_years_anomalies": {
        "monthlyincome.txt":
            "c4791f1f7f3e3d0363810d51d915f029f1d689fee0deddbef8ae75494bb31245",
        "stdout":
            "9f73c93389e098ed5ee5c637ec22065688fb6c990416c27d6d6edb1820c9c956",
    },
}


@pytest.mark.parametrize("stage_case", sorted(STAGE_CASES))
def test_stage_output_bytes_are_pinned(stage_case, tmp_path, capsys):
    case, command = STAGE_CASES[stage_case]
    synth_flags = CASES[case][0]
    assert run_digests(tmp_path, capsys, synth_flags, command) == STAGE_GOLDEN[stage_case]
