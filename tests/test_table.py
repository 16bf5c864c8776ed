"""The shared CSV table format: exact bytes of each writer, one error for
every malformed file, and exit code 1 for it through the CLI."""

import pytest

from nomadlite.cli import main
from nomadlite.degrade import ManifestRow, read_manifest, write_manifest
from nomadlite.errors import MalformedTableError, NomadError
from nomadlite.evaluate import read_mos
from nomadlite.score import ScoreRow, read_scores, write_scores
from nomadlite.triplets import TripletRecord, read_triplets, write_triplets


class TestGoldenBytes:
    def test_manifest(self, tmp_path):
        rows = [ManifestRow("out/s1__clean.wav", "s1", "clean", 0, 0.0, 1.0),
                ManifestRow("out/s1,x__noise_l2.wav", "s1", "noise", 2, 15.0, 0.1)]
        path = tmp_path / "manifest.csv"
        write_manifest(rows, path)
        assert path.read_bytes() == (
            b"clip_path,source_id,family,level_index,level_param,nsim\n"
            b"out/s1__clean.wav,s1,clean,0,0,1\n"
            b'"out/s1,x__noise_l2.wav",s1,noise,2,15,0.10000000000000001\n'
        )
        assert read_manifest(path) == rows

    def test_triplets(self, tmp_path):
        records = [TripletRecord("s1", "a.wav", "p.wav", "n.wav", 0.8, 0.78, 0.5, "easy"),
                   TripletRecord("s2", "a2.wav", "p2.wav", "n2.wav", 1 / 3, 0.25, 0.0, "hard")]
        path = tmp_path / "t.csv"
        write_triplets(records, path)
        assert path.read_bytes() == (
            b"source_id,anchor_path,positive_path,negative_path,q_a,q_p,q_n,strategy\n"
            b"s1,a.wav,p.wav,n.wav,0.80000000000000004,0.78000000000000003,0.5,easy\n"
            b"s2,a2.wav,p2.wav,n2.wav,0.33333333333333331,0.25,0,hard\n"
        )
        assert read_triplets(path) == records


# one good data row per reader, and the index of a numeric column in it
READERS = {
    "manifest": (read_manifest, "clip_path,source_id,family,level_index,level_param,nsim",
                 "a.wav,s,noise,1,8,0.5", 3),
    "triplets": (read_triplets,
                 "source_id,anchor_path,positive_path,negative_path,q_a,q_p,q_n,strategy",
                 "s,a.wav,p.wav,n.wav,0.8,0.7,0.5,easy", 4),
    "scores": (read_scores, "clip_path,nomad,mode,pool_id", "a.wav,0.5,nmr,p", 1),
    "mos": (read_mos, "clip_path,condition_id,mos", "a.wav,c,3.5", 2),
}
# the index of a float column in each reader's row
FLOAT_COLUMN = {"manifest": 5, "triplets": 4, "scores": 1, "mos": 2}
NON_FINITE = ["nan", "inf", "-inf"]


def _bad_row(good: str, numeric: int, case: str, float_column: int) -> str:
    cells = good.split(",")
    if case in NON_FINITE:
        cells[float_column] = case
        return ",".join(cells)
    if case == "short":
        return ",".join(cells[:-1])
    if case == "long":
        return good + ",x"
    if case == "not_a_number":
        cells[numeric] = "abc"
        return ",".join(cells)
    assert case == "huge_cell"
    cells[0] = "x" * 200_000  # beyond the csv module's field size limit
    return ",".join(cells)


CASES = ["empty", "short", "long", "not_a_number", "huge_cell"] + NON_FINITE


def malformed_file(tmp_path, reader: str, case: str):
    """Write a malformed table; return its path and the line the error names."""
    _, header, good, numeric = READERS[reader]
    path = tmp_path / f"{reader}_{case}.csv"
    if case == "empty":
        path.write_text("")
        return path, 1
    path.write_text(f"{header}\n{good}\n{_bad_row(good, numeric, case, FLOAT_COLUMN[reader])}\n")
    return path, 3


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_table_raises(tmp_path, reader, case):
    path, line = malformed_file(tmp_path, reader, case)
    with pytest.raises(MalformedTableError) as e:
        READERS[reader][0](path)
    assert isinstance(e.value, NomadError) and isinstance(e.value, ValueError)
    assert f"{path}:{line}:" in str(e.value)
    if case == "not_a_number":
        assert "abc" in str(e.value)
    if case in NON_FINITE:
        assert f"{case!r} is not finite" in str(e.value)


def test_blank_lines_are_skipped(tmp_path):
    path = tmp_path / "mos.csv"
    path.write_text("clip_path,condition_id,mos\n\na.wav,c,3.5\n\n")
    assert [(r.clip_path, r.mos) for r in read_mos(path)] == [("a.wav", 3.5)]


def _cli_args(tmp_path, reader: str, bad) -> list[str]:
    """A command that reads the malformed table; its other inputs are valid."""
    scores = tmp_path / "scores.csv"
    manifest = tmp_path / "manifest.csv"
    mos = tmp_path / "mos.csv"
    write_scores([ScoreRow("a.wav", 0.5, "nmr", "p")], scores)
    write_manifest([ManifestRow("a.wav", "s", "noise", 1, 8.0, 0.5)], manifest)
    mos.write_text("clip_path,condition_id,mos\na.wav,c,3.5\n")
    return {
        "manifest": ["eval-rank", "--scores", str(scores), "--manifest", str(bad)],
        "scores": ["eval-rank", "--scores", str(bad), "--manifest", str(manifest)],
        "triplets": ["train", "--triplets", str(bad), "--val", str(bad),
                     "--out", str(tmp_path / "m.ckpt")],
        "mos": ["eval-mos", "--scores", str(scores), "--mos", str(bad)],
    }[reader]


def test_non_utf8_table_exits_one(tmp_path, capsys):
    mos = tmp_path / "mos_latin1.csv"
    mos.write_bytes("clip_path,condition_id,mos\na.wav,caf\u00e9,3.5\n".encode("latin-1"))
    with pytest.raises(MalformedTableError):
        read_mos(mos)
    assert main(["--quiet", *_cli_args(tmp_path, "mos", mos)]) == 1
    err = capsys.readouterr().err
    assert str(mos) in err and "Traceback" not in err


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("reader", sorted(READERS))
def test_malformed_table_exits_one(tmp_path, capsys, reader, case):
    path, line = malformed_file(tmp_path, reader, case)
    assert main(["--quiet", *_cli_args(tmp_path, reader, path)]) == 1
    err = capsys.readouterr().err
    assert f"{path}:{line}:" in err and "Traceback" not in err
