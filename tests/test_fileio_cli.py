"""Facet-list format round-trips, analysis reports, and the CLI surface."""

import ast
import io
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import spherebundles as sb
from spherebundles import cli, fileio
from spherebundles.errors import EmptyInput, MixedCardinality, ParseError


def test_parse_simplex_boundary():
    text = "# boundary of the 4-simplex\n1 2 3 4\n1 2 3 5\n1 2 4 5\n1 3 4 5\n2 3 4 5\n"
    c = fileio.parse(text)
    assert c == sb.boundary_of_simplex(4)


def test_parse_reports_line_numbers():
    with pytest.raises(ParseError, match="line 2"):
        fileio.parse("1 2 3\n1 2 x\n")
    with pytest.raises(MixedCardinality, match="line 3"):
        fileio.parse("1 2 3\n2 3 4\n1 2 3 4\n")
    with pytest.raises(ParseError, match="line 1"):
        fileio.parse("1 2 2\n")
    with pytest.raises(ParseError, match="not positive"):
        fileio.parse("0 1 2\n")


def test_parse_accepts_ascii_digits_only():
    # int() would read these as 10, 4 and 1
    for lineno, tok in ((1, "1_0"), (2, "+4"), (3, "\u0661")):
        lines = ["2 3 5"] * (lineno - 1) + [f"{tok} 2 3"]
        with pytest.raises(ParseError, match=f"line {lineno}: "):
            fileio.parse("\n".join(lines) + "\n")


def test_parse_header_only_is_empty():
    with pytest.raises(EmptyInput):
        fileio.parse("# nothing here\n\n")


def test_write_canonical():
    c = sb.boundary_of_simplex(3)
    text = fileio.write(c)
    assert text == "1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
    assert text.splitlines() == sorted(text.splitlines())


def test_round_trip_on_constructions():
    for c in (sb.boundary_of_simplex(5), sb.build_miss(4), sb.build_delta(5, 9)[0],
              sb.orientation_double_cover(sb.build_miss(4))):
        assert fileio.parse(fileio.write(c)) == c


def test_analysis_report_fields():
    report = fileio.analyze(sb.build_miss(4))
    assert report.f == (1, 9, 36, 54, 27)
    assert report.h == (1, 5, 15, 5, 1)
    assert report.g == (1, 4, 10)
    assert report.klee_ok
    assert report.betti == (1, 1, 0, 0)
    assert report.orientable is False
    assert report.pseudomanifold and report.links_ok
    assert report.g2 == 10 and report.g2_bound == 10
    data = json.loads(report.to_json())
    assert data["schema"] == fileio.REPORT_SCHEMA
    assert data["f_vector"] == [1, 9, 36, 54, 27]


# -- CLI -------------------------------------------------------------------------

def test_cli_build_miss_analyze_pipe(capsys, monkeypatch):
    assert cli.main(["build", "miss", "--n", "4"]) == 0
    document = capsys.readouterr().out
    monkeypatch.setattr("sys.stdin", io.StringIO(document))
    assert cli.main(["analyze"]) == 0
    out = capsys.readouterr().out
    assert "f-vector: (1, 9, 36, 54, 27)" in out
    assert "orientable: False" in out


def test_cli_analyze_json(tmp_path, capsys):
    path = tmp_path / "m5.fl"
    path.write_text(fileio.write(sb.build_miss(5)), encoding="utf-8")
    assert cli.main(["analyze", "--in", str(path), "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["f_vector"] == [1, 11, 55, 110, 110, 44]
    assert data["orientable"] is True
    assert data["betti"] == [1, 1, 0, 1, 1]


def test_cli_build_stacked_deterministic(capsys):
    assert cli.main(["build", "stacked", "--n", "4", "--steps", "9"]) == 0
    first = capsys.readouterr().out
    assert cli.main(["build", "stacked", "--n", "4", "--steps", "9"]) == 0
    assert capsys.readouterr().out == first
    assert first == fileio.write(sb.build_delta(4, 9)[0])


def test_cli_build_iss_and_fill(tmp_path, capsys):
    iss_path = tmp_path / "iss.fl"
    assert cli.main(["build", "iss", "--n", "5", "--vertices", "12",
                     "--bundle", "nonorientable", "-o", str(iss_path)]) == 0
    capsys.readouterr()
    out_path = tmp_path / "filled.fl"
    assert cli.main(["fill-edges", "--in", str(iss_path),
                     "--target-f1", "66", "-o", str(out_path)]) == 0
    filled = fileio.parse(out_path.read_text(encoding="utf-8"))
    assert len(filled.edges()) == 66


def test_cli_iso_exit_codes(tmp_path, capsys):
    a = tmp_path / "a.fl"
    b = tmp_path / "b.fl"
    a.write_text(fileio.write(sb.build_miss(5)), encoding="utf-8")
    b.write_text(fileio.write(sb.kuhnel_complex(5)), encoding="utf-8")
    assert cli.main(["iso", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("isomorphic")

    c = tmp_path / "c.fl"
    c.write_text(fileio.write(sb.boundary_of_simplex(5)), encoding="utf-8")
    assert cli.main(["iso", str(a), str(c)]) == 1
    assert "non-isomorphic" in capsys.readouterr().out


def test_cli_double_cover(tmp_path, capsys):
    path = tmp_path / "m4.fl"
    path.write_text(fileio.write(sb.build_miss(4)), encoding="utf-8")
    assert cli.main(["double-cover", "--in", str(path)]) == 0
    cover = fileio.parse(capsys.readouterr().out)
    assert cover.num_vertices == 18


def test_cli_double_cover_of_non_pseudomanifold_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert cli.main(["double-cover"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "NotPseudomanifold: ridge (1, 2) lies in 1 facets\n"


def test_cli_build_prints_each_warning_as_a_note(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sb.build_miss(5)
    assert caught
    assert cli.main(["build", "miss", "--n", "5"]) == 0
    err = capsys.readouterr().err
    assert err == "".join(f"note: {w.message}\n" for w in caught)


def test_cli_build_iss_notes_only_the_pairing_it_keeps(capsys):
    # the nonorientable (5,12) ISS comes from the second pairing tried; the
    # first pairing's notes must not be printed as well
    assert cli.main(["build", "iss", "--n", "5", "--vertices", "12",
                     "--bundle", "nonorientable"]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 6
    assert len(set(lines)) == 6
    assert all(line.startswith("note: cross pair ") for line in lines)


def test_cli_missing_input_file_exits_one(tmp_path, capsys):
    assert cli.main(["analyze", "--in", str(tmp_path / "absent.fl")]) == 1
    assert capsys.readouterr().err.startswith("FileNotFoundError: ")


def test_cli_region(capsys):
    assert cli.main(["region", "--k", "3", "--vertices", "12",
                     "--bundle", "nonorientable"]) == 0
    assert capsys.readouterr().out.strip() == "60 66"
    assert cli.main(["region", "--k", "3", "--vertices", "11",
                     "--bundle", "nonorientable"]) == 0
    assert capsys.readouterr().out.strip() == "infeasible"


def test_cli_domain_error_exits_one(capsys):
    code = cli.main(["build", "iss", "--n", "5", "--vertices", "11",
                     "--bundle", "nonorientable"])
    assert code == 1
    assert "InfeasibleVertexCount" in capsys.readouterr().err


def test_cli_fill_edges_outside_its_precondition_exits_one(capsys, monkeypatch):
    # the schedule needs f0 > n and vertex labels exactly 1..f0
    iss = sb.build_iss(5, 12, sb.BundleType.ORIENTABLE)
    inputs = (
        ("1 2 3 4\n", 6),
        (fileio.write(sb.boundary_of_simplex(4).relabeled({v: v + 4 for v in range(1, 6)})), 10),
        (fileio.write(iss.relabeled({v: v + 1 for v in iss.vertices})), 66),
        (fileio.write(iss.relabeled({v: 2 * v for v in iss.vertices})), 66),
    )
    for text, target in inputs:
        monkeypatch.setattr("sys.stdin", io.StringIO(text))
        assert cli.main(["fill-edges", "--target-f1", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("ScheduleInvalid: ")
    # on labels 1..5 the boundary of the 4-simplex is already complete
    monkeypatch.setattr("sys.stdin", io.StringIO(fileio.write(sb.boundary_of_simplex(4))))
    assert cli.main(["fill-edges", "--target-f1", "10"]) == 0
    assert capsys.readouterr().out == fileio.write(sb.boundary_of_simplex(4))


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "iss", "--n", "5"])
    assert exc.value.code == 2


def test_cli_analyze_zero_dimensional_exits_one(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n"))
    assert cli.main(["analyze"]) == 1
    assert capsys.readouterr().err.startswith("DimensionTooLow: ")


def test_cli_analyze_reports_first_bad_ridge(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("1 2 3\n"))
    assert cli.main(["analyze", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["pseudomanifold_detail"] == "ridge (1, 2) lies in 1 facets"
    assert data["orientable"] is None


def test_import_loads_only_the_standard_library():
    src = str(Path(sb.__file__).resolve().parents[1])
    code = (
        "import sys; before = set(sys.modules); import spherebundles; "
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}))"
    )
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    loaded = set(ast.literal_eval(out))
    assert loaded - set(sys.stdlib_module_names) == {"spherebundles"}


def test_cli_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.fl"
    bad.write_text("1 2 x\n", encoding="utf-8")
    assert cli.main(["analyze", "--in", str(bad)]) == 1
    assert "ParseError" in capsys.readouterr().err
