"""Facet-list format round-trips, analysis reports, and the CLI surface."""

import ast
import contextlib
import hashlib
import io
import json
import os
import random
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spherebundles as sb
from spherebundles import BundleType, cli, fileio
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


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 6), st.integers(0, 12), st.integers(0, 2 ** 30))
def test_parse_write_round_trip_on_random_stacked_spheres(n, steps, seed):
    c, _ = sb.random_stacked_sphere(n, steps, seed)
    assert fileio.parse(fileio.write(c)) == c


_PREFIXES = {}


def _prefixes(n, f0, bundle):
    """Every prefix of the fill replay of the (n, f0) ISS of the bundle."""
    key = (n, f0, bundle)
    if key not in _PREFIXES:
        c = sb.build_iss(n, f0, bundle)
        _PREFIXES[key] = list(sb.iter_fill(c, sb.build_fill_schedule(c)))
    return _PREFIXES[key]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(((5, 12), (6, 20))), st.sampled_from(tuple(BundleType)), st.data())
def test_parse_write_round_trip_on_fill_prefixes(size, bundle, data):
    prefixes = _prefixes(*size, bundle)
    c = prefixes[data.draw(st.integers(0, len(prefixes) - 1), label="prefix")]
    text = fileio.write(c)
    assert fileio.parse(text) == c
    assert fileio.write(fileio.parse(text)) == text


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
    assert len(filled.faces(1)) == 66


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


def test_cli_build_prints_each_note(capsys):
    notes = sb.construct_miss(5).notes
    assert notes
    assert cli.main(["build", "miss", "--n", "5"]) == 0
    err = capsys.readouterr().err
    assert err == "".join(f"note: {note}\n" for note in notes)


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


def test_cli_fill_edges_of_a_stacked_sphere_exits_one(capsys, monkeypatch):
    # a stacked sphere is no identified one: its schedule leaves edges missing
    assert cli.main(["build", "stacked", "--n", "4", "--steps", "9"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert cli.main(["fill-edges", "--target-f1", "60"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "ScheduleInvalid: schedule has 27 moves but 36 edges are missing\n"


def test_cli_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "iss", "--n", "5"])
    assert exc.value.code == 2


def test_cli_dimension_guards_exit_one_with_a_named_error(capsys, monkeypatch):
    sphere = "1 2 3\n1 2 4\n1 3 4\n2 3 4\n"
    cases = (
        (["build", "stacked", "--n", "2", "--steps", "3"], ""),
        (["build", "miss", "--n", "2"], ""),
        (["region", "--k", "1", "--vertices", "9", "--bundle", "orientable"], ""),
        (["fill-edges", "--target-f1", "6"], sphere),
    )
    for argv, stdin in cases:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("DimensionTooLow: ")


def test_cli_parser_is_reused_after_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    with pytest.raises(SystemExit) as exc:
        cli.main(["build", "iss", "--n", "5"])
    assert exc.value.code == 2
    capsys.readouterr()
    argv = ["build", "iss", "--n", "5", "--vertices", "12", "--bundle", "nonorientable"]
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    src = str(Path(sb.__file__).resolve().parents[1])
    fresh = subprocess.run([sys.executable, "-m", "spherebundles.cli", *argv],
                           env={**os.environ, "PYTHONPATH": src}, capture_output=True)
    assert fresh.returncode == 0
    assert captured.out.encode() == fresh.stdout
    assert captured.err.encode() == fresh.stderr


def test_cli_closed_stdout_names_the_broken_pipe():
    # stdout is a pipe whose read end is closed before the process starts,
    # so every write fails the same way: one named error line, exit 1
    src = str(Path(sb.__file__).resolve().parents[1])
    for argv in (
        ["build", "miss", "--n", "4"],
        ["build", "iss", "--n", "8", "--vertices", "30", "--bundle", "orientable"],
        ["region", "--k", "3", "--vertices", "12", "--bundle", "orientable"],
    ):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run([sys.executable, "-m", "spherebundles.cli", *argv],
                                  env={**os.environ, "PYTHONPATH": src},
                                  stdout=write_end, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
        assert proc.returncode == 1, argv
        assert "Traceback" not in proc.stderr
        errors = [line for line in proc.stderr.splitlines() if not line.startswith("note: ")]
        assert errors == ["BrokenPipeError: [Errno 32] Broken pipe"], argv


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


def test_every_export_has_a_caller():
    # a public name must be used in the package outside its own definition
    # and __init__.py, shown in README.md as `sb.name` or `name`, or named
    # in the benchmark
    root = Path(__file__).resolve().parents[1]
    used = set()
    for path in Path(sb.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.add(node.module)
    readme = (root / "README.md").read_text(encoding="utf-8")
    bench = "".join(p.read_text(encoding="utf-8") for p in (root / "bench").glob("*.py"))
    missing = [
        name for name in sb.__all__
        if name not in used
        and not re.search(rf"\bsb\.{name}\b|`{name}`", readme)
        and not re.search(rf"\b{name}\b", bench)
    ]
    assert missing == []


def test_readme_python_block_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, re.S)
    exec(compile(block, "README.md", "exec"), {})


def test_cli_parse_error_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.fl"
    bad.write_text("1 2 x\n", encoding="utf-8")
    assert cli.main(["analyze", "--in", str(bad)]) == 1
    assert "ParseError" in capsys.readouterr().err


# sha256 of `analyze --json` for the ISS (5,12) and (6,20) of both bundles,
# filled to the low, middle and complete f1, and (last key True) of the
# double cover of each nonorientable one
_ANALYSIS_SHA256 = {
    (5, 12, "orientable", 60, False): (
        "50e16a23c86ca4708911c70d7c74f4ae05a5fcef24c52cd74665d5f66f5ff02c"
    ),
    (5, 12, "orientable", 63, False): (
        "6fccffdb1230a1d6602fdc33242558c334e32b3d1f0bc288640b6d09d95dd98e"
    ),
    (5, 12, "orientable", 66, False): (
        "3b58560da39e250791819bf1fea6a74bc50193fce99489686ed0eca604b7f884"
    ),
    (5, 12, "nonorientable", 60, False): (
        "bb547beaa458818ab9788699c6273ce60eef13f6147a6ada74877540db57240c"
    ),
    (5, 12, "nonorientable", 60, True): (
        "16b8aef96c559abf40a827334f50e5fd56f051ac0b4d8f7ac50db8077e3dfb46"
    ),
    (5, 12, "nonorientable", 63, False): (
        "417b0b0ea6fb51d962e92e9faabff8e2a0f0c1886a3e919d94c6309dd52668ad"
    ),
    (5, 12, "nonorientable", 63, True): (
        "6cdcd7c1dc1581ce54419af1aaf76aeae38f907fa43ffc1a2fe02f1156bfeefa"
    ),
    (5, 12, "nonorientable", 66, False): (
        "aa2ab77015742385c809d65b3fcf60019c3c7028dadcce6f654992b71a744ef5"
    ),
    (5, 12, "nonorientable", 66, True): (
        "b1f6deec0490920e599d4bdc73f94a9785558e3631d7119bf3663edc6ccfd6b8"
    ),
    (6, 20, "orientable", 120, False): (
        "34d4838308695c9deefeb32a8896ceaade516cd0c1a9c32726626a5cf7ccb94c"
    ),
    (6, 20, "orientable", 155, False): (
        "ff36612db4dd426929d39dec85f363e4f3c649e8b2b79bb1d2d4f9edcee79703"
    ),
    (6, 20, "orientable", 190, False): (
        "9e78f8743dcf1f86cc066bea918d4322a66ae1e0cae51a193cbd0c647b1426b5"
    ),
    (6, 20, "nonorientable", 120, False): (
        "47a26dac764de4c1e3cabee50d95d52c6c1393e4c33dc57800fc0fa29ed4b0ca"
    ),
    (6, 20, "nonorientable", 120, True): (
        "227c757de91f0968f08a71589386d058053a2e299750d550c075882fc2bbd49d"
    ),
    (6, 20, "nonorientable", 155, False): (
        "4e6d9bd6943b7e75732e1c23aed0764acdf42af1d70eed13747c3cb1017067c6"
    ),
    (6, 20, "nonorientable", 155, True): (
        "848aaf0546ac7d61db035fd8b3803e2423133df488431ad25daf5fa75fd81cc0"
    ),
    (6, 20, "nonorientable", 190, False): (
        "d770ea6dc386292f4d7e03d83b7033446ab4d383a19f6cf135b4b2d4b8bd4171"
    ),
    (6, 20, "nonorientable", 190, True): (
        "dc11acd3233887b7ba0d64481c668ece70318038d8cb1c7f28ed317f2cd03f8b"
    ),
}


def test_analyze_json_bytes_are_pinned(capsys, monkeypatch):
    def run(argv, stdin=""):
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert cli.main(argv) == 0
        return capsys.readouterr().out

    def digest(document):
        return hashlib.sha256(run(["analyze", "--json"], document).encode()).hexdigest()

    got = {}
    for n, f0 in ((5, 12), (6, 20)):
        low, top = n * f0, comb(f0, 2)
        for bundle in ("orientable", "nonorientable"):
            iss = run(["build", "iss", "--n", str(n), "--vertices", str(f0), "--bundle", bundle])
            for f1 in (low, (low + top) // 2, top):
                filled = run(["fill-edges", "--target-f1", str(f1)], iss)
                got[n, f0, bundle, f1, False] = digest(filled)
                if bundle == "nonorientable":
                    got[n, f0, bundle, f1, True] = digest(run(["double-cover"], filled))
    assert got == _ANALYSIS_SHA256


# sha256 of stdout and of stderr (the note: lines) of the realise commands:
# build iss of the (n, f0, bundle) triples of the pipeline benchmark, build
# miss at n = 4..8, and one scheduled stacked sphere
_REALISE_SHA256 = {
    "iss --n 5 --vertices 14 --bundle orientable": (
        "64ab06679960aec8e510ebbfbbc434b48fb7e7e784beee469636027c8413e013",
        "b43a49849ec872afe685ecfa5be0e6d0244e120e43ad3e643031bbcb0759db5c",
    ),
    "iss --n 5 --vertices 14 --bundle nonorientable": (
        "ab659974cd5695fe2ff0db3ba4eb2e1ee7d080f45057b6556e7a68f8c6be8902",
        "b43a49849ec872afe685ecfa5be0e6d0244e120e43ad3e643031bbcb0759db5c",
    ),
    "iss --n 6 --vertices 20 --bundle orientable": (
        "0ffdf4157b7b3f21e4c9e06e0423d466d4fda108595632559adb642fd49169fa",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "iss --n 6 --vertices 20 --bundle nonorientable": (
        "fb60880a1331fc6bffd258394716979148ee8ff4fa539d93a789c9cb4d7056b1",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "iss --n 7 --vertices 24 --bundle orientable": (
        "127e7e8832854d6af3342487e3d6deab141be2f91c262668d3c3a131685dd76e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "iss --n 7 --vertices 24 --bundle nonorientable": (
        "940e31c343e6b0ed7493bc67736a4bf0925586d31a2c5c779ba72de0acc4c4e5",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "iss --n 8 --vertices 30 --bundle orientable": (
        "823f9623b2b89b2ae946c163dfe7f44229e7fb22df22a3bb501a3c60d1a6a49a",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "miss --n 4": (
        "398d62d941363c10337d2f0cf9ceac15162863b6aed1f24074982dab3a34c053",
        "0b3c6d34b2b3523923df930d029b87c0eaf2ba85b4d3718ab16fda46757d1be5",
    ),
    "miss --n 5": (
        "19ad8234acbdd4389d15d033f996222e8f417ea123acf9354bcefcc34a135969",
        "11188fb292cbfbbe597ecdab200f2ede838210142009e11b286458384fb1dac2",
    ),
    "miss --n 6": (
        "c78829bf314eb80d87d1be144781c4604bbe2f3b1448aff8ea9e0884970c7487",
        "de919e7cd635c957ecf764f660d8359e327c02e26badff087b3b822c5caf77f6",
    ),
    "miss --n 7": (
        "38433da1b50ede2fdae236b3a4f2d27deede90f2d9216a1ca7b2bf61cbab6773",
        "e0664481149ebaf6330408ae3ab128067f58693981ec0dfd251ff15ce7c76d85",
    ),
    "miss --n 8": (
        "facaf1633bd7263166106af2eea7e84acbd67f85c0994f68d350ad4ebaba4939",
        "1fbe1af1ece54016fb353e13cd45cedc632ac80b76541fce00c722472d77a899",
    ),
    "stacked --n 4 --steps 9": (
        "78f7a7f23f013a2bf2c4e4d7bf2c362625862622f467b1d5caeaaf31d6415820",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}


def test_realise_bytes_are_pinned(capsys):
    got = {}
    for command in _REALISE_SHA256:
        assert cli.main(["build", *command.split()]) == 0
        captured = capsys.readouterr()
        got[command] = tuple(
            hashlib.sha256(text.encode()).hexdigest() for text in (captured.out, captured.err)
        )
    assert got == _REALISE_SHA256


def test_cli_build_stacked_needs_one_step(capsys):
    for steps in ("0", "-3"):
        assert cli.main(["build", "stacked", "--n", "4", "--steps", steps]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("InfeasibleVertexCount: ")


# exit code and sha256 of `iso` stdout (the verdict and, when isomorphic, the
# witness line by line): MISS against Kuehnel's complex at n = 5 and 6, MISS
# at n = 6 against three seeded relabellings of itself, and the standard
# against the swapped ISS on 12 vertices at n = 5 (opposite bundles)
_ISO_SHA256 = {
    "miss~kuhnel n=5": (0, "316bb54cb6f92f03d9387c8b25cf3c48b7cfb034a1ffb3259d421825b3390148"),
    "miss~kuhnel n=6": (0, "3b8ef4c601379abc628e78511c348e14eaef50fb87b45ba958fd0c04ddf4ea79"),
    "miss~relabel n=6 #0": (0, "80e8cb55de25ff48c1ed56784c450643d37649980b29ba88a3760da992c6df0e"),
    "miss~relabel n=6 #1": (0, "5b768480bf16ce6bae8dabca8da64bb52b4f8dc381ba4cb17b09d2c16f69a129"),
    "miss~relabel n=6 #2": (0, "60cb9903262b5c0a47512ad1ae61fc9df9a0ac66cd340cb525c323ffe9a8590c"),
    "iss standard~swapped n=5": (
        1, "9b6ba5e416ff8b7f0d1356cb762011e2c879343bc4ee26a0f539812a00005580"
    ),
}


def test_iso_witness_bytes_are_pinned(tmp_path, capsys):
    pairs = {f"miss~kuhnel n={n}": (sb.build_miss(n), sb.kuhnel_complex(n)) for n in (5, 6)}
    m = sb.build_miss(6)
    rng = random.Random(6)
    vs = sorted(m.vertices)
    for i in range(3):
        pairs[f"miss~relabel n=6 #{i}"] = (m, m.relabeled(dict(zip(vs, rng.sample(vs, len(vs))))))
    pairs["iss standard~swapped n=5"] = tuple(
        sb.build_iss_variant(5, 12, variant) for variant in ("standard", "swapped")
    )
    a, b = tmp_path / "a.fl", tmp_path / "b.fl"
    got = {}
    for label, (ca, cb) in pairs.items():
        a.write_text(fileio.write(ca), encoding="utf-8")
        b.write_text(fileio.write(cb), encoding="utf-8")
        code = cli.main(["iso", str(a), str(b)])
        got[label] = (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest())
    assert got == _ISO_SHA256


def test_cli_iso_of_a_thousand_vertex_sphere(tmp_path, capsys):
    # one search depth per vertex: deeper than the interpreter's recursion limit
    path = tmp_path / "big.fl"
    assert cli.main(["build", "stacked", "--n", "3", "--steps", "1000", "-o", str(path)]) == 0
    assert fileio.parse(path.read_text(encoding="utf-8")).num_vertices == 1003
    assert cli.main(["iso", str(path), str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("isomorphic\n")
    assert captured.err == ""


_bad_tokens = st.sampled_from(("0", "-1", "x", "1.5", "+4", "1_0", "٣", "#", ""))


@st.composite
def _documents(draw):
    """A facet-list document of one width over the labels 1..9, with up to
    two lines put in anywhere: a comment, or tokens that may be bad (not a
    positive ASCII integer, such as 0 or -1), repeat a label or change the
    width.  No lines at all makes an empty document."""
    width = draw(st.integers(1, 5))
    facet = st.lists(st.integers(1, 9), min_size=width, max_size=width, unique=True)
    lines = [" ".join(map(str, f)) for f in draw(st.lists(facet, max_size=8))]
    odd_line = st.just("# comment") | st.lists(
        st.integers(1, 9).map(str) | _bad_tokens, max_size=6
    ).map(" ".join)
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(odd_line))
    return "\n".join(lines)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(("analyze", "fill-edges", "double-cover", "iso")), _documents(), _documents())
def test_cli_fuzz_exits_with_a_named_error(tmp_path_factory, command, first, second):
    workdir = tmp_path_factory.mktemp("fuzz", numbered=True)
    a, b = workdir / "a.fl", workdir / "b.fl"
    a.write_text(first, encoding="utf-8")
    b.write_text(second, encoding="utf-8")
    argv = {
        "analyze": ["analyze", "--in", str(a), "--json"],
        "fill-edges": ["fill-edges", "--in", str(a), "--target-f1", "10"],
        "double-cover": ["double-cover", "--in", str(a)],
        "iso": ["iso", str(a), str(b)],
    }[command]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2)
    if code == 1 and not (command == "iso" and out.getvalue() == "non-isomorphic\n"):
        assert re.match(r"[A-Z]\w*: ", err.getvalue()), err.getvalue()
