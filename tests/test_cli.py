"""Command line interface: golden outputs, exit codes, determinism."""

import hashlib
import json

import pytest

from tropgc import enumeration
from tropgc.cli import main

FIVE_CHAMBER_FILE = {
    "g": 1,
    "weights": [
        ["1/3", "1/3", "97/300"],
        ["391/900", "391/900", "391/900"],
        ["1373/2700", "12/27", "14/27"],
        ["99/100", "12/27", "14/27"],
        ["1", "1", "1"],
    ],
}

COMPARE_EQUAL = '{"relation":"Equal","witness":[1,2,3]}\n'
COMPARE_GREATER = '{"relation":"Greater","witness":[1,2,3]}\n'
SIGNATURE_MINIMAL = (
    '{"g":1,"n":3,"signature":{"{1,2,3}":"-","{1,2}":"-","{1,3}":"-",'
    '"{2,3}":"-"},"weights":["1/3","1/3","33/100"]}\n'
)
HOMOLOGY_GRAPH = (
    '{"betti":{"-1":0,"0":0,"1":1},"degrees":[-1,0,1],'
    '"delta":[{"degree":0,"dim":0},{"degree":1,"dim":0},'
    '{"degree":2,"dim":1}],"dims":{"-1":1,"0":4,"1":4},"g":1,'
    '"kind":"graph","topweight":[{"degree":5,"dim":0,"weight":6},'
    '{"degree":4,"dim":0,"weight":6},{"degree":3,"dim":1,"weight":6}],'
    '"weights":["1","1","1"]}\n'
)
# The payloads of the census, of the cellular-route complexes, of one
# relative complex and of every page, byte for byte.
ENUMERATE_ORBITS = (
    '{"chambers":9,"g":1,"n":3,'
    '"orbit_partition":[[0],[1],[2,3,4],[5,6,7],[8]],"orbits":5,'
    '"signatures":['
    '{"{1,2,3}":"-","{1,2}":"-","{1,3}":"-","{2,3}":"-"},'
    '{"{1,2,3}":"+","{1,2}":"-","{1,3}":"-","{2,3}":"-"},'
    '{"{1,2,3}":"+","{1,2}":"-","{1,3}":"-","{2,3}":"+"},'
    '{"{1,2,3}":"+","{1,2}":"-","{1,3}":"+","{2,3}":"-"},'
    '{"{1,2,3}":"+","{1,2}":"+","{1,3}":"-","{2,3}":"-"},'
    '{"{1,2,3}":"+","{1,2}":"-","{1,3}":"+","{2,3}":"+"},'
    '{"{1,2,3}":"+","{1,2}":"+","{1,3}":"-","{2,3}":"+"},'
    '{"{1,2,3}":"+","{1,2}":"+","{1,3}":"+","{2,3}":"-"},'
    '{"{1,2,3}":"+","{1,2}":"+","{1,3}":"+","{2,3}":"+"}]}\n'
)
HOMOLOGY_CELLULAR = (
    '{"betti":{"-1":0,"0":0,"1":0,"2":1},"degrees":[-1,0,1,2],'
    '"delta":[{"degree":-1,"dim":0},{"degree":0,"dim":0},'
    '{"degree":1,"dim":0},{"degree":2,"dim":1}],'
    '"dims":{"-1":1,"0":5,"1":7,"2":4},"g":1,"kind":"cellular",'
    '"weights":["1","1","1"]}\n'
)
HOMOLOGY_A_PART = (
    '{"betti":{"-1":0,"0":0,"1":0,"2":1},"degrees":[-1,0,1,2],'
    '"delta":[{"degree":-1,"dim":0},{"degree":0,"dim":0},'
    '{"degree":1,"dim":0},{"degree":2,"dim":1}],'
    '"dims":{"-1":0,"0":0,"1":0,"2":1},"g":1,"kind":"a-part",'
    '"weights":["1","1","1"]}\n'
)
HOMOLOGY_B_PART = (
    '{"betti":{"-1":0,"0":0,"1":0,"2":0},"degrees":[-1,0,1,2],'
    '"delta":[{"degree":-1,"dim":0},{"degree":0,"dim":0},'
    '{"degree":1,"dim":0},{"degree":2,"dim":0}],'
    '"dims":{"-1":1,"0":5,"1":7,"2":3},"g":1,"kind":"b-part",'
    '"weights":["1","1","1"]}\n'
)
HOMOLOGY_RELATIVE = (
    '{"betti":{"-1":0,"0":1,"1":0},"degrees":[-1,0,1],'
    '"delta":[{"degree":0,"dim":0},{"degree":1,"dim":1},'
    '{"degree":2,"dim":0}],"dims":{"-1":0,"0":1,"1":0},"g":1,'
    '"kind":"relative","lower":["1/3","1/3","33/100"],'
    '"weights":["391/900","391/900","391/900"]}\n'
)
SPECTRAL_ALL_PAGES = (
    '{"betti":{"-1":0,"0":0,"1":1},"decomposition_ok":true,'
    '"einfinity":{"1,0":1},"lower_bounds":[{"cohomological_degree":3,'
    '"dim":1,"label":"dim H^3(M_{1,3};Q) >= 1","p":1,"q":0}],'
    '"pages":{"0":{"1,-2":1,"1,0":1,"2,-2":1,"3,-2":1,"3,-3":1,'
    '"4,-3":1,"4,-4":1,"5,-4":1,"5,-5":1},'
    '"1":{"1,-2":1,"1,0":1,"2,-2":1},"2":{"1,0":1},"3":{"1,0":1},'
    '"4":{"1,0":1},"5":{"1,0":1}},"topweight":[{"degree":3,"dim":1},'
    '{"degree":4,"dim":0},{"degree":5,"dim":0}]}\n'
)
SPECTRAL_PAGE5 = (
    '{"betti":{"-1":0,"0":0,"1":1},"decomposition_ok":true,'
    '"einfinity":{"1,0":1},"lower_bounds":[{"cohomological_degree":3,'
    '"dim":1,"label":"dim H^3(M_{1,3};Q) >= 1","p":1,"q":0}],'
    '"pages":{"5":{"1,0":1}},"topweight":[{"degree":3,"dim":1},'
    '{"degree":4,"dim":0},{"degree":5,"dim":0}]}\n'
)


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


@pytest.fixture()
def filtration_file(tmp_path):
    path = tmp_path / "filtration.json"
    path.write_text(json.dumps(FIVE_CHAMBER_FILE))
    return str(path)


class TestChambersCommands:
    def test_enumerate_counts(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "enumerate",
                                  "--g", "1", "--n", "3"])
        assert rc == 0
        data = json.loads(out)
        assert (data["chambers"], data["orbits"]) == (9, 5)
        assert len(data["signatures"]) == 9

    def test_enumerate_orbit_partition(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "enumerate",
                                  "--g", "1", "--n", "3", "--orbits"])
        assert rc == 0
        data = json.loads(out)
        assert data["orbit_partition"] == [[0], [1], [2, 3, 4],
                                           [5, 6, 7], [8]]
        assert out == ENUMERATE_ORBITS

    def test_compare_equal_golden(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "compare", "--g", "1",
                                  "--a", "1,1,1", "--b", "1,1,1"])
        assert rc == 0
        assert out == COMPARE_EQUAL

    def test_compare_greater_golden(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "compare", "--g", "1",
                                  "--a", "12/27,14/27,99/100",
                                  "--b", "1291/2700,12/27,14/27"])
        assert rc == 0
        assert out == COMPARE_GREATER

    def test_compare_exact_wall_shift(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "compare", "--g", "1",
                                  "--a", "12/27,14/27,99/100",
                                  "--b", "1373/2700,12/27,14/27"])
        assert rc == 0
        assert json.loads(out)["relation"] == "Greater"

    @pytest.mark.filterwarnings("always::tropgc.chambers.DomainGapWarning")
    def test_gap_zone_warning_is_one_line(self, capsys):
        rc, out, err = run(capsys, ["chambers", "signature", "--g", "1",
                                    "--weights", "1/4,1/4,1/4"])
        assert rc == 0
        assert json.loads(out)["weights"] == ["1/4", "1/4", "1/4"]
        assert err == ("warning: weight datum has 0 < 2g - 2 + sum(a) <= 1; "
                       "accepted, but some sources require the sum to "
                       "exceed 1\n")

    def test_signature_golden(self, capsys):
        rc, out, _ = run(capsys, ["chambers", "signature", "--g", "1",
                                  "--weights", "1/3,1/3,33/100"])
        assert rc == 0
        assert out == SIGNATURE_MINIMAL


class TestHomologyCommand:
    def test_graph_golden(self, capsys):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1", "--kind", "graph"])
        assert rc == 0
        assert out == HOMOLOGY_GRAPH

    @pytest.mark.parametrize("kind,golden", [
        ("cellular", HOMOLOGY_CELLULAR),
        ("a-part", HOMOLOGY_A_PART),
        ("b-part", HOMOLOGY_B_PART),
    ])
    def test_cellular_goldens(self, capsys, kind, golden):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1", "--kind", kind])
        assert rc == 0
        assert out == golden

    def test_b_part_acyclic(self, capsys):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1", "--kind", "b-part"])
        assert rc == 0
        data = json.loads(out)
        assert all(v == 0 for v in data["betti"].values())

    def test_four_markings(self, capsys):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1,1"])
        assert rc == 0
        betti = json.loads(out)["betti"]
        assert betti["2"] == 3
        assert all(v == 0 for k, v in betti.items() if k != "2")

    def test_cellular(self, capsys):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1", "--kind", "cellular"])
        assert rc == 0
        assert json.loads(out)["betti"] == {"-1": 0, "0": 0, "1": 0, "2": 1}

    def test_relative(self, capsys):
        rc, out, _ = run(capsys, ["homology", "--g", "1",
                                  "--weights", "391/900,391/900,391/900",
                                  "--kind", "relative",
                                  "--lower", "1/3,1/3,33/100"])
        assert rc == 0
        data = json.loads(out)
        assert data["betti"] == {"-1": 0, "0": 1, "1": 0}
        assert data["lower"] == ["1/3", "1/3", "33/100"]
        assert out == HOMOLOGY_RELATIVE

    def test_relative_lower_above_weights_is_domain_error(self, capsys):
        rc, out, err = run(capsys, ["homology", "--g", "1",
                                    "--weights", "1/6,1/6,1/6",
                                    "--kind", "relative",
                                    "--lower", "1,1,1"])
        assert rc == 1
        assert out == ""
        assert [line for line in err.splitlines()
                if line.startswith("error:")] == [err.splitlines()[-1]]

    def test_relative_requires_lower(self, capsys):
        rc, _, err = run(capsys, ["homology", "--g", "1",
                                  "--weights", "1,1,1",
                                  "--kind", "relative"])
        assert rc == 2
        assert "usage error" in err

    @pytest.mark.parametrize("kind", ["graph", "cellular", "a-part",
                                      "b-part"])
    def test_lower_only_with_relative(self, capsys, kind):
        rc, out, err = run(capsys, ["homology", "--g", "1",
                                    "--weights", "1,1,1", "--kind", kind,
                                    "--lower", "1/3,1/3,33/100"])
        assert rc == 2
        assert out == ""
        assert "usage error" in err

    def test_non_canonical_cache_line_is_recomputed(self, capsys, tmp_path,
                                                    monkeypatch):
        # A checksummed file with a non-canonical encoding of one of its
        # classes used to end in "usage error: cache entry is not
        # canonical" and exit 2.
        monkeypatch.setenv("TROPGC_CACHE", str(tmp_path))
        argv = ["homology", "--g", "1", "--weights", "1,1,1"]
        assert run(capsys, argv)[:2] == (0, HOMOLOGY_GRAPH)
        [path] = tmp_path.glob("g1_n3_m2_pure_*.txt")
        good = path.read_text()
        body = good.splitlines(keepends=True)[1:]
        assert body[0] == "1;0,0;edges=(0-1,0-1);legs=(1@0,2@0,3@1)\n"
        body[0] = "1;0,0;edges=(0-1,0-1);legs=(1@1,2@1,3@0)\n"
        data = "".join(body).encode()
        header = enumeration._cache_header(
            str(path), data, hashlib.sha256(data).hexdigest())
        path.write_bytes(header + b"\n" + data)
        rc, out, err = run(capsys, argv)
        assert (rc, out) == (0, HOMOLOGY_GRAPH)
        [line] = err.splitlines()
        assert line.startswith(f"warning: ignoring cache file {path}: ")
        assert "not canonical" in line
        assert path.read_text() == good


class TestSpectralCommand:
    def test_page_five_golden(self, capsys, filtration_file):
        rc, out, _ = run(capsys, ["spectral", "--input", filtration_file,
                                  "--page", "5"])
        assert rc == 0
        assert out == SPECTRAL_PAGE5

    def test_all_pages(self, capsys, filtration_file):
        rc, out, _ = run(capsys, ["spectral", "--input", filtration_file,
                                  "--all-pages"])
        assert rc == 0
        data = json.loads(out)
        assert sorted(data["pages"]) == ["0", "1", "2", "3", "4", "5"]
        assert data["pages"]["0"] == {
            "1,-2": 1, "1,0": 1, "2,-2": 1, "3,-2": 1, "3,-3": 1,
            "4,-3": 1, "4,-4": 1, "5,-4": 1, "5,-5": 1,
        }
        assert data["einfinity"] == {"1,0": 1}
        assert out == SPECTRAL_ALL_PAGES

    def test_unaligned_chain_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"g": 1, "weights": [["1", "1", "1"],
                                 ["1/3", "1/3", "33/100"]]}))
        rc, out, err = run(capsys, ["spectral", "--input", str(path)])
        assert rc == 1
        assert out == ""
        assert err.startswith("error:")

    def test_negative_page_is_usage_error(self, capsys, filtration_file,
                                          monkeypatch):
        # rejected while parsing arguments, before any complex is built
        def build(*_args):
            raise AssertionError("built a filtered complex")
        monkeypatch.setattr("tropgc.cli.filtered_from_raw", build)
        with pytest.raises(SystemExit) as exc:
            main(["spectral", "--input", filtration_file, "--page", "-1"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "page index must be nonnegative" in captured.err

    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["spectral", "--input",
                                  str(tmp_path / "absent.json")])
        assert rc == 2
        assert "usage error" in err

    def test_string_row_is_usage_error(self, capsys, tmp_path):
        # a string is not a row of weights, one per character
        path = tmp_path / "string_row.json"
        path.write_text(json.dumps({"g": 1, "weights": ["111"]}))
        rc, out, err = run(capsys, ["spectral", "--input", str(path)])
        assert (rc, out) == (2, "")
        assert "usage error" in err

    def test_unparseable_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        rc, _, err = run(capsys, ["spectral", "--input", str(path)])
        assert rc == 2
        assert "usage error" in err


class TestErrorHandling:
    def test_internal_error_exits_three(self, capsys, monkeypatch):
        def broken(_complex):
            raise AssertionError("boundary squared is nonzero from degree 1")
        monkeypatch.setattr("tropgc.cli.homology", broken)
        rc, out, err = run(capsys, ["homology", "--g", "1",
                                    "--weights", "1,1,1"])
        assert rc == 3
        assert out == ""
        assert err == ("internal error: boundary squared is nonzero "
                       "from degree 1\n")

    def test_bad_rational_is_usage_error(self, capsys):
        rc, _, err = run(capsys, ["chambers", "signature", "--g", "1",
                                  "--weights", "1,apple,1"])
        assert rc == 2
        assert "usage error" in err

    def test_non_ascii_digits_are_usage_error(self, capsys):
        rc, out, err = run(capsys, ["homology", "--g", "1",
                                    "--weights", "\uff11,\uff11,\uff11"])
        assert (rc, out) == (2, "")
        assert "usage error: invalid rational literal" in err

    @pytest.mark.parametrize("argv", [
        ["homology", "--g", "１", "--weights", "1,1,1"],
        ["homology", "--g", "١", "--weights", "1,1,1"],
        ["chambers", "enumerate", "--g", "1", "--n", "４"],
    ], ids=["fullwidth-g", "arabic-indic-g", "fullwidth-n"])
    def test_non_ascii_integer_is_usage_error(self, capsys, argv):
        # int() reads both digits as 1 (and 4)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid integer" in captured.err

    def test_out_of_domain_weight(self, capsys):
        rc, _, err = run(capsys, ["chambers", "signature", "--g", "1",
                                  "--weights", "2,1,1"])
        assert rc == 1
        assert err.startswith("error:")

    def test_unknown_subcommand_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_arguments_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestOutputDiscipline:
    def test_deterministic_bytes(self, capsys, filtration_file):
        runs = []
        for _ in range(2):
            rc, out, _ = run(capsys, ["spectral", "--input",
                                      filtration_file, "--all-pages"])
            assert rc == 0
            runs.append(out)
        assert runs[0] == runs[1]

    def test_stdout_is_json_only(self, capsys):
        for argv in (
            ["chambers", "enumerate", "--g", "1", "--n", "2"],
            ["homology", "--g", "1", "--weights", "1,1"],
            ["chambers", "compare", "--g", "1", "--a", "1,1", "--b", "1,1"],
        ):
            rc, out, _ = run(capsys, argv)
            assert rc == 0
            assert out.endswith("\n")
            json.loads(out)

    def test_pretty_goes_to_stderr(self, capsys):
        rc, out, err = run(capsys, ["--pretty", "chambers", "compare",
                                    "--g", "1", "--a", "1,1,1",
                                    "--b", "1,1,1"])
        assert rc == 0
        assert out == COMPARE_EQUAL
        assert json.loads(err) == json.loads(out)
