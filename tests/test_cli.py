"""Command-line behavior: documents in, documents out, exit codes."""

import argparse
import io
import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

from idealform import cli, encoding, errors
from idealform.cli import main
from idealform.documents import formulation_from_document
from idealform.encoding import EncodingKind, make_encoding
from idealform.pwl import PwlFunction

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

SOS2_DOC = {
    "kind": "cdc",
    "cdc": {"alternatives": [[1, 2], [2, 3], [3, 4], [4, 5]], "encoding": "gray"},
}

PWL_DOC = {
    "kind": "pwl",
    "pwl": {
        "breakpoints": [0, 1, 2, 3, 4],
        "slopes": ["1/2", 1, -1, 2],
        "intercepts": [0, "-1/2", "7/2", "-11/2"],
        "encoding": "gray",
    },
}


def reject_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.fixture
def write_doc(tmp_path):
    def write(doc, name="problem.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEncode:
    def test_full_matrix_on_stdout_gates_on_stderr(self, capsys):
        code, out, err = run(capsys, "encode", "--kind", "gray", "--s", "3")
        assert code == 0
        rows = [tuple(int(x) for x in line.split()) for line in out.splitlines()]
        assert tuple(rows) == make_encoding(8, EncodingKind.GRAY).rows
        assert "convex position: yes" in err
        assert "hole-free: yes" in err

    def test_prefix_by_row_count(self, capsys):
        code, out, _ = run(capsys, "encode", "--kind", "zigzag", "--d", "3")
        assert code == 0
        assert out == "0 0\n1 0\n1 1\n"

    def test_size_flags_are_exclusive(self, capsys):
        code, _, err = run(capsys, "encode", "--kind", "gray", "--s", "2", "--d", "3")
        assert code == 1
        assert "error" in err

    def test_gate_over_its_cap_leaves_no_output(self, capsys, tmp_path, monkeypatch):
        # The widest level of the zig-zag scan at s = 8 has 8385 candidates;
        # the scan runs as for codes that are no family's.
        monkeypatch.setattr(encoding.Hull, "in_family", False)
        monkeypatch.setattr(encoding, "DEFAULT_HOLE_CAP", 8384)
        code, out, err = run(capsys, "encode", "--kind", "zigzag", "--s", "8")
        assert (code, out) == (4, "")
        assert err == "error: the hole-freeness scan would visit 8385 points at " \
                      "coordinate 2, over its fixed cap of 8384\n"
        target = tmp_path / "codes.txt"
        code, out, _ = run(capsys, "encode", "--kind", "zigzag", "--s", "8",
                           "--out", str(target))
        assert (code, out) == (4, "")
        assert not target.exists()

    @pytest.mark.parametrize("s", [7, 8])
    def test_zigzag_codes_past_a_million_box_points_pass_the_gates(self, capsys, s):
        # Code boxes of 9,845,550 and 1,270,075,950 points.
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", "--kind", "zigzag", "--s", str(s))
        assert time.perf_counter() - start < 5
        assert code == 0 and len(out.splitlines()) == 2**s
        assert err == "convex position: yes\nhole-free: yes\n"

    def test_the_widest_family_codes_pass_the_gates_by_proof(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", "--kind", "zigzag", "--s", "16")
        assert time.perf_counter() - start < 5
        assert code == 0 and len(out.splitlines()) == 2**16
        assert err == "convex position: yes\nhole-free: yes\n"
        code, out, err = run(capsys, "encode", "--kind", "zigzag", "--s", "17")
        assert (code, out) == (4, "")
        assert err == "error: --s 17 would need 17-bit codes, over the cap of 16 bits\n"

    def test_order_must_be_positive(self, capsys):
        code, _, err = run(capsys, "encode", "--kind", "gray", "--s", "0")
        assert code == 1
        assert "recursion order" in err

    @pytest.mark.parametrize("argv, message", [
        (["--s", "40"], "--s 40 would need 40-bit codes"),
        (["--s", "1000000000"], "--s 1000000000 would need 1000000000-bit codes"),
        (["--d", "1099511627776"], "1099511627776 alternatives would need 40-bit codes"),
        (["--d", "65537"], "65537 alternatives would need 17-bit codes"),
    ])
    def test_huge_sizes_fail_fast(self, capsys, argv, message):
        start = time.perf_counter()
        code, out, err = run(capsys, "encode", "--kind", "gray", *argv)
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == f"error: {message}, over the cap of 16 bits\n"


class TestFormulate:
    def test_emits_a_parseable_document(self, capsys, write_doc):
        code, out, _ = run(capsys, "formulate", write_doc(SOS2_DOC))
        assert code == 0
        doc = json.loads(out)
        f, recovery = formulation_from_document(doc)
        assert f.n_lambda == 5
        assert f.gamma == 2
        assert recovery is None
        assert doc["provenance"] == {
            "kind": "cdc", "encoding": "gray", "path": "general", "gamma": 2,
        }

    def test_reads_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SOS2_DOC)))
        code, out, _ = run(capsys, "formulate", "-")
        assert code == 0
        assert json.loads(out)["variables"]["lambda"]["count"] == 5

    def test_ideal_check_reports_and_passes(self, capsys, write_doc):
        code, out, err = run(capsys, "formulate", write_doc(SOS2_DOC), "--check", "ideal")
        assert code == 0
        assert "ideal: PASS (8 vertices expected, 8 found" in err
        assert json.loads(out)["verification"]["passed"] is True

    def test_lp_format_flag(self, capsys, write_doc):
        code, out, _ = run(capsys, "formulate", write_doc(SOS2_DOC), "--format", "lp")
        assert code == 0
        assert out.startswith("Minimize\n")
        assert out.endswith("End\n")

    def test_document_options_supply_defaults(self, capsys, write_doc):
        doc = dict(SOS2_DOC, options={"check": "validity", "format": "lp"})
        code, out, err = run(capsys, "formulate", write_doc(doc))
        assert code == 0
        assert out.startswith("Minimize\n")
        assert "validity: PASS" in err

    def test_flags_override_document_options(self, capsys, write_doc):
        doc = dict(SOS2_DOC, options={"check": "ideal", "format": "lp"})
        code, out, _ = run(
            capsys, "formulate", write_doc(doc), "--check", "none", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        assert "verification" not in parsed

    def test_encoding_override(self, capsys, write_doc):
        code, out, _ = run(
            capsys, "formulate", write_doc(SOS2_DOC), "--encoding", "zigzag"
        )
        assert code == 0
        assert json.loads(out)["provenance"]["encoding"] == "zigzag"

    def test_out_writes_the_file(self, capsys, write_doc, tmp_path):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys, "formulate", write_doc(SOS2_DOC), "--out", str(target)
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["variables"]["lambda"]["count"] == 5

    def test_deterministic_output(self, capsys, write_doc):
        path = write_doc(SOS2_DOC)
        _, first, _ = run(capsys, "formulate", path)
        _, second, _ = run(capsys, "formulate", path)
        assert first == second

    def test_disconnected_instance_exits_2_with_rank_diagnostic(self, capsys, write_doc):
        doc = {"kind": "cdc", "cdc": {"alternatives": [[1, 2], [3, 4]]}}
        code, _, err = run(capsys, "formulate", write_doc(doc))
        assert code == 2
        assert "span 0 of 1" in err
        assert "not weakly connected" in err

    def test_malformed_json_exits_1(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind":')
        code, _, err = run(capsys, "formulate", str(path))
        assert code == 1
        assert "not valid JSON" in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "formulate", str(tmp_path / "absent.json"))
        assert code == 1
        assert "cannot read" in err

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    def test_unwritable_out_exits_1_with_one_line(self, capsys, tmp_path, where):
        out_path = tmp_path if where == "directory" else tmp_path / "absent" / "f.json"
        code, out, err = run(capsys, "annulus", "--d", "4", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot write {out_path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_kind_mismatch_exits_1(self, capsys, write_doc):
        code, _, err = run(capsys, "formulate", write_doc(PWL_DOC))
        assert code == 1
        assert "expects a cdc document" in err


class TestFixedCaps:
    """The fixed caps of the hole scan and the hyperplane enumeration, reached
    through the pipeline."""

    def test_direction_cap(self, capsys, write_doc, monkeypatch):
        # The package exports the function cdc, which hides the module.
        monkeypatch.setattr(sys.modules["idealform.cdc"], "DEFAULT_SUBSET_CAP", 1)
        code, out, err = run(capsys, "formulate", write_doc(SOS2_DOC))
        assert (code, out) == (4, "")
        assert err == ("error: 2 directions of rank 2 give 2 subsets, "
                       "over the enumeration cap of 1\n")

    def test_many_directions_of_low_rank_formulate(self, capsys, write_doc):
        # 16 alternatives sharing element 1: 40 directions of rank 4, so
        # C(40, 3) = 9880 subsets, well inside the subset cap.
        alternatives = [[1, i] for i in range(2, 18)]
        doc = {"kind": "cdc", "cdc": {"alternatives": alternatives}}
        code, out, err = run(capsys, "formulate", write_doc(doc), "--check", "validity")
        assert code == 0
        assert "validity: PASS" in err
        assert json.loads(out)["provenance"]["gamma"] == 680

    def test_coefficient_cap(self, capsys, write_doc, monkeypatch):
        cdc_module = sys.modules["idealform.cdc"]
        monkeypatch.setattr(cdc_module, "DEFAULT_COEFFICIENT_CAP", 20)
        assert run(capsys, "formulate", write_doc(SOS2_DOC))[0] == 0
        monkeypatch.setattr(cdc_module, "DEFAULT_COEFFICIENT_CAP", 19)
        code, out, err = run(capsys, "formulate", write_doc(SOS2_DOC))
        assert (code, out) == (4, "")
        assert err == ("error: 2 row pairs over 5 elements need 20 coefficients, "
                       "over the cap of 19\n")

    def test_formulations_too_large_to_emit_fail_fast(self, capsys):
        # Zig-zag d=32768: 120 row pairs over 65536 corners.
        start = time.perf_counter()
        code, out, err = run(capsys, "annulus", "--d", "32768", "--encoding", "zigzag")
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == ("error: 120 row pairs over 65536 elements need 15728640 "
                       "coefficients, over the cap of 10000000\n")

    def test_hole_cap(self, capsys, write_doc, monkeypatch):
        # Gray d = 4: two kept 1-prefixes times two values at coordinate 2,
        # with the scan run as for codes that are no family's.
        monkeypatch.setattr(encoding.Hull, "in_family", False)
        monkeypatch.setattr(encoding, "DEFAULT_HOLE_CAP", 3)
        code, out, err = run(capsys, "formulate", write_doc(SOS2_DOC))
        assert (code, out) == (4, "")
        assert err == ("error: the hole-freeness scan would visit 4 points at "
                       "coordinate 2, over its fixed cap of 3\n")

    def test_zigzag_sos2_at_128_formulates(self, capsys, write_doc):
        # Its code box has 9,845,550 points; the scan visits a few thousand.
        alternatives = [[i, i + 1] for i in range(1, 129)]
        doc = {"kind": "cdc", "cdc": {"alternatives": alternatives, "encoding": "zigzag"}}
        code, out, _ = run(capsys, "formulate", write_doc(doc))
        assert code == 0
        assert len(json.loads(out)["general_rows"]) == 7

    def test_a_pathological_code_range_fails_fast(self, capsys, write_doc):
        explicit = [[0, 0], [10**30, 0], [0, 1]]
        doc = {"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3], [3, 1]],
                                      "encoding": {"explicit": explicit}}}
        start = time.perf_counter()
        code, out, err = run(capsys, "formulate", write_doc(doc))
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err.startswith(f"error: the hole-freeness scan would visit {10**30 + 1} points")


class TestPwl:
    def test_closed_form_provenance(self, capsys, write_doc):
        code, out, _ = run(capsys, "pwl", write_doc(PWL_DOC), "--check", "ideal")
        assert code == 0
        doc = json.loads(out)
        assert doc["provenance"]["path"] == "closed-form"
        assert doc["provenance"]["kappa"] == 0
        assert doc["recovery"]["epigraph"] is True
        assert doc["verification"]["passed"] is True

    def test_general_path_provenance(self, capsys, write_doc):
        doc = {
            "kind": "pwl",
            "pwl": {
                "breakpoints": [0, 1, 2, 3],
                "slopes": [1, 2, -1],
                "intercepts": [0, -1, 5],
            },
        }
        code, out, _ = run(capsys, "pwl", write_doc(doc))
        assert code == 0
        assert json.loads(out)["provenance"]["path"] == "general"

    @pytest.mark.parametrize("encoding", ["gray", "zigzag"])
    def test_general_path_kappa_counts_the_jumps(self, capsys, write_doc, encoding):
        # Six pieces, jumps at breakpoints 2 and 6 (as in the golden corpus).
        body = {"breakpoints": [0, 1, 3, 4, 6, 7, 9],
                "slopes": [5, 3, 2, "1/2", -1, -4],
                "intercepts": [0, 4, 7, 13, 22, 45], "encoding": encoding}
        code, out, _ = run(capsys, "pwl", write_doc({"kind": "pwl", "pwl": body}))
        assert code == 0
        provenance = json.loads(out)["provenance"]
        f = PwlFunction(*(map(Fraction, body[key])
                          for key in ("breakpoints", "slopes", "intercepts")))
        assert provenance["path"] == "general"
        assert provenance["kappa"] == len(f.jumps) == 2

    def test_starved_code_steps_exit_2(self, capsys, write_doc):
        doc = {
            "kind": "pwl",
            "pwl": {
                "breakpoints": [0, 1, 2, 3, 4],
                "slopes": [1, 1, 1, 1],
                "intercepts": [0, 1, 3, 6],
            },
        }
        code, _, err = run(capsys, "pwl", write_doc(doc))
        assert code == 2
        assert "jumps at t2, t3" in err


class TestAnnulus:
    def test_ideal_check_reports_the_vertex_counts(self, capsys):
        code, _, err = run(
            capsys, "annulus", "--d", "8", "--encoding", "gray", "--check", "ideal"
        )
        assert code == 0
        assert "32 vertices expected, 32 found" in err

    def test_geometry_lands_in_the_recovery_map(self, capsys):
        code, out, _ = run(
            capsys, "annulus", "--d", "4", "--inner", "1", "--outer", "2"
        )
        assert code == 0
        doc = json.loads(out, parse_constant=reject_constant)
        assert doc["provenance"] == {
            "kind": "annulus", "encoding": "gray", "path": "closed-form", "gamma": 2,
        }
        assert len(doc["recovery"]["points"]) == 8

    def test_without_geometry_points_are_null(self, capsys):
        code, out, _ = run(capsys, "annulus", "--d", "4", "--encoding", "zigzag")
        assert code == 0
        assert json.loads(out)["recovery"]["points"] is None

    @pytest.mark.parametrize("outer", ["inf", "1.5e308"])
    def test_infinite_corners_exit_1(self, capsys, outer):
        code, out, err = run(capsys, "annulus", "--d", "4", "--inner", "1",
                             "--outer", outer)
        assert (code, out) == (1, "")
        assert err == (f"error: outer radius {float(outer)} puts the outer corners "
                       f"at an infinite radius\n")

    def test_infinite_radius_in_a_document_exits_1(self, capsys, tmp_path):
        path = tmp_path / "annulus.json"
        path.write_text('{"kind": "annulus", "annulus": {"d": 8, "inner_radius": 1,'
                        ' "outer_radius": 1e999}}')
        code, out, err = run(capsys, "verify", str(path), "formulation.json")
        assert (code, out) == (1, "")
        assert err == "error: annulus.outer_radius: expected a finite number, got inf\n"

    def test_bad_piece_count_exits_1(self, capsys):
        code, _, err = run(capsys, "annulus", "--d", "6")
        assert code == 1
        assert "power of two" in err

    def test_one_radius_exits_1(self, capsys):
        code, _, err = run(capsys, "annulus", "--d", "4", "--inner", "1")
        assert code == 1
        assert "both --inner and --outer" in err

    def test_enum_cap_exits_4(self, capsys):
        code, _, err = run(
            capsys, "annulus", "--d", "8", "--check", "ideal", "--max-enum", "5"
        )
        assert code == 4
        assert "cap" in err

    # The run over one column per pair of corners holds at most 2,176 rays
    # and tests 4,250,252 candidate pairs in all.
    def test_a_zigzag_ring_of_64_certifies_in_seconds(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, err = run(capsys, "annulus", "--d", "64", "--encoding", "zigzag",
                           "--check", "ideal", "--out", str(tmp_path / "f.json"))
        assert time.perf_counter() - start < 30
        assert code == 0
        assert "256 vertices expected, 256 found" in err

    # At d=128 the pair budget refuses the cut that would take the run from
    # 6,853,994 to 23,909,738 candidate pairs, before any of them is tested.
    def test_the_pair_cap_trips_fast_at_its_cut(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "annulus", "--d", "128", "--encoding", "zigzag",
                             "--check", "ideal")
        assert time.perf_counter() - start < 30
        assert (code, out) == (4, "")
        assert err == ("error: vertex enumeration exceeded the cap of 20000000 candidate "
                       "pairs: 23909738 at cut 49, general row 24 (lower side)\n")

    def test_a_wide_ring_certifies_in_seconds(self, capsys, tmp_path):
        start = time.perf_counter()
        code, _, err = run(capsys, "annulus", "--d", "256", "--encoding", "gray",
                           "--check", "ideal", "--out", str(tmp_path / "f.json"))
        assert time.perf_counter() - start < 5
        assert code == 0
        assert "1024 vertices expected, 1024 found" in err

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_enum_cap_below_one_is_a_usage_error(self, capsys, cap):
        code, out, err = run(
            capsys, "annulus", "--d", "4", "--check", "ideal", "--max-enum", cap
        )
        assert (code, out) == (1, "")
        assert err == f"error: argument --max-enum: must be at least 1, got {int(cap)}\n"

    @pytest.mark.parametrize("geometry", [[], ["--inner", "1", "--outer", "2"]])
    def test_huge_piece_count_fails_fast(self, capsys, geometry):
        start = time.perf_counter()
        code, out, err = run(capsys, "annulus", "--d", str(2**40), *geometry)
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"error: {2**40} pieces would need 40-bit codes, "
                       f"over the cap of 16 bits\n")

    @pytest.mark.parametrize("geometry, field", [
        ({}, "annulus.d"),
        ({"inner_radius": 1, "outer_radius": 2}, "annulus"),
    ])
    def test_huge_piece_count_in_a_document_fails_fast(self, capsys, write_doc,
                                                       geometry, field):
        path = write_doc({"kind": "annulus", "annulus": {"d": 2**40, **geometry}})
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", path, "formulation.json")
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"error: {field}: {2**40} pieces would need 40-bit codes, "
                       f"over the cap of 16 bits\n")


class TestVerify:
    def test_emitted_formulation_verifies(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        code, out, err = run(capsys, "verify", problem, str(formulation))
        assert code == 0
        summary = json.loads(out)
        assert summary["passed"] is True
        assert summary["expected"] == summary["found"] == 8
        assert "ideal: PASS" in err

    def test_deleted_row_fails_with_exit_3(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        doc = json.loads(formulation.read_text())
        del doc["general_rows"][0]
        formulation.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", problem, str(formulation))
        assert code == 3
        summary = json.loads(out)
        assert summary["passed"] is False
        assert summary["extra"]
        assert "ideal: FAIL" in err

    def test_validity_level(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        code, out, _ = run(
            capsys, "verify", problem, str(formulation), "--check", "validity"
        )
        assert code == 0
        assert json.loads(out) == {"passed": True, "level": "validity"}

    def test_width_mismatch_exits_1(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        other = write_doc(
            {"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]}}, "other.json"
        )
        code, _, err = run(capsys, "verify", other, str(formulation))
        assert code == 1
        assert "needs" in err

    def test_width_mismatch_at_validity_level_exits_1(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        other = write_doc(
            {"kind": "cdc", "cdc": {"alternatives": [[1, 2], [2, 3]]}}, "other.json"
        )
        code, out, err = run(capsys, "verify", other, str(formulation),
                             "--check", "validity")
        assert (code, out) == (1, "")
        assert err == ("error: formulation is over 5 lambda and 2 z variables, "
                       "but the problem needs 3 and 1\n")

    def test_start_polytope_over_the_cap_exits_4_at_once(self, capsys, write_doc,
                                                         tmp_path):
        # Two codes of width 40 and z in [0, 1]^40, which no row uses: the
        # relaxation has 3 * 2**40 vertices, refused before any cut.
        r = 40
        problem = write_doc({"kind": "cdc", "cdc": {
            "alternatives": [[1, 2], [2, 3]],
            "encoding": {"explicit": [[0] * r, [1] * r]}}})
        formulation = tmp_path / "f.json"
        formulation.write_text(json.dumps({
            "variables": {"lambda": {"count": 3},
                          "z": {"count": r, "bounds": [[0, 1]] * r}},
            "equalities": [{"lambda": [1, 1, 1], "z": [0] * r, "rhs": 1}],
            "general_rows": [],
        }))
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", problem, str(formulation),
                             "--check", "ideal")
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == (f"error: the relaxation, a product over {r} z coordinates that "
                       f"no row uses: at least 2**{r} vertices, over the cap of 50000\n")

    def test_wide_start_polytope_exits_4_at_once(self, capsys, write_doc):
        # 20,000 elements in two alternatives with 1-bit codes: a start cone
        # of 20,001 rays, under the vertex budget, of 20,002 integers each.
        problem = write_doc({"kind": "cdc", "cdc": {
            "alternatives": [list(range(1, 10001)), list(range(10000, 20001))],
            "encoding": {"explicit": [[0], [1]]}}})
        start = time.perf_counter()
        code, out, err = run(capsys, "formulate", problem, "--check", "ideal")
        assert time.perf_counter() - start < 1
        assert (code, out) == (4, "")
        assert err == ("error: the start cone: 20001 vectors of 20002 integers, "
                       "400060002 in all, over the cap of 10000000 integers\n")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_enum_cap_below_one_is_a_usage_error(self, capsys, write_doc, tmp_path, cap):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        code, out, err = run(capsys, "verify", problem, str(formulation),
                             "--max-enum", cap)
        assert (code, out) == (1, "")
        assert err == f"error: argument --max-enum: must be at least 1, got {int(cap)}\n"


class TestMalformedInput:
    """Damaged documents end in a field-named error line and exit 1."""

    @pytest.mark.parametrize(
        "body, field",
        [
            ({"cdc": SOS2_DOC["cdc"], "options": 5}, "options"),
            ({"cdc": {**SOS2_DOC["cdc"], "encoding": {"explicit": 5}}},
             "cdc.encoding.explicit"),
            ({"cdc": {"alternatives": [[1, 2], 3]}}, "cdc.alternatives[1]"),
            ({"cdc": {**SOS2_DOC["cdc"], "n": -3}}, "cdc.n"),
        ],
    )
    def test_formulate(self, capsys, write_doc, body, field):
        code, out, err = run(capsys, "formulate", write_doc({"kind": "cdc", **body}))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda d: d.update(recovery=5), "recovery"),
            (lambda d: d["recovery"].pop("kind"), "recovery.kind"),
            (lambda d: d["recovery"]["points"][0].__setitem__(0, "x"),
             "recovery.points[0]"),
            (lambda d: d["variables"]["z"]["bounds"][0].reverse(),
             "variables.z.bounds[0]"),
        ],
    )
    def test_verify(self, capsys, write_doc, tmp_path, damage, field):
        problem = write_doc(PWL_DOC)
        formulation = tmp_path / "f.json"
        assert run(capsys, "pwl", problem, "--out", str(formulation))[0] == 0
        doc = json.loads(formulation.read_text())
        damage(doc)
        formulation.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", problem, str(formulation))
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    # Each damage edits the document in place, or returns its replacement.
    @pytest.mark.parametrize(
        "damage, field",
        [
            (lambda d: d.__delitem__("variables"), "variables"),
            (lambda d: d["variables"]["z"]["bounds"][1].__delitem__(1),
             "variables.z.bounds[1]"),
            (lambda d: d["equalities"][0].__delitem__("rhs"), "equalities[0].rhs"),
            (lambda d: d["general_rows"][1].update(normal=[0, 0]), "general_rows[1]"),
            (lambda d: [d], "formulation document"),
            (lambda d: d["equalities"][0]["lambda"].__delitem__(-1), "equalities[0].lambda"),
            (lambda d: d["general_rows"][1]["normal"].append(0), "general_rows[1].normal"),
            # Its own id: the missing entry above names the same field.
            pytest.param(lambda d: d["variables"]["z"]["bounds"][1].reverse(),
                         "variables.z.bounds[1]", id="reversed-variables.z.bounds[1]"),
            (lambda d: d["variables"]["z"]["bounds"].__delitem__(1), "variables.z.bounds"),
        ],
    )
    def test_verify_names_the_formulation_field(self, capsys, write_doc, tmp_path,
                                                damage, field):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        assert run(capsys, "formulate", problem, "--out", str(formulation))[0] == 0
        doc = json.loads(formulation.read_text())
        formulation.write_text(json.dumps(damage(doc) or doc))
        code, out, err = run(capsys, "verify", problem, str(formulation))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: {field}: ")
        assert "Traceback" not in err

    def test_verify_rejects_reversed_z_bounds(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        doc = json.loads(formulation.read_text())
        doc["variables"]["z"]["bounds"][0] = [1, 0]
        formulation.write_text(json.dumps(doc))
        code, _, err = run(capsys, "verify", problem, str(formulation))
        assert code == 1
        assert "z bounds need lo <= hi" in err


class TestParserTree:
    """build_parser hands out copies of one argparse tree per process."""

    @pytest.mark.parametrize("argv", [["--help"], ["annulus", "--help"],
                                      ["verify", "--help"]])
    def test_help_repeats_byte_for_byte(self, capsys, argv):
        outputs = []
        for _ in range(3):
            with pytest.raises(SystemExit) as info:
                main(argv)
            assert info.value.code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1] == outputs[2]
        assert outputs[0].out.startswith("usage: idealform")

    def test_usage_errors_repeat_byte_for_byte(self, capsys):
        for argv in (["encode", "--kind", "gray"], ["annulus", "--d", "x"], []):
            results = [run(capsys, *argv) for _ in range(3)]
            assert results[0] == results[1] == results[2]
            assert results[0][0] == 1 and results[0][2].startswith("error: ")

    def test_the_tree_is_built_once_and_matches_a_fresh_build(self):
        assert cli._parser_tree() is cli._parser_tree()
        fresh = cli._parser_tree.__wrapped__()
        assert cli.build_parser().format_help() == fresh.format_help()

    def test_attributes_set_on_a_copy_stay_off_the_tree(self, capsys):
        first = cli.build_parser()
        first.parse_args = None
        second = cli.build_parser()
        assert second is not first and second.parse_args is not None
        assert run(capsys, "encode", "--kind", "gray", "--s", "1")[0] == 0

    @pytest.mark.parametrize("command, flag", [
        ("encode", "--kind"), ("formulate", "--encoding"), ("pwl", "--encoding"),
        ("annulus", "--encoding"),
    ])
    def test_family_choices_come_from_the_enum(self, command, flag):
        subparsers = next(a for a in cli.build_parser()._actions if a.dest == "command")
        parser = subparsers.choices[command]
        action = next(a for a in parser._actions if flag in a.option_strings)
        assert action.choices == [kind.value for kind in EncodingKind]
        assert f"{flag} {{gray,zigzag}}" in parser.format_help()


def test_every_export_resolves():
    import idealform
    assert [name for name in idealform.__all__ if not hasattr(idealform, name)] == []


# Every error class and the exit code main returns for it.
EXIT_CODES = {
    "IdealformError": 2, "InputError": 1, "InvalidOrder": 1, "TooFewAlternatives": 1,
    "NoDirections": 2, "DimensionDeficit": 2,
    "EncodingNotIdealizable": 2, "NotPowerOfTwo": 1, "DegenerateSecant": 2,
    "ResourceCapExceeded": 4, "HoleCheckTooLarge": 4, "TooManyDirections": 4,
    "TooLargeToEnumerate": 4,
}


@pytest.mark.parametrize("name", sorted(
    name for name, value in vars(errors).items()
    if isinstance(value, type) and issubclass(value, errors.IdealformError)
))
def test_every_error_class_has_its_exit_code(capsys, monkeypatch, name):
    error = getattr(errors, name)

    def fail(args):
        raise error("boom")

    monkeypatch.setitem(cli._COMMANDS, "encode", fail)
    code, _, err = run(capsys, "encode", "--kind", "gray", "--s", "2")
    assert error.exit_code == code == EXIT_CODES[name]
    assert err == "error: boom\n"


def _disconnected_doc(tmp_path):
    path = tmp_path / "disconnected.json"
    path.write_text(json.dumps({"kind": "cdc", "cdc": {"alternatives": [[1, 2], [3, 4]]}}))
    return path


class TestMalformedFiles:
    """Bytes the JSON reader or the text decoder refuses end in one error
    line, never a traceback."""

    @staticmethod
    def assert_one_error_line(code, out, err, codes=(1,)):
        assert code in codes and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_nested_arrays_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, "formulate", str(path))
        self.assert_one_error_line(code, out, err)
        assert err.startswith("error: not valid JSON: ")

    def test_an_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "digits.json"
        path.write_text('{"kind": "annulus", "annulus": {"d": ' + "9" * 5000 + "}}")
        code, out, err = run(capsys, "formulate", str(path))
        # Some 3.10 patch releases have no digit limit and read the integer.
        self.assert_one_error_line(code, out, err, codes=(1, 2, 3, 4))

    @pytest.mark.parametrize("command", ["formulate", "verify"])
    def test_a_file_that_is_not_utf8(self, capsys, tmp_path, write_doc, command):
        path = tmp_path / "bytes.json"
        path.write_bytes(b"\xff\xfe{}")
        argv = [str(path)] if command == "formulate" else [write_doc(SOS2_DOC), str(path)]
        code, out, err = run(capsys, command, *argv)
        self.assert_one_error_line(code, out, err)

    @pytest.mark.parametrize("command", ["formulate", "verify"])
    def test_stdin_that_is_not_utf8(self, capsys, monkeypatch, write_doc, command):
        # Decoded strictly, as under a locale such as en_US.UTF-8.
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(
            io.BytesIO(b"\xff\xfe{}"), encoding="utf-8", errors="strict"))
        argv = ["-"] if command == "formulate" else ["-", write_doc(SOS2_DOC)]
        assert run(capsys, command, *argv) == (1, "", (
            "error: cannot read -: 'utf-8' codec can't decode byte 0xff in position 0: "
            "invalid start byte\n"))

    def test_a_formulation_without_lambda_variables(self, capsys, write_doc, tmp_path):
        problem = write_doc(SOS2_DOC)
        formulation = tmp_path / "f.json"
        run(capsys, "formulate", problem, "--out", str(formulation))
        doc = json.loads(formulation.read_text())
        doc["variables"]["lambda"]["count"] = 0
        formulation.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", problem, str(formulation))
        self.assert_one_error_line(code, out, err)
        assert err == "error: variables.lambda.count: expected at least 1, got 0\n"


class TestFileErrorTexts:
    """A file that cannot be read or written is named as given, and its
    error as pathlib gives it, with the path normalised."""

    def test_a_missing_problem(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "formulate", "./x//y.json") == (1, "", (
            "error: cannot read ./x//y.json: [Errno 2] No such file or directory: 'x/y.json'\n"))

    def test_a_missing_formulation(self, capsys, tmp_path, monkeypatch, write_doc):
        problem = write_doc(SOS2_DOC)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "verify", problem, "./x//y.json") == (1, "", (
            "error: cannot read ./x//y.json: [Errno 2] No such file or directory: 'x/y.json'\n"))

    def test_out_into_a_missing_directory(self, capsys, tmp_path, monkeypatch, write_doc):
        problem = write_doc(SOS2_DOC)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "formulate", problem, "--out", "./d//f.json") == (1, "", (
            "error: cannot write ./d//f.json: [Errno 2] No such file or directory: 'd/f.json'\n"))

    def test_paths_read_as_pathlib_reads_them(self, capsys, tmp_path, monkeypatch, write_doc):
        # "" is the working directory, and a trailing slash is dropped.
        write_doc(SOS2_DOC)
        monkeypatch.chdir(tmp_path)
        assert run(capsys, "formulate", "") == (
            1, "", "error: cannot read : [Errno 21] Is a directory: '.'\n")
        assert run(capsys, "formulate", "problem.json/", "--out", "f.json/")[0] == 0
        assert (tmp_path / "f.json").read_text().startswith("{")

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_a_write_that_fails_after_the_open(self, capsys, write_doc):
        # The open succeeds and the write fails: one attempt, one error.
        problem = write_doc(SOS2_DOC)
        assert run(capsys, "formulate", problem, "--out", "/dev/full") == (1, "", (
            "error: cannot write /dev/full: [Errno 28] No space left on device\n"))


def _usage_table(problem, formulation, pwl):
    """argv per subcommand: a valid call, an unknown flag, a missing
    positional or required flag, a bad choice, --max-enum 0 and --help."""
    return {
        "encode": [["--kind", "gray", "--s", "2"], ["--kind", "gray", "--s", "2", "--bogus"],
                   ["--s", "2"], ["--kind", "red", "--s", "2"],
                   ["--kind", "gray", "--s", "2", "--max-enum", "0"],
                   ["--kind", "gray", "--s", "1", "--d", "2"], ["--help"]],
        "formulate": [[problem, "--check", "none"], [problem, "--bogus"], ["--check", "none"],
                      [problem, "--encoding", "red"], [problem, "--max-enum", "0"], ["--help"]],
        "pwl": [[pwl, "--check", "none"], [pwl, "--bogus"], [], [pwl, "--format", "xml"],
                [pwl, "--max-enum", "0"], ["--help"]],
        "annulus": [["--d", "4", "--check", "none"], ["--d", "4", "--bogus"], [],
                    ["--d", "4", "--encoding", "red"], ["--d", "4", "--max-enum", "0"],
                    ["--help"]],
        "verify": [[problem, formulation], [problem, formulation, "--bogus"], [problem],
                   [problem, formulation, "--check", "none"],
                   [problem, formulation, "--max-enum", "0"], ["--help"]],
        "": [[], ["--help"], ["nope"], ["--bogus", "encode"]],
    }


class TestSubcommandDispatch:
    """argv that opens with a subcommand goes straight to its parser, with
    the result the full tree gives."""

    @staticmethod
    def outcome(capsys, argv):
        try:
            code = main(argv)
        except SystemExit as exit:
            code = ("exit", exit.code)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_main_matches_the_full_tree(self, capsys, monkeypatch, write_doc, tmp_path):
        problem, pwl = write_doc(SOS2_DOC), write_doc(PWL_DOC, "pwl.json")
        formulation = str(tmp_path / "f.json")
        assert main(["formulate", problem, "--out", formulation]) == 0
        capsys.readouterr()
        for command, argvs in _usage_table(problem, formulation, pwl).items():
            for argv in argvs:
                argv = [command, *argv] if command else argv
                got = self.outcome(capsys, argv)
                with monkeypatch.context() as full_tree:
                    full_tree.setattr(cli._Parser, "parse_known_args",
                                      argparse.ArgumentParser.parse_known_args)
                    assert got == self.outcome(capsys, argv), argv

    def test_a_subcommand_is_parsed_once(self, monkeypatch):
        parsed = []
        scan = argparse.ArgumentParser._parse_known_args
        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args",
                            lambda self, *args, **kwargs: parsed.append(self.prog)
                            or scan(self, *args, **kwargs))
        cli.build_parser().parse_args(["encode", "--kind", "gray", "--s", "1"])
        assert parsed == ["idealform encode"]

    def test_a_namespace_passed_in_is_filled_as_the_full_tree_fills_it(self, monkeypatch):
        argv = ["annulus", "--d", "4", "--check", "none"]
        got = argparse.Namespace(command="x", d=9, out="x.json", kept=1)
        assert cli.build_parser().parse_args(argv, got) is got
        with monkeypatch.context() as full_tree:
            full_tree.setattr(cli._Parser, "parse_known_args",
                              argparse.ArgumentParser.parse_known_args)
            expected = cli.build_parser().parse_args(
                argv, argparse.Namespace(command="x", d=9, out="x.json", kept=1))
        assert vars(got) == vars(expected)
        assert (got.command, got.d, got.out, got.kept) == ("annulus", 4, None, 1)


class TestProcessLevel:
    """The module and the console script really exit with the mapped codes."""

    def test_module_invocation(self):
        r = subprocess.run(
            [sys.executable, "-m", "idealform.cli", "encode", "--kind", "gray", "--s", "2"],
            capture_output=True, text=True,
        )
        assert r.returncode == 0
        assert r.stdout == "0 0\n1 0\n1 1\n0 1\n"

    def test_console_script_maps_exit_codes(self, tmp_path):
        # Run the entry point that pyproject.toml declares the way pip's
        # generated wrapper does, through this interpreter, so the check
        # needs no installed executable on PATH.
        tomllib = pytest.importorskip("tomllib")
        with open(PYPROJECT, "rb") as f:
            scripts = tomllib.load(f)["project"]["scripts"]
        assert "idealform" in scripts
        wrapper = (
            "import sys\n"
            "from importlib.metadata import EntryPoint\n"
            "entry = EntryPoint(name='idealform', value=sys.argv[1], group='console_scripts')\n"
            "sys.argv = ['idealform', 'formulate', sys.argv[2]]\n"
            "sys.exit(entry.load()())\n"
        )
        path = _disconnected_doc(tmp_path)
        r = subprocess.run(
            [sys.executable, "-c", wrapper, scripts["idealform"], str(path)],
            capture_output=True, text=True,
        )
        assert r.returncode == 2
        assert r.stderr.startswith("error:")
        assert "Traceback" not in r.stderr

    @pytest.mark.skipif(
        shutil.which("idealform") is None, reason="idealform console script not installed"
    )
    def test_installed_console_script_maps_exit_codes(self, tmp_path):
        path = _disconnected_doc(tmp_path)
        r = subprocess.run(
            ["idealform", "formulate", str(path)], capture_output=True, text=True
        )
        assert r.returncode == 2

    def test_usage_error_is_exit_1_not_2(self):
        r = subprocess.run(
            [sys.executable, "-m", "idealform.cli", "encode", "--kind", "gray"],
            capture_output=True, text=True,
        )
        assert r.returncode == 1
