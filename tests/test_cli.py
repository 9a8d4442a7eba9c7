from __future__ import annotations

import json
import time
from pathlib import Path

import pytest

from mosipcert import cli


def _run(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _run_json(capsys, argv):
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert err == ""
    return code, json.loads(out)


class TestSubcommands:
    def test_quals_table(self, capsys):
        code, out, err = _run(capsys, ["quals", "alternating-affine", "--point", "0"])
        assert code == 0 and err == ""
        assert "LFMCQ  Holds" in out
        assert "diagram: all" in out

    def test_quals_json_thirteen_rows(self, capsys):
        code, doc = _run_json(
            capsys, ["quals", "neg-semicircle", "--point", "0"]
        )
        assert code == 0
        assert len(doc["quals"]) == 13
        assert doc["diagram_violations"] == []
        by = {r["qual"]: r["status"] for r in doc["quals"]}
        assert by["MFCQ"] == "Fails" and by["PMFCQ"] == "Holds"

    def test_certify_table_weak_separator(self, capsys):
        code, out, _ = _run(
            capsys, ["certify", "octagon-support", "--point", "0,0"]
        )
        assert code == 0
        assert "separator" in out
        assert "perturbed KKT: fails" in out

    def test_certify_json_with_verify(self, capsys):
        code, doc = _run_json(
            capsys,
            ["certify", "alternating-affine", "--point", "0", "--verify"],
        )
        assert code == 0
        assert doc["weak"]["kind"] == "Weak"
        assert doc["strong"]["certificate"]["kind"] == "Strong"
        assert doc["perturbed"]["holds"] is True
        assert doc["isolation_inclusion"] is not None

    def test_gap_with_sweep(self, capsys):
        code, doc = _run_json(
            capsys, ["gap", "alternating-affine", "--point", "0", "--nu", "2"]
        )
        assert code == 0
        # weak and strong read one maximised-margin LP
        assert doc["weak"]["witness"]["lambda"] == [[1, 2], [1, 2]]
        assert doc["strong"]["witness"]["lambda"] == [[1, 2], [1, 2]]
        assert all(t["success"] for t in doc["perturbed_sweep"]["per_w"])

    def test_gap_sweep_beyond_radius(self, capsys):
        code, doc = _run_json(
            capsys,
            ["gap", "alternating-affine", "--point", "0", "--nu", "201/100"],
        )
        assert code == 0
        assert not all(t["success"] for t in doc["perturbed_sweep"]["per_w"])
        assert doc["perturbed_sweep"]["exact_equivalence_verdict"] is False

    def test_classify(self, capsys):
        code, doc = _run_json(
            capsys,
            [
                "classify",
                "alternating-affine",
                "--point",
                "0",
                "--box=-3:0",
                "--resolution",
                "151",
            ],
        )
        assert code == 0
        assert doc["weak_refuted"] is None
        assert doc["nu_hat"] == pytest.approx(2.0, abs=1e-9)

    def test_report_merges_everything(self, capsys):
        code, doc = _run_json(
            capsys,
            [
                "report",
                "alternating-affine",
                "--point",
                "0",
                "--box=-3:0",
                "--resolution",
                "101",
                "--verify",
            ],
        )
        assert code == 0
        assert set(doc) == {
            "problem",
            "candidate",
            "quals",
            "diagram_violations",
            "kkt",
            "gap",
            "oracle",
            "claims",
        }
        levels = [(c["level"], c["asserted"]) for c in doc["claims"]]
        assert ("WeakEfficient", True) in levels
        assert ("Efficient", True) in levels
        assert ("IsolatedEfficient", True) in levels
        assert doc["oracle"]["nu_hat"] == pytest.approx(2.0, abs=1e-9)

    def test_report_without_box_skips_oracle(self, capsys):
        code, doc = _run_json(
            capsys, ["report", "octagon-support", "--point", "0,0"]
        )
        assert code == 0
        assert doc["oracle"] is None
        assert all(c["provenance"] == "approximated-subdifferentials" for c in doc["claims"])

    def test_non_extreme_active_gradient_is_listed_and_verifies(self, capsys, tmp_path):
        # min max(x1, x2, (x1 + x2)/2) over the nonnegative quadrant at 0:
        # the middle gradient is not extreme, and the certificates list it in
        # the objective's vertex table all the same
        def pieces(*grads):
            return [{"a": [[n, d] for n, d in a], "b": [0, 1]} for a in grads]

        doc = {
            "dimension": 2,
            "objectives": [{"kind": "max_affine",
                            "pieces": pieces([(1, 1), (0, 1)], [(0, 1), (1, 1)], [(1, 2), (1, 2)])}],
            "constraints": {"finite": [{"kind": "max_affine",
                                        "pieces": pieces([(-1, 1), (0, 1)], [(0, 1), (-1, 1)])}]},
            "feasible_set": {"rows": [[[-1, 1], [0, 1], [0, 1]], [[0, 1], [-1, 1], [0, 1]]]},
        }
        path = tmp_path / "middle.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        table = [[[0, 1], [1, 1]], [[1, 2], [1, 2]], [[1, 1], [0, 1]]]
        code, cert = _run_json(capsys, ["certify", str(path), "--point", "0,0", "--verify"])
        assert code == 0
        assert cert["weak"]["objectives"][0]["vertices"] == table
        assert cert["strong"]["certificate"]["objectives"][0]["vertices"] == table
        code, report = _run_json(capsys, ["report", str(path), "--point", "0,0", "--verify"])
        assert code == 0
        assert report["kkt"]["weak"]["objectives"][0]["vertices"] == table

    def test_redundant_domain_normal_is_listed_and_verifies(self, capsys, tmp_path):
        # min -x1 - x2 subject to x1 + x2 <= 0 on the domain x1 <= 0, x2 <= 0,
        # x1 + x2 <= 0: the third row's normal is implied by the other two,
        # and the certificates list it as a ray with coefficient 0
        def row(*entries):
            return [[n, 1] for n in entries]

        doc = {
            "dimension": 2,
            "objectives": [{"kind": "affine", "a": row(-1, -1), "b": [0, 1]}],
            "constraints": {"finite": [{"kind": "affine", "a": row(1, 1), "b": [0, 1],
                                        "domain": {"rows": [row(1, 0, 0), row(0, 1, 0),
                                                            row(1, 1, 0)]}}]},
            "feasible_set": {"rows": [row(1, 0, 0), row(0, 1, 0)]},
        }
        path = tmp_path / "redundant-domain.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, cert = _run_json(capsys, ["certify", str(path), "--point", "0,0", "--verify"])
        assert code == 0
        for term in (cert["weak"]["constraints"][0], cert["strong"]["certificate"]["constraints"][0]):
            assert term["rays"] == [row(0, 1), row(1, 0), row(1, 1)]
            assert term["ray_coeffs"][2] == [0, 1]
        code, _ = _run_json(capsys, ["report", str(path), "--point", "0,0", "--verify"])
        assert code == 0


class TestExitCodes:
    def test_infeasible_candidate(self, capsys):
        code, out, err = _run(
            capsys, ["certify", "alternating-affine", "--point", "1"]
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: infeasible-candidate: ")
        assert err.count("\n") == 1

    def test_bad_point(self, capsys):
        code, _, err = _run(
            capsys, ["certify", "alternating-affine", "--point", "abc"]
        )
        assert code == 3
        assert err.startswith("error: parse: ")

    def test_missing_problem_file(self, capsys):
        code, _, err = _run(capsys, ["quals", "nowhere.json", "--point", "0"])
        assert code == 3
        assert err.startswith("error: model: ")

    def test_malformed_problem_file(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{broken", encoding="utf-8")
        code, _, err = _run(capsys, ["quals", str(bad), "--point", "0"])
        assert code == 3
        assert err.startswith("error: parse: ")

    def _broken_fixture(self, tmp_path, edit, name="alternating-affine"):
        from mosipcert.instances import fixture_path

        doc = json.loads(fixture_path(name).read_text(encoding="utf-8"))
        edit(doc)
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_zero_denominator_is_a_parse_error(self, capsys, tmp_path):
        def edit(doc):
            doc["objectives"][0]["b"] = [1, 0]

        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ")
        assert err.count("\n") == 1

    def test_objectives_object_is_a_parse_error(self, capsys, tmp_path):
        def edit(doc):
            doc["objectives"] = {"x": 1}

        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ")
        assert err.count("\n") == 1

    def test_bad_domain_row_is_a_parse_error(self, capsys, tmp_path):
        def edit(doc):
            doc["objectives"][0]["domain"] = {"rows": [[[1, 1]]]}

        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "annotations", [[["name", "sneaky"]], [], "sneaky"], ids=["pairs", "empty-list", "string"]
    )
    def test_non_object_annotations_are_a_parse_error(self, capsys, tmp_path, annotations):
        # dict() would read a list of pairs as an object and an empty list as
        # no annotations
        path = self._broken_fixture(tmp_path, lambda doc: doc.update(annotations=annotations))
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        kind = type(annotations).__name__
        assert err == f"error: parse: annotation must be an object, not {kind}\n"

    @pytest.mark.parametrize(
        "name, argv, key, value",
        [
            ("octagon-support", ["quals", "--point", "0,0"], "g_polar",
             [[1, 1], [0, 1], [0, 1]]),
            ("octagon-support", ["quals", "--point", "0,0"], "g_polar", [[1], [0, 1]]),
            ("octagon-support", ["quals", "--point", "0,0"], "g_polar", [[1, 0], [0, 1]]),
            ("alternating-affine", ["quals", "--point", "0"], "pinned", [[0]]),
            ("alternating-affine", ["classify", "--point", "0", "--box=-3:0"], "nu",
             [2, 0]),
        ],
        ids=["normal-length", "normal-entry", "normal-zero-den", "pinned-entry",
             "nu-zero-den"],
    )
    def test_malformed_annotation_rational_is_a_parse_error(
        self, capsys, tmp_path, name, argv, key, value
    ):
        def edit(doc):
            notes = doc["annotations"]
            if key == "g_polar":
                notes["documented_g_polar"]["normals"][0] = value
            elif key == "pinned":
                notes["g_sets_exact"]["points"] = [value]
            else:
                notes["isolation"]["documented_nu"] = value

        path = self._broken_fixture(tmp_path, edit, name)
        code, out, err = _run(capsys, [argv[0], path, *argv[1:]])
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "edit, category",
        [
            (lambda doc: doc["annotations"].update(flags=[]), "parse"),
            (lambda doc: doc["annotations"].update(flags={"continuous": "false"}), "parse"),
            (lambda doc: doc.update(psi_override={"kind": "max_affine", "pieces": []}), "parse"),
            (lambda doc: doc["objectives"].append(
                {"kind": "max_affine", "pieces": [{"a": [[1, 1]], "b": [0, 1]},
                                                  {"a": [[1, 1], [0, 1]], "b": [0, 1]}]}
            ), "parse"),
            (lambda doc: doc.update(dimension=float("inf")), "parse"),
            (lambda doc: doc.update(dimension=1.5), "parse"),
            (lambda doc: doc["constraints"]["indexed"].update(truncation=50.7), "parse"),
            (lambda doc: doc["feasible_set"].update(rows=[]), "model"),
        ],
        ids=["flags-list", "flag-string", "no-pieces", "ragged-pieces", "inf-dimension",
             "float-dimension", "float-truncation", "feasible-set-too-large"],
    )
    def test_fuzz_findings_exit_3_with_one_error_line(self, capsys, tmp_path, edit, category):
        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err.startswith(f"error: {category}: ") and err.count("\n") == 1

    def test_family_params_are_a_model_error(self, capsys, tmp_path):
        # no builtin family reads params: the default family's table would be
        # printed for a family the file does not describe
        def edit(doc):
            doc["constraints"]["indexed"]["params"] = {"slope": [7, 1]}

        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err == "error: model: constraint family 'alternating_affine' takes no params\n"

    @pytest.mark.parametrize(
        "name, point, edit, error",
        [
            ("octagon-support", "0,0",
             lambda doc: doc.update(psi_overide=doc.pop("psi_override"),
                                    feasible_sett=doc.pop("feasible_set")),
             "unknown problem keys: ['feasible_sett', 'psi_overide']"),
            ("alternating-affine", "0",
             lambda doc: doc["objectives"][0].update(domian={"rows": [[[1, 1], [0, 1]]]}),
             "unknown affine function keys: ['domian']"),
            ("alternating-affine", "0",
             lambda doc: doc["constraints"]["indexed"].update(truncaton=3),
             "unknown indexed family keys: ['truncaton']"),
        ],
        ids=["problem", "function", "family"],
    )
    def test_misspelled_key_is_a_model_error(self, capsys, tmp_path, name, point, edit, error):
        # a key the loader does not read would otherwise drop its data
        # silently: the envelope, the feasible set or a domain
        path = self._broken_fixture(tmp_path, edit, name)
        code, out, err = _run(capsys, ["quals", path, "--point", point])
        assert code == 3 and out == ""
        assert err == f"error: model: {error}\n"

    def test_removed_norm_kind_is_a_model_error(self, capsys, tmp_path):
        def edit(doc):
            doc["objectives"][0] = {
                "kind": "scaled_2norm", "center": [[0, 1]], "weight": [1, 1]
            }

        path = self._broken_fixture(tmp_path, edit)
        code, out, err = _run(capsys, ["quals", path, "--point", "0"])
        assert code == 3 and out == ""
        assert err.startswith("error: model: unknown function kind")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("where", ["point", "file"])
    def test_huge_exponent_is_a_parse_error(self, capsys, tmp_path, where):
        # expanding 1e99999999 would build a hundred-million-digit integer
        argv = ["quals", "alternating-affine", "--point", "0"]
        if where == "point":
            argv[3] = "1e99999999"
        else:
            argv[1] = self._broken_fixture(
                tmp_path, lambda doc: doc["objectives"][0].update(b="1e99999999")
            )
        start = time.perf_counter()
        code, out, err = _run(capsys, argv)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["certify", "alternating-affine", "--point=-1e4300", "--format", "json"],
            ["quals", "alternating-affine", "--point=-1e4300", "--format", "json"],
            ["quals", "alternating-affine", "--point=1e-4300"],
            ["classify", "alternating-affine", "--point=0", "--box=-1e4300:0"],
            ["quals", "FILE", "--point=0"],
        ],
        ids=["certify-point", "quals-point", "quals-denominator", "classify-box", "file"],
    )
    def test_value_too_long_to_print_is_a_parse_error(self, capsys, tmp_path, argv):
        # 10**4300 has 4301 digits, one more than str() of an int writes
        if argv[1] == "FILE":
            argv[1] = self._broken_fixture(
                tmp_path, lambda doc: doc["objectives"][0].update(a=["1e4300"])
            )
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ") and err.count("\n") == 1

    def test_longest_printable_value_still_prints(self, capsys):
        code, out, err = _run(capsys, ["quals", "alternating-affine", "--point=-1e4299"])
        assert code == 0 and err == ""
        assert f"candidate: ({-(10**4299)})" in out

    @pytest.mark.parametrize("where", ["option", "file"])
    def test_truncation_is_refused_before_any_member_is_built(
        self, capsys, tmp_path, monkeypatch, where
    ):
        from mosipcert import problem

        build = problem.BUILTIN_FAMILIES["alternating_affine"]

        def guarded(params, truncation):
            if truncation > problem.MAX_TRUNCATION:
                raise AssertionError("the members must not be built")
            return build(params, truncation)

        monkeypatch.setitem(problem.BUILTIN_FAMILIES, "alternating_affine", guarded)
        argv = ["quals", "alternating-affine", "--point", "0"]
        if where == "option":
            argv += ["--truncation", "1000000000"]
        else:
            argv[1] = self._broken_fixture(
                tmp_path,
                lambda doc: doc["constraints"]["indexed"].update(truncation=10**9),
            )
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: model: ") and err.count("\n") == 1
        assert str(problem.MAX_TRUNCATION) in err

    @pytest.mark.parametrize("too_many", [False, True])
    @pytest.mark.parametrize(
        "argv",
        [
            ["gap", "octagon-support", "--point=0,0", "--nu", "2"],
            ["report", "alternating-affine", "--point=0", "--nu", "2"],
            # without --nu no sweep runs, and the value is refused all the same
            ["gap", "octagon-support", "--point=0,0"],
            ["report", "alternating-affine", "--point=0"],
        ],
    )
    def test_sample_count_out_of_range_is_refused(self, capsys, monkeypatch, argv, too_many):
        from mosipcert import gap

        def unreachable(n, count):
            raise AssertionError("no tilt may be drawn")

        monkeypatch.setattr(gap, "_sphere_directions", unreachable)
        count = gap.MAX_SAMPLE_COUNT + 1 if too_many else -1
        code, out, err = _run(capsys, argv + ["--sample-count", str(count)])
        assert code == 3 and out == ""
        assert err.startswith("error: model: ") and err.count("\n") == 1
        assert str(count) in err if too_many else "nonnegative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # PMFCQ reads the grid up to its first certified entry, 1 here
            ["quals", "alternating-affine", "--point=0", "--eps-grid=1,-1"],
            ["quals", "octagon-support", "--point=0,0", "--eps-grid=1,-1"],
            ["quals", "octagon-support", "--point=0,0", "--eps-grid=-1"],
            # a finite family never reads the grid
            ["quals", "LINEALITY", "--point=0,0,0", "--eps-grid=-1"],
            # nor do the other subcommands
            ["certify", "alternating-affine", "--point=0", "--eps-grid=-1/2"],
            ["gap", "octagon-support", "--point=0,0", "--eps-grid=-1"],
            ["classify", "alternating-affine", "--point=0", "--box=-3:0", "--eps-grid=-1"],
            ["report", "alternating-affine", "--point=0", "--eps-grid=0,-1"],
        ],
        ids=["after-a-certificate", "after-a-value", "only-entry", "finite-family",
             "certify", "gap", "classify", "report"],
    )
    def test_negative_eps_grid_entry_is_refused(self, capsys, argv):
        if argv[1] == "LINEALITY":
            argv[1] = str(Path(__file__).parent / "problems" / "lineality-plane.json")
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err == "error: model: epsilon must be nonnegative\n"

    def test_zero_samples_leave_the_axis_tilts(self, capsys):
        argv = ["gap", "octagon-support", "--point=0,0", "--nu", "2", "--sample-count", "0"]
        code, doc = _run_json(capsys, argv)
        assert code == 0 and len(doc["perturbed_sweep"]["per_w"]) == 4

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "alternating-affine", "--point", "0", "--box", ""],
            ["report", "alternating-affine", "--point", "0", "--box", ""],
            ["gap", "alternating-affine", "--point", "0", "--nu", ""],
            ["quals", "alternating-affine", "--point", "0", "--eps-grid", ""],
        ],
    )
    def test_empty_option_value_is_a_parse_error(self, capsys, argv):
        code, out, err = _run(capsys, argv)
        assert code == 3 and out == ""
        assert err.startswith("error: parse: ") and err.count("\n") == 1

    def test_missing_required_flag(self, capsys):
        code, _, err = _run(capsys, ["certify", "alternating-affine"])
        assert code == 3
        assert "error: usage:" in err

    def test_unknown_subcommand(self, capsys):
        code, _, err = _run(capsys, ["frobnicate", "alternating-affine"])
        assert code == 3

    def test_classify_requires_box(self, capsys):
        code, _, err = _run(
            capsys, ["classify", "alternating-affine", "--point", "0"]
        )
        assert code == 3
        assert "error: usage:" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["classify", "octagon-support", "--point", "0,0", "--box=-2:0,-2:0"],
            ["report", "alternating-affine", "--point", "0", "--box=-3:0"],
        ],
    )
    def test_oversized_grid_is_refused_before_it_is_built(self, argv, capsys, monkeypatch):
        from mosipcert import oracle

        def never(*args, **kwargs):
            raise AssertionError("the grid must not be built")

        monkeypatch.setattr(oracle.np, "meshgrid", never)
        monkeypatch.setattr(oracle.np, "linspace", never)
        code, out, err = _run(capsys, argv + ["--resolution", str(10**12)])
        assert code == 3 and out == ""
        assert err.startswith("error: model: ") and err.count("\n") == 1
        assert str(oracle.MAX_GRID_POINTS) in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = _run(capsys, ["--help"])
        assert code == 0
        assert "quals" in out and "report" in out


class TestOptions:
    def test_rational_point_forms(self, capsys):
        # 1/2 parses as a rational and is then rejected as infeasible (S: x <= 0)
        code, _, err = _run(
            capsys, ["certify", "alternating-affine", "--point", "1/2"]
        )
        assert code == 2

        code, _, err = _run(
            capsys, ["certify", "alternating-affine", "--point=-1/2"]
        )
        assert code == 0

    def test_truncation_override(self, capsys):
        code, _, err = _run(
            capsys,
            ["quals", "alternating-affine", "--point", "0", "--truncation", "3"],
        )
        assert code == 0 and err == ""

    def test_truncation_rejected_for_finite_families(self, capsys, tmp_path):
        from mosipcert.funcs import Affine, HPoly
        from mosipcert.problem import FiniteFamily, MosipProblem, dump_problem
        from mosipcert.rationals import Q

        p = MosipProblem(
            dimension=1,
            objectives=[Affine([1], 0)],
            constraints=FiniteFamily([Affine([1], 0)]),
            feasible_set=HPoly(1, [((Q(1),), Q(0))]),
            annotations={"name": "finite"},
        )
        path = tmp_path / "finite.json"
        path.write_text(dump_problem(p), encoding="utf-8")
        code, _, err = _run(
            capsys, ["quals", str(path), "--point", "0", "--truncation", "5"]
        )
        assert code == 3
        assert err.startswith("error: model: ")

    def test_eps_grid_override(self, capsys):
        code, _, err = _run(
            capsys,
            ["quals", "alternating-affine", "--point", "0", "--eps-grid", "1/2,1/4"],
        )
        assert code == 0 and err == ""

    def test_dimension_seven_decides_wadq_and_eadq(self, capsys, tmp_path):
        # three affine objectives and constraints in 7-space, two active at 0:
        # every check runs, and WADQ and EADQ decide by one containment, as
        # in any dimension
        def affine(a, b=0):
            return {"kind": "affine", "a": [[c, 1] for c in a], "b": [b, 1]}

        cons = [([-1, 0, 0, 0, 0, 0, 0], 0), ([0, -1, -1, 0, 0, 0, 0], 0), ([0, 0, 0, -1, 0, 0, 0], -1)]
        doc = {
            "dimension": 7,
            "objectives": [affine([1, 0, 0, 0, 0, 0, 1]), affine([0, 1, 0, 0, 0, 1, 0]),
                           affine([0, 0, 1, 0, 1, 0, 0])],
            "constraints": {"finite": [affine(a, b) for a, b in cons]},
            "feasible_set": {"rows": [[[c, 1] for c in a] + [[-b, 1]] for a, b in cons]},
        }
        path = tmp_path / "seven.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out = _run_json(capsys, ["quals", str(path), "--point", "0,0,0,0,0,0,0"])
        assert code == 0
        by = {r["qual"]: r for r in out["quals"]}
        normals = [[[c, 1] for c in a] for a, _ in cons[:2]]
        for qual in ("WADQ", "EADQ"):
            assert by[qual]["status"] == "Holds"
            assert by[qual]["witness"]["kind"] == "containment"
            assert by[qual]["witness"]["rhs_normals"] == normals
        assert by["ACQ"]["status"] == "Holds"



class TestDeterminism:
    def test_byte_identical_repeat_runs(self, capsys):
        argv = ["report", "octagon-support", "--point", "0,0", "--format", "json"]
        code1, out1, _ = _run(capsys, argv)
        code2, out2, _ = _run(capsys, argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_run_config_round_trip(self):
        config = cli.parse_config(
            ["gap", "alternating-affine", "--point", "0", "--nu", "2"]
        )
        assert config.subcommand == "gap"
        assert config.nu == 2
        code, text = cli.run(config)
        assert code == 0
        assert "gap zero (weak)" in text
