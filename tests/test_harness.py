import json
from pathlib import Path

import pytest

from fscoloring import cli, harness
from fscoloring.apartness import weak_apartness_killer
from fscoloring.dyadic import finite_sums, has_weak_apartness
from fscoloring.errors import FixtureError, GuardError
from fscoloring.families import Delta3Family, MonotoneFamily
from fscoloring.treecolor import popcount_coloring


class TestSearchMono:
    def test_killer_triple(self):
        result = harness.search_mono(weak_apartness_killer, 2, 64, 3)
        assert result.found is not None
        values = finite_sums(result.found, 2)
        assert len({weak_apartness_killer(v) for v in values}) == 1
        # the documented apart triple is itself monochromatic
        assert len({weak_apartness_killer(v) for v in finite_sums([4, 16, 64], 2)}) == 1

    def test_popcount_pair(self):
        result = harness.search_mono(popcount_coloring, 2, 16, 2)
        assert result.found is not None
        a, b = result.found
        assert popcount_coloring(a) == popcount_coloring(b) == popcount_coloring(a + b)

    def test_filtered_search_exhausts(self):
        not_weak_apart = lambda values: not has_weak_apartness(list(values))[0]
        result = harness.search_mono(
            weak_apartness_killer, 2, 32, 3, subset_filter=not_weak_apart
        )
        assert result.exhausted

    def test_guard(self):
        with pytest.raises(GuardError) as failure:
            harness.search_mono(popcount_coloring, 2, 10 ** 6, 4)
        assert failure.value.guard == "search_combinations"

    def test_unbounded_terms(self):
        bounded = harness.search_mono(popcount_coloring, None, 16, 2)
        if bounded.found:
            sums = finite_sums(bounded.found)
            assert len({popcount_coloring(v) for v in sums}) == 1

    def test_construction_coloring_search(self):
        # construction colorings are total from 1, so bounded searches work
        spec = {"id": "delta3", "config": harness.default_config("delta3")}
        color, _arity = harness.build_coloring(spec)
        assert color(1) == 0
        result = harness.search_mono(color, 2, 24, 2, coloring_spec=spec)
        if result.found:
            values = finite_sums(result.found, 2)
            assert len({color(v) for v in values}) == 1


class TestConfig:
    def test_default_roundtrip(self, tmp_path):
        for catalog in ("delta3", "pi3"):
            payload = harness.default_config(catalog)
            path = tmp_path / ("%s.json" % catalog)
            harness.save_config(path, payload)
            family = harness.build_family(harness.load_config(path))
            expected = Delta3Family if catalog == "delta3" else MonotoneFamily
            assert isinstance(family, expected)
            assert family.count == 4

    def test_rejects_mixed_kinds(self):
        payload = harness.default_config("delta3")
        payload["families"][1]["kind"] = "monotone"
        with pytest.raises(FixtureError):
            harness.build_family(payload)

    def test_rejects_sparse_indices(self):
        payload = harness.default_config("delta3")
        payload["families"][1]["index"] = "7"
        with pytest.raises(FixtureError):
            harness.build_family(payload)

    def test_rejects_unknown_catalog(self):
        with pytest.raises(FixtureError):
            harness.build_family({"catalog": "sigma9", "families": []})

    def test_delayed_config_matches_catalog(self):
        payload = harness.default_config("delta3", "delayed")
        family = harness.build_family(payload)
        assert family.evaluate(0, 8, 2, 4) == 0
        assert family.evaluate(0, 8, 2, 5) == 1

    @pytest.mark.parametrize(
        "path", sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json")),
        ids=lambda path: path.stem,
    )
    def test_shipped_configs_are_the_default_catalog(self, path):
        catalog, variant = path.stem.split("-")
        rendered = harness.render_report(harness.default_config(catalog, variant))
        assert path.read_text(encoding="utf-8") == rendered

    def test_rejects_unknown_variant(self):
        with pytest.raises(FixtureError):
            harness.default_config("pi3", "growing")


class TestGuards:
    def test_overrides(self):
        guards = harness.Guards.from_payload({"horizon": "30"}, blind_bound=99)
        assert guards.horizon == 30 and guards.blind_bound == 99
        assert guards.block_exponent == 20

    def test_payload_roundtrip(self):
        guards = harness.Guards(horizon=31)
        again = harness.Guards.from_payload(guards.to_payload())
        assert again == guards


class TestReports:
    def test_delta3_report_verifies(self, tmp_path):
        config = harness.default_config("delta3", "instant")
        path = tmp_path / "witness.json"
        payload = harness.run_delta3(config, 0, out=str(path))
        assert payload["x"] == "2" and payload["w1"] == "8" and payload["w2"] == "32"
        ok, details = harness.verify_report(harness.load_report(path))
        assert ok, details

    def test_pi3_report_verifies(self, tmp_path):
        config = harness.default_config("pi3", "instant")
        path = tmp_path / "witness.json"
        payload = harness.run_pi3(config, 0, out=str(path))
        assert payload["block_exponent"] == "1" and payload["x"] == "2"
        ok, details = harness.verify_report(harness.load_report(path))
        assert ok, details

    def test_tampered_reports_fail(self, tmp_path):
        config = harness.default_config("delta3", "instant")
        payload = harness.run_delta3(config, 0)
        payload["color_sum"], payload["color_sum_with_x"] = (
            payload["color_sum_with_x"], payload["color_sum"],
        )
        ok, details = harness.verify_report(payload)
        assert not ok
        assert any("verification failed" in line for line in details)

    def test_byte_identical_reports(self):
        config = harness.default_config("pi3", "delayed")
        first = harness.render_report(harness.run_pi3(config, 1))
        second = harness.render_report(harness.run_pi3(config, 1))
        assert first == second

    def test_blind_mode_reports(self):
        config = harness.default_config("delta3", "instant")
        payload = harness.run_delta3(config, 0, mode="blind")
        assert payload["mode"] == "blind"
        ok, _details = harness.verify_report(payload)
        assert ok

    def test_broken_fixture_rejected_before_run(self):
        config = harness.default_config("pi3")
        config["families"][0]["ceiling"] = "-2"  # counts must be nonnegative
        with pytest.raises(FixtureError):
            harness.run_pi3(config, 0)

    def test_extraction_report_verifies(self, tmp_path):
        path = tmp_path / "extract.json"
        payload = harness.run_extraction({"kind": "arithmetic", "start": "1", "step": "3"}, 5,
                                         out=str(path))
        assert [entry["value"] for entry in payload["outputs"]] == ["1", "4", "16", "64", "256"]
        ok, details = harness.verify_report(harness.load_report(path))
        assert ok, details

    def test_search_report_verifies(self):
        payload = harness.search_report({"id": "killer"}, 2, 32, 3)
        assert payload["outcome"] == "found"
        ok, details = harness.verify_report(payload)
        assert ok, details

    def test_eval_report_verifies(self):
        payload = harness.eval_table({"id": "popcount"}, 1, 8)
        values = [entry["color"][0] for entry in payload["values"]]
        assert values == ["1", "1", "0", "1", "0", "0", "1", "1"]
        ok, _details = harness.verify_report(payload)
        assert ok

    def test_tree_check_report_verifies(self):
        payload = harness.tree_check_report(5, 5, 7, [2, 3])
        assert payload["ok"]
        ok, _details = harness.verify_report(payload)
        assert ok

    def test_unknown_report_kind(self):
        ok, details = harness.verify_report({"report": "mystery"})
        assert not ok and "unknown" in details[0]

    def test_catalog_kind_mismatch_fails(self):
        payload = harness.run_delta3(harness.default_config("delta3"), 0)
        payload["config"] = harness.default_config("pi3")
        ok, details = harness.verify_report(payload)
        assert not ok
        assert any("does not match" in line for line in details)


class TestProductKill:
    @pytest.mark.parametrize("catalog", ["delta3", "pi3"])
    def test_weakly_apart_via_construction(self, catalog, tmp_path):
        config = harness.default_config(catalog, "instant")
        path = tmp_path / "kill.json"
        payload = harness.run_product_kill(config, 0, out=str(path))
        assert payload["branch"] == "construction"
        assert payload["color_u"] != payload["color_v"]
        ok, details = harness.verify_report(harness.load_report(path))
        assert ok, details

    @pytest.mark.parametrize("catalog", ["delta3", "pi3"])
    def test_clustered_via_killer(self, catalog):
        config = harness.default_config(catalog, "instant")
        payload = harness.run_product_kill(config, 2)
        assert payload["branch"] == "killer"
        # the construction component may agree; a parity component must differ
        assert payload["color_u"][1:] != payload["color_v"][1:]
        ok, details = harness.verify_report(payload)
        assert ok, details


class TestColoringSpecs:
    @pytest.mark.parametrize(
        "spec, arity",
        [
            ({"id": "popcount"}, 1),
            ({"id": "killer"}, 2),
            ({"id": "tree-default", "modulus": "3"}, 1),
            ({"id": "tree-random", "seed": "5", "modulus": "2"}, 1),
        ],
    )
    def test_build(self, spec, arity):
        color, reported = harness.build_coloring(spec)
        assert reported == arity
        value = color(12)
        assert len(harness.color_tuple(value)) == arity
        if spec["id"].startswith("tree"):
            assert color(1) == 0  # 1 is the root of its own one-vertex block

    def test_construction_coloring_needs_matching_catalog(self):
        with pytest.raises(FixtureError):
            harness.build_coloring({"id": "delta3", "config": harness.default_config("pi3")})

    def test_unknown_spec(self):
        with pytest.raises(FixtureError):
            harness.build_coloring({"id": "rainbow"})


class TestCli:
    def test_eval(self, capsys):
        assert cli.main(["eval", "--coloring", "popcount", "--end", "8"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "# coloring=popcount arity=1"
        assert "5\t0" in out

    def test_tree_check(self, capsys):
        assert cli.main([
            "tree", "check", "--max-exponent", "4", "--functions", "3",
            "--moduli", "2,3",
        ]) == 0
        assert "tree check OK" in capsys.readouterr().out

    def test_witness_and_verify(self, tmp_path, capsys):
        report = tmp_path / "w.json"
        assert cli.main(["delta3", "witness", "--index", "0", "--out", str(report)]) == 0
        assert cli.main(["verify", str(report)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_catches_tampering(self, tmp_path, capsys):
        report = tmp_path / "w.json"
        assert cli.main(["pi3", "witness", "--index", "0", "--out", str(report)]) == 0
        payload = json.loads(report.read_text())
        payload["x"] = "3"
        report.write_text(json.dumps(payload))
        assert cli.main(["verify", str(report)]) == 1
        assert "VERIFICATION FAILED" in capsys.readouterr().out

    def test_product_flag(self, tmp_path):
        report = tmp_path / "kill.json"
        assert cli.main([
            "pi3", "witness", "--index", "2", "--product", "--out", str(report),
        ]) == 0
        assert cli.main(["verify", str(report)]) == 0

    def test_blind_flag(self, tmp_path):
        report = tmp_path / "w.json"
        assert cli.main([
            "delta3", "witness", "--index", "0", "--blind", "--out", str(report),
        ]) == 0
        assert json.loads(report.read_text())["mode"] == "blind"

    def test_blind_bound_flag(self, capsys):
        # a bound too small to hold any witness pair exhausts explicitly
        code = cli.main(["delta3", "witness", "--index", "0", "--blind", "--bound", "16"])
        assert code == 1
        assert "no witness" in capsys.readouterr().err

    def test_search(self, capsys):
        assert cli.main([
            "search-mono", "--coloring", "killer", "--max-terms", "2",
            "--bound", "64", "--size", "3",
        ]) == 0
        assert "found" in capsys.readouterr().out

    def test_extract(self, capsys):
        assert cli.main(["apartness", "extract", "--stream", "naturals", "--count", "4"]) == 0
        assert "8 = sum of" in capsys.readouterr().out

    def test_exit_codes(self, tmp_path, capsys):
        # witness search exhaustion is a verification-class failure
        assert cli.main(["delta3", "witness", "--index", "3", "--blind"]) == 1
        # an exhausted search-mono is an outcome recorded in its report, not a failure
        assert cli.main([
            "search-mono", "--coloring", "killer", "--max-terms", "2",
            "--bound", "12", "--size", "4",
        ]) == 0
        assert "exhausted" in capsys.readouterr().out
        # config and usage problems exit 2
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"catalog": "nope", "families": []}))
        assert cli.main([
            "delta3", "witness", "--index", "0", "--config", str(bad),
        ]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("coloring", ["tree-default", "tree-random"])
    def test_tree_searches_verify(self, coloring, tmp_path, capsys):
        report = tmp_path / "search.json"
        assert cli.main([
            "search-mono", "--coloring", coloring, "--max-terms", "3",
            "--bound", "48", "--size", "5", "--out", str(report),
        ]) == 0
        assert cli.main(["verify", str(report)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_guard_names_match_flags(self, capsys):
        # the delta3 block scan at top bit 22 trips the guard --guard-block-exponent raises
        code = cli.main(["eval", "--coloring", "delta3", "--start", "6291456", "--end", "6291456"])
        assert code == 2
        assert "guard 'block_exponent' exceeded" in capsys.readouterr().err
        assert "block_exponent" in harness.Guards.__dataclass_fields__

    def test_guard_override(self, capsys):
        code = cli.main([
            "search-mono", "--coloring", "popcount", "--bound", "100", "--size", "4",
            "--guard-search-combinations", "1000",
        ])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    def test_config_file_flow(self, tmp_path):
        config = tmp_path / "catalog.json"
        harness.save_config(config, harness.default_config("delta3", "delayed"))
        report = tmp_path / "w.json"
        assert cli.main([
            "delta3", "witness", "--index", "0", "--config", str(config),
            "--out", str(report),
        ]) == 0
        payload = json.loads(report.read_text())
        assert payload["w2"] == "128"
        assert cli.main(["verify", str(report)]) == 0