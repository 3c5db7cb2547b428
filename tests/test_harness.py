import functools
import itertools
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fscoloring import cli, delta3, harness, pi3
from fscoloring.apartness import weak_apartness_killer
from fscoloring.dyadic import finite_sums, has_weak_apartness
from fscoloring.errors import FixtureError, GuardError, VerificationError
from fscoloring.families import Delta3Family, MonotoneFamily
from fscoloring.treecolor import RequestFunction, popcount_coloring

ROOT = Path(__file__).resolve().parent.parent


def fresh_cli(argv, timeout, prefix=(), **run_options):
    """Run the command line in a new interpreter on this checkout's src/,
    behind the arguments in prefix, if any."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    return subprocess.run([*prefix, sys.executable, "-m", "fscoloring.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=timeout, **run_options)


# sets whose first member, or whose member after 2, is 2**100000000000 or more
FAR_POWERS = {"kind": "powers", "modulus": "1", "residue": "0", "min_exponent": "100000000000"}
FAR_COEFF = {"kind": "coeff_powers", "coefficients": ["1"], "step": "100000000000"}
SPARSE_POWERS = {"kind": "powers", "modulus": "100000000000", "residue": "1", "min_exponent": "0"}
SPARSE_COEFF = {"kind": "coeff_powers", "coefficients": ["1", "3"], "step": "100000000000"}
NO_BLOCKS = "only 0 of 1 inhabited blocks above 0 found up to horizon 24"
NO_BLIND_WITNESS = "no witness for fixture 0 below 65536 (not a claim that none exists)"


# palettes of the oracle's colorings; tuple colors stand for product colorings
PALETTES = [(0, 1), (0, 1, 2), ((0, 0), (0, 1)), ((0, 0), (1, 0), (1, 1))]
SUBSET_FILTERS = [None, lambda subset: sum(subset) % 2 == 0, lambda subset: subset[-1] - subset[0] >= 3]


@st.composite
def search_cases(draw):
    """A coloring of 1..bound*size (enough for every sum a search reaches)
    as a list, and the search's inputs."""
    bound, size = draw(st.integers(0, 14)), draw(st.integers(2, 4))
    palette = draw(st.sampled_from(PALETTES))
    colors = draw(st.lists(st.sampled_from(palette), min_size=bound * size + 1,
                           max_size=bound * size + 1))
    return colors, draw(st.sampled_from([1, 2, 3, None])), bound, size


def _cap_address_space():
    # a regressed guard then fails with MemoryError instead of taking the host's memory
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


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

    @pytest.mark.parametrize("color", [popcount_coloring, weak_apartness_killer])
    def test_matches_lexicographic_scan(self, color):
        # the search stops where too few values remain to fill the subset;
        # its outcome is still the first monochromatic subset in order
        for bound, size, max_terms in itertools.product(range(2, 13), (2, 3, 4), (1, 2, None)):
            limit = size if max_terms is None else min(max_terms, size)
            expected = next((subset for subset in itertools.combinations(range(1, bound + 1), size)
                             if len({color(v) for v in finite_sums(subset, limit)}) == 1), None)
            assert harness.search_mono(color, max_terms, bound, size).found == expected

    @given(search_cases(), st.sampled_from(SUBSET_FILTERS))
    @settings(max_examples=300, deadline=None)
    def test_matches_combinations_oracle(self, case, subset_filter):
        colors, max_terms, bound, size = case
        color = colors.__getitem__
        limit = size if max_terms is None else min(max_terms, size)
        expected = next((subset for subset in itertools.combinations(range(1, bound + 1), size)
                         if len({color(v) for v in finite_sums(subset, limit)}) == 1
                         and (subset_filter is None or subset_filter(subset))), None)
        result = harness.search_mono(color, max_terms, bound, size, subset_filter=subset_filter)
        assert result.found == expected
        assert result.colors == ({} if expected is None else {
            v: harness.color_tuple(color(v)) for v in finite_sums(expected, limit)})

    @pytest.mark.parametrize("bound", [3, 8, 10 ** 6])
    def test_rejects_max_terms_below_one(self, bound):
        # refused before the guard and the search; a bound below the size
        # used to search nothing and report "exhausted"
        with pytest.raises(ValueError, match="^max_terms must be at least 1, got 0$"):
            harness.search_mono(popcount_coloring, 0, bound, 5)

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
        "path", sorted((ROOT / "configs").glob("*.json")),
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
        args = cli.build_parser().parse_args([
            "delta3", "witness", "--index", "0",
            "--guard-horizon", "30", "--guard-blind-bound", "99",
        ])
        guards = cli._guards(args)
        assert guards.horizon == 30 and guards.blind_bound == 99
        assert guards.tree_exponent == 16


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


# JSON-like values with every scalar json.dumps renders, non-ASCII text and
# escapes, empty and nested containers, tuples, and dicts keyed by ints
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children) | st.lists(children).map(tuple)
                      | st.dictionaries(st.text(), children)
                      | st.dictionaries(st.integers(), children)),
    max_leaves=30,
)


class Label(str):
    """A str subclass, which render_report must quote as json.dumps does."""

    def __str__(self):
        return "not this"


class TestReportWriter:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_render_matches_json_dumps(self, payload):
        assert harness.render_report(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("payload", [
        {}, [], {"a": [], "b": {}}, [[[]]], "\u00e9\n\"\\\t\u2028\U0001f600",
        [float("nan"), float("inf"), -float("inf"), 1e300, -0.0], {3: {"k": (1, "x")}},
        {"": None, "\x00": True, "z": False},
        # str leaves are written in place; a str subclass, and a tuple of str
        [Label("a\u00e9"), "b"], {"k": Label("\n"), "j": ["x"]}, ("a", "b"),
        {"t": ("x", Label("y"))},
    ])
    def test_render_edge_cases(self, payload):
        assert harness.render_report(payload) == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_shorter_report_leaves_no_tail(self, tmp_path):
        path = tmp_path / "report.json"
        long, short = harness.eval_table({"id": "popcount"}, 1, 64), {"report": "x"}
        harness.write_report(str(path), long)
        harness.write_report(str(path), short)
        assert path.read_text(encoding="utf-8") == harness.render_report(short)
        harness.write_report(str(path), long)
        assert path.read_text(encoding="utf-8") == harness.render_report(long)

    def test_symlink_is_written_through(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("x" * 10000)
        link.symlink_to(target)
        harness.write_report(str(link), {"a": "\u00e9"})
        assert link.is_symlink()
        assert target.read_bytes() == b'{\n  "a": "\\u00e9"\n}\n'

    def test_devices_and_pipes_take_reports(self):
        harness.write_report(os.devnull, {"a": "b"})
        read_end, write_end = os.pipe()
        try:
            harness.write_report("/dev/fd/%d" % write_end, {"a": "b"})
            assert os.read(read_end, 100) == harness.render_report({"a": "b"}).encode()
        finally:
            os.close(read_end)
            os.close(write_end)

    @pytest.mark.parametrize("umask", [0o022, 0o077])
    def test_new_file_mode_follows_umask(self, umask, tmp_path):
        path = tmp_path / "report.json"
        previous = os.umask(umask)
        try:
            harness.write_report(str(path), {})
        finally:
            os.umask(previous)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    @pytest.mark.parametrize("out", [".", "missing/report.json"])
    def test_unwritable_path_exits_2(self, out, tmp_path, capsys):
        argv = ["eval", "--coloring", "popcount", "--end", "3", "--out", str(tmp_path / out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1


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


def _count_constructions(monkeypatch):
    """A counter of the construction colorings built from now on, by
    catalog: pi3 engines and delta3 colorings."""
    counts = {"delta3": 0, "pi3": 0}
    engine_init, delta3_coloring = pi3.Pi3Engine.__init__, delta3.coloring

    def counted_init(self, *args, **kwargs):
        counts["pi3"] += 1
        engine_init(self, *args, **kwargs)

    def counted_coloring(*args, **kwargs):
        counts["delta3"] += 1
        return delta3_coloring(*args, **kwargs)

    monkeypatch.setattr(pi3.Pi3Engine, "__init__", counted_init)
    monkeypatch.setattr(delta3, "coloring", counted_coloring)
    return counts


@pytest.mark.parametrize("catalog", ["delta3", "pi3"])
@pytest.mark.parametrize("argv, built", [
    (["--index", "0"], (2, 1)),
    (["--index", "0", "--blind"], (2, 1)),
    (["--index", "0", "--product"], (2, 1)),
    (["--index", "0", "--product", "--blind"], (2, 1)),
    (["--index", "2", "--product"], (1, 1)),  # the killer branch builds its own
], ids=["witness", "blind-witness", "kill", "blind-kill", "killer-kill"])
def test_constructions_per_command(catalog, argv, built, monkeypatch, tmp_path, capsys):
    # a witness run builds one construction for its search and one for its
    # verify; a product kill colors u and v with the verify's, and the
    # verify of a kill colors them with its embedded witness's verify's
    counts = _count_constructions(monkeypatch)
    report = str(tmp_path / "report.json")
    assert cli.main([catalog, "witness", *argv, "--out", report]) == 0
    run = dict(counts)
    counts[catalog] = 0
    assert cli.main(["verify", report]) == 0
    assert capsys.readouterr().out.endswith("\nVERIFIED\n")
    other = "pi3" if catalog == "delta3" else "delta3"
    assert (run[catalog], counts[catalog], run[other] + counts[other]) == (*built, 0)


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
        code = cli.main(["delta3", "witness", "--index", "0", "--blind",
                         "--guard-blind-bound", "16"])
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

    @pytest.mark.parametrize("product", [False, True])
    @pytest.mark.parametrize("index", ["7", "-1"])
    @pytest.mark.parametrize("catalog", ["delta3", "pi3"])
    def test_rejects_out_of_range_index(self, catalog, index, product, capsys):
        argv = [catalog, "witness", "--index", index] + (["--product"] if product else [])
        assert cli.main(argv) == 2
        assert "outside the catalog [0, 4)" in capsys.readouterr().err

    @pytest.mark.parametrize("min_exponent", [21, 40])
    def test_deep_delta3_witness(self, min_exponent, tmp_path, capsys):
        config = harness.default_config("delta3", "instant")
        config["families"][0]["set"]["min_exponent"] = str(min_exponent)
        path, report = tmp_path / "deep.json", tmp_path / "w.json"
        harness.save_config(str(path), config)
        assert cli.main([
            "delta3", "witness", "--index", "0", "--config", str(path),
            "--guard-horizon", "64", "--out", str(report),
        ]) == 0
        assert int(json.loads(report.read_text())["x"]) >= 1 << min_exponent
        assert cli.main(["verify", str(report)]) == 0
        assert "VERIFIED" in capsys.readouterr().out

    @pytest.mark.parametrize("start", [1 << 60, (1 << 60) + (1 << 40)])
    @pytest.mark.parametrize("variant", ["instant", "delayed", "growing"])
    def test_delta3_eval_at_top_bit_60(self, variant, start, tmp_path, capsys):
        # from 2**60 + 2**40 on, requests reach blocks at exponents up to 39
        report = tmp_path / "eval.json"
        assert cli.main([
            "eval", "--coloring", "delta3", "--variant", variant,
            "--start", str(start), "--end", str(start + 7), "--out", str(report),
        ]) == 0
        assert cli.main(["verify", str(report)]) == 0
        assert "8 table entries re-verified" in capsys.readouterr().out

    def test_delta3_eval_beyond_factored_limit(self, capsys):
        w = (1 << 600) + (1 << 300)
        assert cli.main(["eval", "--coloring", "delta3", "--start", str(w), "--end", str(w)]) == 2
        assert "guard 'factored_exponent' exceeded" in capsys.readouterr().err

    def test_pi3_eval_beyond_chain_bits(self, capsys):
        # requests at level 80 exceed the default chain_bits, the bound
        # --guard-chain-bits raises for witness and verify runs
        w = str((1 << 100) + (1 << 80))
        assert cli.main(["eval", "--coloring", "pi3", "--start", w, "--end", w]) == 2
        assert "guard 'chain_bits' exceeded: requested 80, bound 64" in capsys.readouterr().err
        assert "chain_bits" in harness.Guards.__dataclass_fields__

    def test_tree_eval_beyond_generic_limit(self, capsys):
        # the generic span recursion nests one call per bit, like the factored one
        w = (1 << 1200) + (1 << 1199) + 1
        assert cli.main(["eval", "--coloring", "tree-default", "--start", str(w),
                         "--end", str(w)]) == 2
        assert "guard 'generic_exponent' exceeded" in capsys.readouterr().err

    def test_verify_rejects_oversized_spread_fast(self, tmp_path):
        # a pi3 report claiming exponent 30 with a three-element chain must
        # fail on the spread's shape, not build 2**30 suffix sums first
        x, chain = 1 << 30, [1 << 31, 1 << 33, 1 << 35]
        w = chain[1] + chain[2]
        payload = {
            "report": "pi3-witness",
            "config": {"catalog": "pi3", "families": [{
                "index": "0", "kind": "monotone",
                "set": {"kind": "powers", "modulus": "1", "residue": "0",
                        "min_exponent": "30"},
            }]},
            "index": "0", "mode": "oracle", "block_exponent": "30",
            "x": str(x), "w": str(w), "color_w": "0", "color_w_plus_x": "1",
            "chain": [str(c) for c in chain], "sums": [str(w)], "requests": [str(x)],
            "certificates": {"w": [str(chain[1]), str(chain[2])],
                             "w_plus_x": [str(x), str(chain[1]), str(chain[2])]},
        }
        report = tmp_path / "crafted.json"
        report.write_text(json.dumps(payload))
        result = fresh_cli(["verify", str(report)], timeout=30)
        assert result.returncode == 1, result.stderr
        assert "needs 2**30 sums" in result.stdout

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
        # C(10**6, 4) subsets trip the guard --guard-search-combinations raises,
        # before the search does any work
        code = cli.main(["search-mono", "--coloring", "popcount", "--bound", "1000000",
                         "--size", "4"])
        assert code == 2
        assert "guard 'search_combinations' exceeded" in capsys.readouterr().err
        assert "search_combinations" in harness.Guards.__dataclass_fields__

    def test_guard_override(self, capsys):
        code = cli.main([
            "search-mono", "--coloring", "popcount", "--bound", "100", "--size", "4",
            "--guard-search-combinations", "1000",
        ])
        assert code == 2
        assert "guard" in capsys.readouterr().err

    def test_eval_takes_no_guard_flags(self, capsys):
        # no guard bounds eval, so it offers no flag to raise one
        with pytest.raises(SystemExit) as usage:
            cli.main(["eval", "--coloring", "popcount", "--end", "8", "--guard-horizon", "5"])
        assert usage.value.code == 2
        assert "unrecognized arguments: --guard-horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["tree", "check", "--guard-horizon", "5"],
        ["pi3", "witness", "--index", "0", "--guard-blind-bound", "5"],
        ["delta3", "witness", "--index", "0", "--blind", "--bound", "16"],
    ])
    def test_unread_guard_flags_are_usage_errors(self, argv, capsys):
        # a command offers only the guard flags it reads
        with pytest.raises(SystemExit) as usage:
            cli.main(argv)
        assert usage.value.code == 2
        assert "unrecognized arguments: %s" % argv[-2] in capsys.readouterr().err

    def test_product_kill_takes_chain_bits(self, tmp_path, capsys):
        # this fixture's chain reaches bit 69, above the default chain_bits
        # of 64, so its product kill colors with requests at level 69
        config = {"catalog": "pi3", "families": [{
            "index": "0", "kind": "monotone",
            "set": {"kind": "powers", "modulus": "2", "residue": "1", "min_exponent": "5"},
        }]}
        path, report = tmp_path / "one.json", tmp_path / "kill.json"
        harness.save_config(str(path), config)
        assert cli.main([
            "pi3", "witness", "--index", "0", "--config", str(path), "--product",
            "--guard-chain-bits", "90", "--out", str(report),
        ]) == 0
        assert cli.main(["verify", str(report), "--guard-chain-bits", "90"]) == 0
        assert "VERIFIED" in capsys.readouterr().out
        assert cli.main(["verify", str(report)]) == 1
        assert "requested 69, bound 64" in capsys.readouterr().out

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

BAD_CONFIGS = {
    "families-not-a-list": {"catalog": "delta3", "families": 5},
    "config-null": None,
    "config-a-list": [],
    "entry-not-an-object": {"catalog": "delta3", "families": [3]},
    "set-not-an-object": {"catalog": "delta3", "families": [{"index": "0", "set": 5}]},
    "set-missing": {"catalog": "pi3", "families": [{"index": "0", "kind": "monotone"}]},
    "index-a-list": {"catalog": "delta3", "families": [{"index": [], "set": {"kind": "powers"}}]},
    "modulus-a-list": {"catalog": "delta3",
                       "families": [{"index": "0", "set": {"kind": "powers", "modulus": []}}]},
}


class TestMalformedInput:
    FINITE = {"kind": "explicit", "elements": ["1", "2"]}

    def test_finite_stream_ends_extraction(self):
        payload = harness.run_extraction(self.FINITE, 2)
        assert [entry["value"] for entry in payload["outputs"]] == ["1", "2"]
        with pytest.raises(FixtureError, match="ended after 2 of 3 extraction outputs"):
            harness.run_extraction(self.FINITE, 3)

    def test_verify_finite_stream_report(self, tmp_path, capsys):
        report = tmp_path / "extraction.json"
        report.write_text(json.dumps(
            {"report": "extraction", "stream": self.FINITE, "count": "3", "outputs": []}
        ))
        assert cli.main(["verify", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.out.splitlines() == [
            "verification failed: the stream ended after 2 of 3 extraction outputs",
            "VERIFICATION FAILED",
        ]
        assert captured.err == ""

    def test_extraction_guard_bounds_memory(self):
        # the fifth output of 3, 7, 11, ... is a block summing to 0 mod 2**30;
        # the guard refuses that output before building it, instead of
        # exhausting memory
        result = fresh_cli(["apartness", "extract", "--stream", "arith:3:4", "--count", "5"],
                           timeout=30, preexec_fn=_cap_address_space)
        assert result.returncode == 2
        assert result.stderr == (
            "error: guard 'extract_bits' exceeded: requested 30, bound 22\n")

    def test_extraction_out_of_memory(self):
        # a raised guard admits that fifth output, whose block holds 2**30
        # elements; under a 1 GB address space its allocation fails, and the
        # command says so in one line
        result = fresh_cli(["apartness", "extract", "--stream", "arith:3:4", "--count", "5",
                            "--guard-extract-bits", "30"],
                           timeout=30, preexec_fn=_cap_address_space)
        assert (result.returncode, result.stdout, result.stderr) == (
            2, "", "error: out of memory\n")

    @pytest.mark.parametrize("argv, message", [
        (["--stream", "arith:1"], "unknown stream 'arith:1': expected 'naturals' or "
                                  "'arith:START:STEP' with integer START and STEP"),
        (["--stream", "arith:a:3"], "unknown stream 'arith:a:3': expected 'naturals' or "
                                    "'arith:START:STEP' with integer START and STEP"),
        (["--count", "-1"], "the extraction count must be nonnegative, got -1"),
        # START and STEP are ASCII digits after at most a "-"
        (["--stream", "arith:\u0661:3"], "unknown stream 'arith:\u0661:3': expected 'naturals' "
                                         "or 'arith:START:STEP' with integer START and STEP"),
        (["--stream", "arith:+1:3"], "unknown stream 'arith:+1:3': expected 'naturals' or "
                                     "'arith:START:STEP' with integer START and STEP"),
    ])
    def test_extraction_input_errors(self, argv, message, capsys):
        assert cli.main(["apartness", "extract", *argv]) == 2
        assert capsys.readouterr() == ("", "error: %s\n" % message)

    def test_extraction_memory(self):
        # the twelfth output of 1, 4, 7, ... is one element 1.4M elements in,
        # solved without reading the elements before it.  A wrapper interpreter
        # runs the command as its only child, so RUSAGE_CHILDREN is that
        # command's.
        wrapper = (
            "import resource, subprocess, sys\n"
            "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL)\n"
            "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)\n"
        )
        result = fresh_cli(["apartness", "extract", "--stream", "arith:1:3", "--count", "12"],
                           timeout=120, prefix=(sys.executable, "-c", wrapper), check=True)
        peak_kib = int(result.stdout)  # ru_maxrss is in KiB on Linux
        assert peak_kib < 100 * 1024

    def test_extraction_guard_flags(self, tmp_path, capsys):
        # naturals reach modulus 2**9 at their tenth output
        report = tmp_path / "extraction.json"
        argv = ["apartness", "extract", "--stream", "naturals", "--count", "10"]
        assert cli.main(argv + ["--guard-extract-bits", "8"]) == 2
        assert "guard 'extract_bits' exceeded: requested 9, bound 8" in capsys.readouterr().err
        assert cli.main(argv + ["--guard-extract-bits", "9", "--out", str(report)]) == 0
        assert cli.main(["verify", str(report), "--guard-extract-bits", "8"]) == 1
        assert "requested 9, bound 8" in capsys.readouterr().out
        assert cli.main(["verify", str(report)]) == 0

    @pytest.mark.parametrize("name", sorted(BAD_CONFIGS))
    def test_witness_rejects_config_shape(self, name, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(BAD_CONFIGS[name]))
        assert cli.main(["delta3", "witness", "--index", "0", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("catalog, far_set, flags, message", [
        ("delta3", FAR_POWERS, [], NO_BLOCKS),
        ("delta3", FAR_POWERS, ["--product"], NO_BLOCKS),
        ("delta3", FAR_COEFF, ["--product"], NO_BLOCKS),
        ("delta3", FAR_POWERS, ["--blind"], NO_BLIND_WITNESS),
        ("delta3", FAR_COEFF, ["--blind", "--product"], NO_BLIND_WITNESS),
        ("delta3", SPARSE_POWERS, [], "horizon 24 exhausted looking for w1 with low bit "
                                      "above the pool and the k-settling bound in fixture 0"),
        ("pi3", SPARSE_POWERS, [], "members below 2**64 exhausted looking for chain start"),
        ("pi3", SPARSE_COEFF, ["--blind"], "members below 2**64 exhausted at chain length 0 of 3"),
    ])
    def test_far_out_members_are_never_built(self, catalog, far_set, flags, message, tmp_path):
        # 2**100000000000 would take 12.5 GB; members up to a horizon, a
        # blind bound or the chain bits are read block by block, so the
        # command finds too few of them
        config = json.loads((ROOT / "configs" / ("%s-instant.json" % catalog)).read_text())
        config["families"][0]["set"] = far_set
        path = tmp_path / "far.json"
        path.write_text(json.dumps(config))
        result = fresh_cli([catalog, "witness", "--config", str(path), "--index", "0", *flags],
                           timeout=30, preexec_fn=_cap_address_space)
        assert (result.returncode, result.stdout, result.stderr) == (1, "", "error: %s\n" % message)

    @pytest.mark.parametrize("argv", [
        ["verify"],
        ["eval", "--coloring", "pi3", "--end", "3", "--config"],
        ["pi3", "witness", "--index", "0", "--config"],
    ])
    def test_deeply_nested_json_exits_2(self, argv, tmp_path, capsys):
        path = tmp_path / "nested.json"
        path.write_text("[" * 100000)
        assert cli.main(argv + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: %s nests JSON values too deeply to read\n" % path

    @pytest.mark.parametrize("name", ["families-not-a-list", "config-null", "set-missing",
                                      "index-a-list", "modulus-a-list"])
    def test_verify_rejects_config_shape(self, name, tmp_path, capsys):
        payload = harness.run_delta3(harness.default_config("delta3"), 0)
        payload["config"] = BAD_CONFIGS[name]
        report = tmp_path / "w.json"
        report.write_text(json.dumps(payload))
        assert cli.main(["verify", str(report)]) == 1
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 2 and lines[0].startswith("verification failed: ")
        assert lines[1] == "VERIFICATION FAILED" and captured.err == ""


EXTRACTION_MUTATIONS = [
    (field, value)
    for field in ("report", "claim", "stream", "count", "outputs")
    for value in ([], None, "x", {"a": 1}, 5)
] + [
    ("stream", {"kind": "explicit", "elements": "1,2"}),
    ("stream", {"kind": "explicit", "elements": ["1", None]}),
    ("stream", {"kind": "arithmetic", "start": [], "step": "3"}),
    ("stream", {"kind": ["explicit"]}),
]


@pytest.mark.parametrize("field, value", EXTRACTION_MUTATIONS)
def test_verify_mutated_extraction_report(field, value, tmp_path, capsys):
    # every top-level field of an extraction report set to each JSON shape in
    # turn, and malformed stream fields: verify answers with one line and
    # exit 0 or 1, never a traceback
    payload = harness.run_extraction({"kind": "arithmetic", "start": "1", "step": "3"}, 4)
    payload[field] = value
    report = tmp_path / "extraction.json"
    report.write_text(json.dumps(payload))
    code = cli.main(["verify", str(report)])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and len(lines) == 2
    if field == "claim":  # a note that verify never reads
        assert code == 0 and lines == ["4 extraction outputs re-verified", "VERIFIED"]
        return
    assert code == 1 and lines[1] == "VERIFICATION FAILED"
    if (field, value) == ("report", "x"):
        assert lines[0] == "unknown report kind 'x'"
    else:
        assert lines[0].startswith("verification failed: ")


@pytest.mark.parametrize("path, value, message", [
    (("count",), "\u0663", "field count is not a decimal string: '\u0663'"),
    (("count",), "-1", "the extraction count must be nonnegative, got -1"),
    (("stream", "start"), " 1 ", "field stream.start is not a decimal string: ' 1 '"),
    (("stream", "start"), "+1", "field stream.start is not a decimal string: '+1'"),
    (("stream", "start"), "\u0661", "field stream.start is not a decimal string: '\u0661'"),
    (("stream", "step"), "0_3", "field stream.step is not a decimal string: '0_3'"),
    # a JSON boolean is no integer, though int() takes it too
    (("stream", "start"), True, "stream fields must be strings or integers"),
    (("stream", "step"), True, "stream fields must be strings or integers"),
    (("stream", "start"), False, "stream fields must be strings or integers"),
])
def test_verify_reads_extraction_integers_as_decimals(path, value, message, tmp_path, capsys):
    # int() takes each of these, and verify once re-ran the extraction on it
    assert cli.main(["apartness", "extract", "--stream", "arith:1:3", "--count", "3",
                     "--out", str(tmp_path / "extraction.json")]) == 0
    payload = json.loads((tmp_path / "extraction.json").read_text())
    functools.reduce(dict.get, path[:-1], payload)[path[-1]] = value
    (tmp_path / "extraction.json").write_text(json.dumps(payload))
    capsys.readouterr()
    assert cli.main(["verify", str(tmp_path / "extraction.json")]) == 1
    assert capsys.readouterr() == (
        "verification failed: %s\nVERIFICATION FAILED\n" % message, "")


@pytest.mark.parametrize("spec, name", [
    ({"kind": "arithmetic", "start": True, "step": "3"}, "stream.start"),
    ({"kind": "arithmetic", "start": "1", "step": False}, "stream.step"),
    ({"kind": "explicit", "elements": ["1", True]}, r"stream.elements\[1\]"),
], ids=["start", "step", "element"])
def test_extraction_refuses_boolean_stream_integers(spec, name):
    # a JSON integer is still read as itself, but a boolean is no integer
    assert harness.run_extraction({"kind": "arithmetic", "start": 1, "step": 3}, 2)["outputs"][1][
        "value"] == "4"
    with pytest.raises(FixtureError, match=r"^field %s is not a decimal string: (True|False)$" % name):
        harness.run_extraction(spec, 1)


def test_explicit_stream_elements_are_decimals():
    assert harness.run_extraction({"kind": "explicit", "elements": [1, "2"]}, 2)["count"] == "2"
    with pytest.raises(FixtureError, match=r"^field stream.elements\[1\] is not a decimal string"):
        harness.run_extraction({"kind": "explicit", "elements": ["1", "\uff12"]}, 2)


@functools.lru_cache(maxsize=None)
def _sweep_report(kind) -> str:
    """One valid report of each kind the mutation sweep below alters."""
    payload = {
        "delta3-witness": lambda: harness.run_delta3(harness.default_config("delta3"), 0),
        "pi3-witness": lambda: harness.run_pi3(harness.default_config("pi3"), 1),
        "product-kill": lambda: harness.run_product_kill(harness.default_config("delta3"), 0),
        "eval-table": lambda: harness.eval_table(
            {"id": "tree-random", "modulus": "2", "seed": "0"}, 4, 7),
        "search-mono": lambda: harness.search_report(
            {"id": "tree-random", "modulus": "2", "seed": "0"}, 2, 16, 3),
        "tree-check": lambda: harness.tree_check_report(3, 2, 7, [2, 3]),
    }[kind]()
    return json.dumps(payload)


REPORT_FIELDS = {
    "delta3-witness": ("report", "claim", "config", "index", "mode", "x", "w1", "w2", "sum",
                       "sum_with_x", "color_sum", "color_sum_with_x", "certificates",
                       "bookkeeping"),
    "pi3-witness": ("report", "claim", "config", "index", "mode", "block_exponent", "x", "w",
                    "color_w", "color_w_plus_x", "chain", "sums", "requests", "certificates",
                    "bookkeeping"),
    "product-kill": ("report", "claim", "config", "index", "branch", "u", "v", "color_u",
                     "color_v", "certificates", "witness"),
    "eval-table": ("report", "coloring", "arity", "start", "end", "values"),
    "search-mono": ("report", "claim", "coloring", "max_terms", "bound", "size", "outcome",
                    "found", "colors"),
    "tree-check": ("report", "claim", "max_exponent", "functions", "seed", "moduli",
                   "contract", "results", "ok"),
}

# Objects nested in a report whose every field the sweep mutates too, as
# dotted paths (a number indexes a list).
NESTED_OBJECTS = {
    "delta3-witness": ("config.families.0", "config.families.0.set", "certificates"),
    "pi3-witness": ("config.families.0", "config.families.0.set", "certificates"),
    "product-kill": ("config.families.0", "config.families.0.set", "certificates", "witness"),
    "eval-table": ("coloring",),
    "search-mono": ("coloring",),
}

SWEEP_VALUES = ([], None, "x", {"a": 1}, 5, "-1", "99")


def _nested(payload, path):
    for part in path.split(".") if path else ():
        payload = payload[int(part)] if isinstance(payload, list) else payload[part]
    return payload


def _verify_mutation(kind, path, field, value, tmp_path, capsys):
    """verify of the sweep report of kind with one field of the object at
    path set to value: its exit codes and one failure line, never a traceback."""
    payload = json.loads(_sweep_report(kind))
    _nested(payload, path)[field] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    code = cli.main(["verify", str(report)])
    captured = capsys.readouterr()
    assert code in (0, 1, 2), (path, field, value, captured)
    assert "Traceback" not in captured.out + captured.err
    if code == 1:
        assert captured.out.splitlines()[-1] == "VERIFICATION FAILED", (path, field, value)
        assert captured.err == "" and len(captured.out.splitlines()) == 2, (path, field, value)


@pytest.mark.parametrize("kind, field", [
    (kind, field) for kind, fields in REPORT_FIELDS.items() for field in fields])
def test_verify_mutated_report(kind, field, tmp_path, capsys):
    # every top-level field of a report of each kind set to each JSON shape,
    # a negative and a large decimal in turn
    assert sorted(json.loads(_sweep_report(kind))) == sorted(REPORT_FIELDS[kind])
    for value in SWEEP_VALUES:
        _verify_mutation(kind, "", field, value, tmp_path, capsys)


@pytest.mark.parametrize("kind, path", [
    (kind, path) for kind, paths in NESTED_OBJECTS.items() for path in paths])
def test_verify_mutated_nested_field(kind, path, tmp_path, capsys):
    # every field of an object nested in a report (a config family and its
    # set, the certificates, a coloring, a product kill's embedded witness)
    # set to each value of the sweep in turn
    fields = sorted(_nested(json.loads(_sweep_report(kind)), path))
    assert fields
    for field in fields:
        for value in SWEEP_VALUES:
            _verify_mutation(kind, path, field, value, tmp_path, capsys)


@pytest.mark.parametrize("kind, field, value, named", [
    ("delta3-witness", "mode", "x", "mode"),
    ("delta3-witness", "mode", [], "mode"),
    ("delta3-witness", "mode", None, "mode"),
    ("product-kill", "branch", "killer", "branch"),   # relabelled construction kill
    ("product-kill", "witness", "deleted", "branch"),  # construction kill without its witness
    ("tree-check", "contract", "x", "contract"),
    ("tree-check", "contract", None, "contract"),
    ("tree-check", "ok", 1, "ok"),  # 1 == True, so the re-run's ok compared equal
])
def test_verify_reads_mode_branch_and_contract(kind, field, value, named, tmp_path, capsys):
    # each of these reports used to verify; verify now refuses each with one
    # line naming the field
    payload = json.loads(_sweep_report(kind))
    if value == "deleted":
        del payload[field]
    else:
        payload[field] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == "" and lines[1:] == ["VERIFICATION FAILED"]
    assert lines[0].startswith("verification failed: field %s " % named), lines[0]


def _swap_u_and_v(payload):
    for a, b in (("u", "v"), ("color_u", "color_v")):
        payload[a], payload[b] = payload[b], payload[a]
    certificates = payload["certificates"]
    certificates["u"], certificates["v"] = certificates["v"], certificates["u"]


@pytest.mark.parametrize("tamper, message", [
    (lambda payload: payload.update(witness=harness.run_product_kill(
        harness.default_config("delta3"), 1)["witness"]),
     "the embedded witness is not of fixture 0"),
    (lambda payload: payload.update(witness=harness.run_pi3(harness.default_config("pi3"), 0)),
     "the embedded witness is not a delta3-witness of the kill's config"),
    (_swap_u_and_v, "the embedded witness's certificates are not the kill's u and v"),
], ids=["fixture-1-witness", "pi3-witness", "swapped-u-v"])
def test_verify_ties_embedded_witness_to_kill(tamper, message, tmp_path, capsys):
    # the delta3 product kill of fixture 0 with its embedded witness replaced
    # by another valid witness, or its u and v swapped: the kill and the
    # witness each verify on their own, so only their tie refuses them
    payload = json.loads(_sweep_report("product-kill"))
    tamper(payload)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    assert capsys.readouterr() == ("verification failed: %s\nVERIFICATION FAILED\n" % message, "")


def _flip_embedded_color(payload):
    witness = payload["witness"]
    key = "color_sum" if "color_sum" in witness else "color_w"
    witness[key] = str(1 - int(witness[key]))


@pytest.mark.parametrize("catalog", ["delta3", "pi3"])
@pytest.mark.parametrize("tamper, message", [
    (lambda payload: payload.update(certificates=payload["certificates"]["u"]),
     "verification failed: field certificates is not a JSON object: ["),
    (_flip_embedded_color,
     "verification failed: embedded witness failed: verification failed: "
     "recomputed colors ("),
], ids=["certificates-list", "flipped-witness-color"])
def test_verify_malformed_construction_kill(catalog, tamper, message, tmp_path, capsys):
    # one failure line and exit 1, never a traceback, whichever check meets
    # the fault first
    payload = harness.run_product_kill(harness.default_config(catalog), 0)
    tamper(payload)
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "" and captured.out.startswith(message)
    assert captured.out.splitlines()[1:] == ["VERIFICATION FAILED"]


def test_embedded_witness_check_reads_kill_certificates_as_object():
    # the tie between a kill and its embedded witness reads the kill's
    # certificates through the object reader, so it fails by name even
    # when it runs before the certificate check
    payload = json.loads(_sweep_report("product-kill"))
    payload["certificates"] = []
    with pytest.raises(VerificationError, match="^field certificates is not a JSON object: "):
        harness._check_embedded_witness(payload, 0)


def test_tree_check_guard_refuses_before_building(tmp_path, capsys):
    # the tree exponent guard is checked before any tree is built, by the
    # command and by verify of a report that asks for exponent 99
    started = time.perf_counter()
    assert cli.main(["tree", "check", "--max-exponent", "99", "--functions", "2"]) == 2
    assert time.perf_counter() - started < 1
    assert capsys.readouterr() == (
        "", "error: guard 'tree_exponent' exceeded: requested 99, bound 16\n")
    payload = json.loads(_sweep_report("tree-check"))
    payload["max_exponent"] = "99"
    report = tmp_path / "tree.json"
    report.write_text(json.dumps(payload))
    started = time.perf_counter()
    assert cli.main(["verify", str(report)]) == 1
    assert time.perf_counter() - started < 1
    assert capsys.readouterr().out.splitlines() == [
        "verification failed: guard 'tree_exponent' exceeded: requested 99, bound 16",
        "VERIFICATION FAILED",
    ]


VACUOUS_TREE_CHECKS = [
    (["--max-exponent", "3", "--functions", "-5"], "functions must be at least 1, got -5"),
    (["--max-exponent", "0"], "max_exponent must be at least 1, got 0"),
    (["--moduli", ""], "moduli must name at least one modulus when the contract is checked"),
]


@pytest.mark.parametrize("argv, message", VACUOUS_TREE_CHECKS,
                         ids=["negative-functions", "zero-exponent", "no-moduli"])
def test_tree_check_refuses_vacuous_inputs(argv, message, capsys):
    # each of these checked nothing, yet printed "tree check OK" and exited 0
    assert cli.main(["tree", "check"] + argv) == 2
    assert capsys.readouterr() == ("", "error: %s\n" % message)


def test_tree_check_without_contract_needs_no_moduli(capsys):
    assert cli.main(["tree", "check", "--max-exponent", "2", "--functions", "1",
                     "--moduli", "", "--no-contract"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "tree check OK"


def test_tree_check_requests_each_edge_once():
    # (functions + 1) * sum(2**s - 1): every function requests each edge
    # of its tree once, and the contract's counts request each bridge of
    # function 0 once more; it used to request every edge a second time
    calls = []
    original = RequestFunction.__call__

    def counting(self, n, w):
        calls.append(n)
        return original(self, n, w)

    with mock.patch.object(RequestFunction, "__call__", counting):
        assert harness.tree_check_report(9, 20, 7, [2, 3, 5, 8])["ok"]
    assert len(calls) == 21 * sum(2 ** s - 1 for s in range(1, 10)) == 21_273


def test_search_refuses_max_terms_below_one(tmp_path, capsys):
    # it used to exit 0 with a vacuous "exhausted" report that verified
    out = tmp_path / "search.json"
    assert cli.main(["search-mono", "--coloring", "killer", "--max-terms", "0",
                     "--bound", "3", "--size", "5", "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", "error: max_terms must be at least 1, got 0\n")
    assert not out.exists()


@pytest.mark.parametrize("bound, size", [(3, 5), (16, 3)])
def test_verify_refuses_max_terms_below_one(bound, size, tmp_path, capsys):
    payload = harness.search_report({"id": "killer"}, 1, bound, size)
    payload["max_terms"] = "0"
    report = tmp_path / "search.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    assert capsys.readouterr() == (
        "verification failed: max_terms must be at least 1, got 0\nVERIFICATION FAILED\n", "")


@pytest.mark.parametrize("field, value, message", [
    ("functions", "0", "functions must be at least 1, got 0"),
    ("max_exponent", "0", "max_exponent must be at least 1, got 0"),
    ("moduli", [], "moduli must name at least one modulus when the contract is checked"),
])
def test_verify_refuses_vacuous_tree_check(field, value, message, tmp_path, capsys):
    # a tree-check report edited to check nothing; the functions and moduli
    # edits used to verify
    payload = json.loads(_sweep_report("tree-check"))
    payload[field] = value
    report = tmp_path / "tree.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    assert capsys.readouterr() == (
        "verification failed: %s\nVERIFICATION FAILED\n" % message, "")


@pytest.mark.parametrize("field, value, message", [
    ("x", 5, "field x is not a decimal string: 5"),
    ("x", "0x2", "field x is not a decimal string: '0x2'"),
    ("certificates", [], "field certificates is not a JSON object: []"),
    ("chain", "2,8", "field chain is not a list: '2,8'"),
])
def test_verify_names_malformed_field(field, value, message, capsys, tmp_path):
    payload = json.loads(_sweep_report("pi3-witness"))
    payload[field] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "verification failed: " + message


@pytest.mark.parametrize("key, value", [("seed", []), ("modulus", "2.5")])
def test_verify_names_malformed_coloring_field(key, value, capsys, tmp_path):
    payload = json.loads(_sweep_report("eval-table"))
    payload["coloring"][key] = value
    report = tmp_path / "report.json"
    report.write_text(json.dumps(payload))
    assert cli.main(["verify", str(report)]) == 1
    assert capsys.readouterr() == ("verification failed: field coloring.%s is not a decimal "
                                   "string: %r\nVERIFICATION FAILED\n" % (key, value), "")


def test_verify_search_within_its_guard(tmp_path):
    # comb(60, 59) is 60 subsets, inside the search_combinations guard; the
    # search must not extend prefixes that no 59-subset grows from, which
    # number about 2**30, so verify answers well inside a second
    report = tmp_path / "search.json"
    report.write_text(json.dumps({
        "report": "search-mono", "claim": "outcome of an exhaustive bounded monochromatic-set search",
        "coloring": {"id": "popcount"}, "max_terms": "1", "bound": "60", "size": "59",
        "outcome": "exhausted",
    }))
    result = fresh_cli(["verify", str(report)], timeout=10)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["search outcome 'exhausted' re-verified", "VERIFIED"]


def test_verify_eval_table_with_oversized_end(tmp_path):
    # an end of 10**9 behind four values must fail on the table's size, not
    # re-run a 10**9-vertex table first
    payload = json.loads(_sweep_report("eval-table"))
    payload["end"] = str(10 ** 9)
    report = tmp_path / "eval.json"
    report.write_text(json.dumps(payload))
    result = fresh_cli(["verify", str(report)], timeout=20)
    assert result.returncode == 1, result.stderr
    assert result.stdout.splitlines() == [
        "verification failed: field values must list one entry per vertex, 999999997 in all",
        "VERIFICATION FAILED",
    ]


def test_pi3_config_rejects_negative_ceiling(tmp_path, capsys):
    # min_exponent 13 puts every member past the test oracle's sampled
    # points (x up to 4096); MonotoneFamily checks the ceiling itself, exactly
    config = tmp_path / "negative.json"
    config.write_text(json.dumps({"catalog": "pi3", "families": [{
        "index": "0", "kind": "monotone", "ceiling": "-3",
        "set": {"kind": "powers", "modulus": "2", "residue": "1", "min_exponent": "13"},
    }]}))
    assert cli.main(["pi3", "witness", "--index", "0", "--config", str(config)]) == 2
    assert capsys.readouterr() == ("", "error: family entry 0 has a negative ceiling -3\n")


def test_pi3_witness_evaluates_only_in_block_min(capsys):
    # build_family is the config's one check: the only evaluate calls of a
    # witness command are block_min's reads, so sampled validation back on
    # the run path shows here as calls outside it, with no timing involved
    calls = {"block_min": 0, "outside": 0}
    evaluate, block_min = MonotoneFamily.evaluate, MonotoneFamily.block_min
    open_block_mins = []

    def counted_evaluate(self, *args):
        calls["block_min" if open_block_mins else "outside"] += 1
        return evaluate(self, *args)

    def counted_block_min(self, *args):
        open_block_mins.append(args)
        try:
            return block_min(self, *args)
        finally:
            open_block_mins.pop()

    config = str(ROOT / "configs" / "pi3-delayed.json")
    with mock.patch.object(MonotoneFamily, "evaluate", counted_evaluate), \
            mock.patch.object(MonotoneFamily, "block_min", counted_block_min):
        assert cli.main(["pi3", "witness", "--config", config, "--index", "0"]) == 0
    assert capsys.readouterr().err == ""
    assert calls == {"block_min": 32, "outside": 0}


def test_delta3_witness_never_evaluates(capsys):
    # the delta3 construction reads the delay schedule through block_first,
    # so any evaluate call of a witness command is sampled validation
    calls = []
    evaluate = Delta3Family.evaluate

    def counted_evaluate(self, *args):
        calls.append(args)
        return evaluate(self, *args)

    config = str(ROOT / "configs" / "delta3-delayed.json")
    with mock.patch.object(Delta3Family, "evaluate", counted_evaluate):
        assert cli.main(["delta3", "witness", "--config", config, "--index", "0"]) == 0
    assert capsys.readouterr().err == ""
    assert calls == []


class TestSharedParser:
    """cli.main builds its parser once per process; each command must still
    behave as in a fresh interpreter."""

    def test_sequence_matches_fresh_processes(self, tmp_path, capsys):
        config = tmp_path / "one.json"
        harness.save_config(str(config), {"catalog": "pi3", "families": [{
            "index": "0", "kind": "monotone",
            "set": {"kind": "powers", "modulus": "2", "residue": "1", "min_exponent": "5"},
        }]})
        usage_error = ["delta3", "witness", "--index", "0", "--blind", "--bound", "16"]
        sequence = [
            ["eval", "--coloring", "tree-random", "--seed", "5", "--end", "40"],
            ["tree", "check", "--max-exponent", "5", "--functions", "3"],
            ["delta3", "witness", "--index", "1", "--blind"],
            ["delta3", "witness", "--index", "0", "--blind", "--out", "{dir}/delta3.json"],
            usage_error,
            # the command after a usage error parses as in a fresh process
            ["pi3", "witness", "--index", "0", "--config", str(config), "--product",
             "--guard-chain-bits", "90", "--out", "{dir}/kill.json"],
            ["verify", "{dir}/delta3.json"],
            ["eval", "--coloring", "killer", "--end", "12"],
            ["verify", "{dir}/kill.json", "--guard-chain-bits", "90"],
            ["verify", "{dir}/kill.json"],
            ["apartness", "extract", "--count", "2", "--guard-chain-bits", "90"],
            ["tree", "check", "--max-exponent", "3", "--functions", "2", "--no-contract"],
        ]
        shared, fresh = tmp_path / "shared", tmp_path / "fresh"
        shared.mkdir()
        fresh.mkdir()
        outcomes = []
        for argv in sequence:
            try:
                code = cli.main([arg.format(dir=shared) for arg in argv])
            except SystemExit as usage:
                code = usage.code
            captured = capsys.readouterr()
            outcomes.append((code, captured.out, captured.err))
        for argv, outcome in zip(sequence, outcomes):
            result = fresh_cli([arg.format(dir=fresh) for arg in argv], timeout=60)
            assert outcome == (result.returncode, result.stdout, result.stderr), argv
        assert [code for code, _out, _err in outcomes] == [0, 0, 0, 0, 2, 0, 0, 0, 0, 1, 2, 0]
        for name in ("delta3.json", "kill.json"):
            assert (shared / name).read_bytes() == (fresh / name).read_bytes()
