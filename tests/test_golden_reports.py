"""Golden digests of eval, tree-check, search, extraction and witness reports.

Reports are byte-identical for identical inputs, so the SHA-256 of each
report file pins every value in it.  The eval and tree-check digests were
recorded with the per-vertex evaluators that preceded block-at-a-time
evaluation; the witness digests with the per-family memo registries that
preceded one explicit engine per run; the extraction digests with the
element-by-element scan that preceded solving progressions in closed form;
the search and killer-branch product kill digests with the hand-written
witness report writers that preceded writing reports from the witness
dataclasses.  Any change to an evaluator or a construction that alters a
single color, request, chain or bookkeeping value shows here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fscoloring import cli

ROOT = Path(__file__).resolve().parent.parent
W60 = 1 << 60

GOLDEN = {
    "eval/tree-random": (
        ["eval", "--coloring", "tree-random", "--seed", "11", "--modulus", "3",
         "--start", "1", "--end", "300"],
        "4066d069bcc7f661b2f44ce2c0d44a55b046771c2ba0a50388e6cc4f0da4e5e4",
    ),
    "eval/tree-random-wide": (
        ["eval", "--coloring", "tree-random", "--seed", "4", "--modulus", "8",
         "--start", "4000", "--end", "4200"],
        "579335a34af94126b3ef9743458892ef22712e548dc6b3a240e3841c8b24d71e",
    ),
    "eval/tree-default": (
        ["eval", "--coloring", "tree-default", "--modulus", "5", "--start", "1", "--end", "200"],
        "b733e62a629e94bec7a4980c362e484c5654ef4424a0ba166541458cc53be84e",
    ),
    "eval/popcount": (
        ["eval", "--coloring", "popcount", "--start", "1", "--end", "100"],
        "2b6f11ab00bb369865fb2f8bcf148c934adb24bbdf90f4f997df7ef2ffe3112b",
    ),
    "eval/delta3": (
        ["eval", "--coloring", "delta3", "--start", "1", "--end", "200"],
        "04691a9a0c8d514a95f57d6745b71a6e6ba90f74820764aff294923fff14dc5e",
    ),
    "eval/delta3-top-bit-60": (
        ["eval", "--coloring", "delta3", "--variant", "growing",
         "--start", str(W60 + (1 << 40)), "--end", str(W60 + (1 << 40) + 15)],
        "460526de807823fac5d458685b8427d4f6f6e77aaf5d0bd48f1668c431e595fe",
    ),
    "eval/pi3": (
        ["eval", "--coloring", "pi3", "--start", "1", "--end", "200"],
        "e4de58ca7b64600929bdcda59dabe96e1df84450067cd2dd46935e1a8e148de8",
    ),
    "eval/pi3-top-bit-60": (
        ["eval", "--coloring", "pi3", "--variant", "delayed",
         "--start", str(W60 + 5), "--end", str(W60 + 20)],
        "6807c161e744f99e8d84e47f8d0a6afcbb313610c8ed55156ad7ef9296e7fb9d",
    ),
    "tree-check": (
        ["tree", "check", "--max-exponent", "6", "--moduli", "2,3,5,8"],
        "fff23b06af7be96aa1085636b3c724126b56a509f182f3824c370dcc437f6616",
    ),
    "extract/naturals": (
        ["apartness", "extract", "--stream", "naturals", "--count", "10"],
        "7900ac7e98b1dd5b159d6cf6e52a5ce0bf3c5451b6ca5fe3fb6d971a8ff2f479",
    ),
    "extract/arith-1-3": (
        ["apartness", "extract", "--stream", "arith:1:3", "--count", "12"],
        "45515debaa8034548b7868df62d11a200006625c01f06fc603488823d31e3c17",
    ),
    "extract/arith-5-2": (  # blocks of 2, 8 and 32 elements
        ["apartness", "extract", "--stream", "arith:5:2", "--count", "10"],
        "9ebc47ae2c6aaf0f9010c661eca1da70739039c9e0c0eb0ff9ef6392f8bbff25",
    ),
    **{
        "search-mono/" + coloring: (
            ["search-mono", "--coloring", coloring, "--max-terms", "3", "--bound", "48",
             "--size", "5"],
            digest,
        )
        for coloring, digest in (
            ("killer", "ec90639bbc8c8980362fd0cf9ea176c258e2dd0c3b05e42b88e1be41bb63d792"),
            ("popcount", "0cdaed8882b8e46e5b1e7f391e7c60c39e49cb39f0e91289a602a7395906eed9"),
            ("delta3", "23fd1e2fef9d463aa737c7ea768f6451e213d437b34b3af0c9fd86574685a649"),
            ("pi3", "183d0098d0e6800367f31bcf90312e79c0df3e99d3f9592b11ae5a82d29f29a6"),
            ("tree-default", "844faf87701c4ef9785d6f4187d23fab1c454ceb8da1cb79346d60914b896d7f"),
            ("tree-random", "91aaf4ddd30ce87f71285760afde96f909fd81daac73a72edca739337bbcd7ef"),
        )
    },
}


def assert_rendered_as_json_dumps(report):
    """harness.render_report wrote the report exactly as json.dumps would."""
    text = report.read_text(encoding="utf-8")
    assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert_rendered_as_json_dumps(report)
    assert cli.main(["verify", str(report)]) == 0
    assert "VERIFIED" in capsys.readouterr().out


# "<config stem>/<index>/<oracle|blind>/<plain|product>": SHA-256 of the
# witness or product kill report of configs/<config stem>.json.
WITNESS_GOLDEN = {
    "delta3-delayed/0/oracle/plain": "ddb4e198154760b8e0c8f7ffe26af59577b4746b69f9d39be488d060893ed61d",
    "delta3-delayed/0/oracle/product": "8efc1775f6004d0d50d0bf3cd720559e23b872eecc267bb77cd527bb15e0fb85",
    "delta3-delayed/0/blind/plain": "d485eab1d2c73289a29910ea7c472389f60e8188979883163e99198b366bb407",
    "delta3-delayed/0/blind/product": "c7f6bc8c1a64e26fedde444b7485b13f94de7c4efcb99604627e1f1ec6f59071",
    "delta3-delayed/1/oracle/plain": "9a4f9a60f175d9ddb28c3bb1c50f6308c0058d66e06b3a054949a704aba4e22d",
    "delta3-delayed/1/oracle/product": "cf5258911151db571c3bfcb92c20c7246268f2f79dfd8685baa746a925f77352",
    "delta3-delayed/1/blind/plain": "798ff17c56d37d3dc3269c6126e99a493b528a99f21ff0bc56ac1b475fa04716",
    "delta3-delayed/1/blind/product": "13dc046778c80019cacd69f1d598e034dca0e81dd9a781d5aa167295aa94b23e",
    "delta3-growing/0/oracle/plain": "12c1e88f23f0c7716255331f485ba52cb41522a8611da7a5358cfd29bc428dc7",
    "delta3-growing/0/oracle/product": "fd3738f399ddb39c74f70059218c62438b741db90065e2d149f6a862163e4f80",
    "delta3-growing/0/blind/plain": "83581d0bc48a4520d7ed7f19dea987ac64e65ed68a05d77aaa67b4172e94b6b6",
    "delta3-growing/0/blind/product": "08f56c212eaae3ce299c0ca55817c4de465e070b2117764091c1452a086b86b4",
    "delta3-growing/1/oracle/plain": "8b97219a8064489121b7416fa82a622f09f052cfb41e7205ba914921cf0f372a",
    "delta3-growing/1/oracle/product": "a38a9422f428c302a67bd85b7782ca3e082458c46115bb109c715d59204298c6",
    "delta3-growing/1/blind/plain": "769d79db3e56fda27613a290e61408fdb27aa8e5992e9cf72ba0fd118f2d4036",
    "delta3-growing/1/blind/product": "7d54687089667aed9ad7ed348daca7f61c3d6612a35db40a6dfa0c925c3cad31",
    "delta3-instant/0/oracle/plain": "9d02eb0eba10db8cbd8288a827044c3891e1901d5b70dec7f191f65a1dceace8",
    "delta3-instant/0/oracle/product": "fc844a2b428fabc41381b26dc848274b3d90cb5adc2ae7fe67726327437c5620",
    "delta3-instant/0/blind/plain": "630838200fdc59e95da72f6738f174919012f586768bb2cf3882784e13f5963f",
    "delta3-instant/0/blind/product": "6bcfce5ddf6595ae3ec7b0fe4818b57cb5e3f8b3a392c83ee79cc68fae75a523",
    "delta3-instant/1/oracle/plain": "2fbae98e57073caea25db479e72be0583f6b2ea61ca2c0f14ff33566c75a061c",
    "delta3-instant/1/oracle/product": "2f94fd06302024f38acd727db758727997038df64d1e6776f6c8dde140ca64c6",
    "delta3-instant/1/blind/plain": "d09d359d26788f41dccca773f7a9090409d5acc1ffd52b91c61598a498a689a5",
    "delta3-instant/1/blind/product": "6e4027d239d73e17dea88d68ae8d64aa02284ca16fd61bd7a9aa248327d22de2",
    "pi3-delayed/0/oracle/plain": "e2fb8252148963b3ae9ab24950a8c1914ecc5a85cfc000bba4e7600b5bd05742",
    "pi3-delayed/0/oracle/product": "916defb946a52338f3fe3c0d573d54f0ec809e59b5bc02639b3e55e9b5404f53",
    "pi3-delayed/0/blind/plain": "0aa795067bf0feffa7eaf966d41543030012679220ba3f8bb9c0025f30f4eaf5",
    "pi3-delayed/0/blind/product": "6cb06000943707575a7893470cc2ed194a3a2b31f445baec22520bec7ed15651",
    "pi3-delayed/1/oracle/plain": "1439ce2c3a1afe285b06bb24b97b8e2269959397c38c225c9f14599f884d89da",
    "pi3-delayed/1/oracle/product": "3de5701571c40381458c4be9209b1f2bae65b9ed2cd01295acc6aad994477b89",
    "pi3-delayed/1/blind/plain": "8df115b0834ad1c82f36d817d81f20d527b2c35ebe4a2ea09564b06180e73380",
    "pi3-delayed/1/blind/product": "8fe3db1e4828f99a5d911a93cb4bebcc2af0ca9449df44b42e201fa8bc76a133",
    "pi3-instant/0/oracle/plain": "9c4c5d3362586fcf6e649fd35bf278d8bca8ec074ab68e7c79401b4d44da250b",
    "pi3-instant/0/oracle/product": "39dec4f337d56a3694494cd0d78ec64c66c57a802f296e7625d01ef5578c19b3",
    "pi3-instant/0/blind/plain": "f42c860266882037bd23b05828e2ad3e9e5099b3fb8c53c782c59c8e18835aa0",
    "pi3-instant/0/blind/product": "f1bd44094c3dde130eb46e0ec18252291b40912ce6f50818c9a100bfead8a6ce",
    "pi3-instant/1/oracle/plain": "3fb60756dfbd26bc6a157c42567b7943c344bdd7bfd5a13358bac770125b0101",
    "pi3-instant/1/oracle/product": "0f5e95c367e215e06b9d911771ac597e6b63dc8aed3edcb5062a53edeeb4458d",
    "pi3-instant/1/blind/plain": "edba8e086fb494b7c7450d2e3b6aaeb06f76db1c04835fb4f5123adf4e886124",
    "pi3-instant/1/blind/product": "4eb520743e29a34765b41e85cd04b9eaa0485e93cf38df298f7a6ccfd4bf92c0",
    # index 2 of every catalog is not weakly apart: killer-branch product kills
    "delta3-delayed/2/oracle/product": "4a99872e68e2ffeedb4728d8991329a4a4e8ca9c64d39d5abd82264671732f2e",
    "delta3-delayed/2/blind/product": "4a99872e68e2ffeedb4728d8991329a4a4e8ca9c64d39d5abd82264671732f2e",
    "delta3-growing/2/oracle/product": "ebc017f390f03b6e4314f208ca3da0aee8e915173648a3f5b7032d109052eff8",
    "delta3-growing/2/blind/product": "ebc017f390f03b6e4314f208ca3da0aee8e915173648a3f5b7032d109052eff8",
    "delta3-instant/2/oracle/product": "5fafb5f9eaa6fbc675649f3c79f7137614a3dcac832408948c1902adeeade7a6",
    "delta3-instant/2/blind/product": "5fafb5f9eaa6fbc675649f3c79f7137614a3dcac832408948c1902adeeade7a6",
    "pi3-delayed/2/oracle/product": "6e42af84e594e21fd94bad5b3486a5cfab45b129202b909f34a56a62e40e2ec6",
    "pi3-delayed/2/blind/product": "6e42af84e594e21fd94bad5b3486a5cfab45b129202b909f34a56a62e40e2ec6",
    "pi3-instant/2/oracle/product": "70a3646f35f60902ad63d150181d7dac18cdd84229e1534de5f9c2779b2314ba",
    "pi3-instant/2/blind/product": "70a3646f35f60902ad63d150181d7dac18cdd84229e1534de5f9c2779b2314ba",
}


@pytest.mark.parametrize("name", sorted(WITNESS_GOLDEN))
def test_witness_report_digest(name, tmp_path, capsys):
    stem, index, mode, shape = name.split("/")
    argv = [stem.split("-")[0], "witness", "--config", str(ROOT / "configs" / (stem + ".json")),
            "--index", index]
    argv += ["--blind"] if mode == "blind" else []
    argv += ["--product"] if shape == "product" else []
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == WITNESS_GOLDEN[name]
    assert_rendered_as_json_dumps(report)
    assert cli.main(["verify", str(report)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
