"""Golden digests of eval and tree-check reports.

Reports are byte-identical for identical inputs, so the SHA-256 of each
report file pins every value in it.  The digests were recorded with the
per-vertex evaluators that preceded block-at-a-time evaluation; any change
to an evaluator that alters a single color or contract count shows here.
"""

import hashlib

import pytest

from fscoloring import cli

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
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_digest(name, tmp_path, capsys):
    argv, digest = GOLDEN[name]
    report = tmp_path / "report.json"
    assert cli.main(argv + ["--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
    assert cli.main(["verify", str(report)]) == 0
    assert "VERIFIED" in capsys.readouterr().out
