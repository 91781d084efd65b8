"""Relation output: the bytes of `gdpr build` where term order is rich.

Both renderings format what `dpr.ordered_terms` gives, which sorts on one
int per term and joins a product term's names from its factors' parts.  The cases
below are glued relations on both sides, one with a chain of nine steps
(GX(2, 9)), and a lone excess and correction polynomial.
"""

import hashlib

import pytest

from dprkit import cli


def run(capsys, command):
    try:
        code = cli.main(command.split())
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().out


# "argv": (exit code, sha256 of stdout)
PINNED = {
    "gdpr build GX -n 5 -m 4 --format json":
        (0, "24e456750c14bee4b8e9900dfdda1e2501598d4067f05874d55ac4dd91d69626"),
    "gdpr build GX -n 5 -m 4 --format text":
        (0, "fab58905ffe05dea5930f723f0b113169fd13f341818a140209a9a3d5d0950ea"),
    "gdpr build GY -n 3 -m 5 --format json":
        (0, "7b6302b2b082c29dba8f30b73d8f7ab1b3f013509aac3a6df21357a5494cea91"),
    "gdpr build GY -n 3 -m 5 --format text":
        (0, "bedd7d7c4a7b3e7f78925238ef0bc7cdbf0593c22adaee27c91700157e460f7f"),
    "gdpr build GX -n 2 -m 9 --format json":
        (0, "0ee41315053603cd61db98ecb1551bc2e6a39653bdee50a647cea6f4f5ade5bc"),
    "gdpr build GX -n 2 -m 9 --format text":
        (0, "22163c2d195acc88b75f990d59b6bc9c66602e76d213c984d036a2955c5dd56a"),
    "gdpr build EX -n 7 --format json":
        (0, "3373820f14433328f68d1471de5b4cd29fee61cda35c6eeda85839bc40ec91d4"),
    "gdpr build EX -n 7 --format text":
        (0, "c2ca7daef0dc59c285a4266d2320858f51cef8a63b09dbdc4d796e44600f9520"),
    "gdpr build FY -n 6 --format json":
        (0, "889ce14866e303e274ea06720dc6ed68106aa4bcc08a0fab2eebe473580a8f18"),
    "gdpr build FY -n 6 --format text":
        (0, "e6aeaa773aee8bce2cf24008e4e3d5b3359316ac594db5c559ddabfcd88ac824"),
}


@pytest.mark.parametrize("command", list(PINNED))
def test_relation_bytes_are_pinned(capsys, command):
    code, out = run(capsys, command)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == PINNED[command]
