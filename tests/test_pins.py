"""Every byte pin of the command line, written once and run through ``cli.main`` in-process.

A row of ``PINS`` is an argv, the exit code it must end with, and one
expected result: ``"sha256"`` and the digest of its stdout, ``"stdout"``
and the stdout itself, or ``"same as"`` and a second argv that must exit
with the same code and print the same bytes. No row may write to stderr.
To change a pin on purpose, edit its row and record the change in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import pathlib
import re

import pytest

from chainsaw.cli import main

# the graph file the injected row reads, written from generate's own stdout
INJECTED = ("c421.json", "generate --family chainsaw --n 4 --a 2 --b 1 --format json")

PINS = [
    # one value by every method, and the small literals
    ("count --family cycle --n 5", 0, "stdout", "11\n"),
    ("count --family cycle --n 5 --method eliminate", 0, "stdout", "11\n"),
    ("count --family cycle --n 12 --method brute", 0, "stdout", "322\n"),
    ("count --family cycle --n 12 --method eliminate", 0, "stdout", "322\n"),
    ("count --family cycle --n 12 --method closed-form", 0, "stdout", "322\n"),
    ("count --family path --n 0 --method brute", 0, "stdout", "1\n"),
    ("count --family broken --n 1 --a 2 --b 1 --method closed-form", 0, "stdout", "5\n"),
    ("count --family broken --n 0 --a 3 --b 2", 0, "stdout", "3\n"),
    ("count --family broken --n 5 --a 3 --b 2 --method brute", 0, "stdout", "1763\n"),
    ("poly --family broken --n 5 --a 3 --b 2", 0, "stdout", "[1, 17, 111, 357, 601, 507, 169]\n"),
    ("poly --family chainsaw --n 4 --a 1 --b 1", 0, "stdout", "[1, 4, 2]\n"),
    # V_3(0, 1), where a zero factor once left -0
    ("seq --kind V --n 3 --p 0 --q 1 --method matrix", 0, "stdout", "0\n"),
    # the matrix doubling against the recurrence: odd indices and q other than +-1 for the
    # half-index finish, p = 0, a repeated root (U_n(2, 1) = n), and the recurrence's blocks
    # at the big-index shape, with coefficients that never grow, and with a p past the bound
    ("seq --kind U --n 5000 --p 1 --q=-1 --method matrix", 0, "same as", "seq --kind U --n 5000 --p 1 --q=-1 --method recurrence"),
    ("seq --kind V --n 5001 --p 3 --q=-2 --method matrix", 0, "same as", "seq --kind V --n 5001 --p 3 --q=-2 --method recurrence"),
    ("seq --kind E --n 4001 --p=-5 --q=-2 --method matrix", 0, "same as", "seq --kind E --n 4001 --p=-5 --q=-2 --method recurrence"),
    ("seq --kind D --n 4000 --p=0 --q=3 --method matrix", 0, "same as", "seq --kind D --n 4000 --p=0 --q=3 --method recurrence"),
    ("seq --kind U --n 3001 --p 2 --q 1 --method matrix", 0, "same as", "seq --kind U --n 3001 --p 2 --q 1 --method recurrence"),
    ("seq --kind V --n 3 --p 0 --q 1 --method recurrence", 0, "same as", "seq --kind V --n 3 --p 0 --q 1 --method matrix"),
    ("seq --kind E --n 10100 --p=-7 --q=-3 --method matrix", 0, "same as", "seq --kind E --n 10100 --p=-7 --q=-3 --method recurrence"),
    ("seq --kind V --n 100000 --p 1 --q 1 --method matrix", 0, "same as", "seq --kind V --n 100000 --p 1 --q 1 --method recurrence"),
    ("seq --kind U --n 3000 --p 1000000000000000000000 --q 3 --method matrix", 0, "same as", "seq --kind U --n 3000 --p 1000000000000000000000 --q 3 --method recurrence"),
    # the Lucas numbers L_1000 and L_2000 by both methods, digests of a plain-int Lucas loop's text
    ("seq --kind V --n 1000 --p 1 --q=-1 --method matrix", 0, "same as", "seq --kind V --n 1000 --p 1 --q=-1 --method recurrence"),
    ("seq --kind V --n 2000 --p 1 --q=-1 --method matrix", 0, "same as", "seq --kind V --n 2000 --p 1 --q=-1 --method recurrence"),
    ("seq --kind V --n 1000 --p 1 --q=-1 --method recurrence", 0, "sha256", "a303ee9154f0d2926920fbd2bcd9522c8fa1188e2a0eaff770d898dc10d34a23"),
    ("seq --kind V --n 2000 --p 1 --q=-1 --method recurrence", 0, "sha256", "e958f1fc1753c3ae9efeb23fb9c7325f33f4790da9b976a00c76fb6d7fbcf5db"),
    # elimination against the doubling that count --method closed-form prints, V_n(a, -b) or
    # U_{n+2}(a, -b), on long chains through the frontier pass (60,000 and 25,004 vertices)
    ("count --family broken --n 420 --a 5 --b 3 --method eliminate", 0, "same as", "count --family broken --n 420 --a 5 --b 3 --method closed-form"),
    ("count --family chainsaw --n 160 --a 5 --b 5 --method eliminate", 0, "same as", "count --family chainsaw --n 160 --a 5 --b 5 --method closed-form"),
    ("count --family chainsaw --n 20000 --a 3 --b 2 --method eliminate", 0, "same as", "count --family chainsaw --n 20000 --a 3 --b 2 --method closed-form"),
    ("count --family broken --n 5000 --a 5 --b 3 --method eliminate", 0, "same as", "count --family broken --n 5000 --a 5 --b 3 --method closed-form"),
    # closed-form counts against the Dickson summation at the same index, E_{n+1}(a, -b) and D_n(a, -b)
    ("count --family broken --n 5000 --a 3 --b 2 --method closed-form", 0, "same as", "seq --kind E --n 5001 --p 3 --q=-2 --method summation"),
    ("count --family chainsaw --n 20000 --a 3 --b 2 --method closed-form", 0, "same as", "seq --kind D --n 20000 --p 3 --q=-2 --method summation"),
    # poly text (97,567 bytes for P(419, 5, 3)) as the earlier packed Decimal doubling printed it:
    # V even at 1 < b < a, V odd at b = 1 and U even at 1 < b < a
    ("poly --family broken --n 419 --a 5 --b 3", 0, "sha256", "03c3fda2e2d5b4755940be134a7c74cb63eab67cd4003e334a0bb033549061f3"),
    ("poly --family chainsaw --n 400 --a 4 --b 3", 0, "sha256", "df371d4cc2b2b4f8a6da875a8567abcfb6bc0049d0b746c1d9c45327d4ed17ea"),
    ("poly --family chainsaw --n 401 --a 2 --b 1", 0, "sha256", "3ee7bbe59ba5713eefb67a87c6d9442e5d37d376e554c83cef70b5d50d032486"),
    ("poly --family broken --n 420 --a 5 --b 3", 0, "sha256", "e596454e800316b36bdbbc67b21154546328887118ffd9b9b48f4f1a8cf83b17"),
    # generate in all three formats as the blade-by-blade edge generator printed it: the loop of
    # C(1, a, b), the double edge of C(2, a, b), P(0, a, b), the figure's C(6, 5, 3) and the
    # benchmark's C(200, 4, 2)
    ("generate --family cycle --n 12 --format edge-list", 0, "sha256", "94cdbe0dcb9c49869016c1dedf802561156ccb7e268235ff90123d7bcc90159b"),
    ("generate --family cycle --n 12 --format dimacs", 0, "sha256", "f4b4851ca5aa6ff32c9d2d723d2f6fae27da80d169b9b5ce8ccc245307f12fc9"),
    ("generate --family cycle --n 12 --format json", 0, "sha256", "5fd301e5eb6f8ab01e0ca1be4d7905b6457f324508f603d471a19ecf7423d8e0"),
    ("generate --family path --n 5 --format edge-list", 0, "sha256", "723eee12f244bc1bd1e4648685d613233d8b31a2ee280f5d2837c79c28ca6842"),
    ("generate --family path --n 5 --format dimacs", 0, "sha256", "4eed1c2c8fb0aa18940655d2698ca1b5fb1440ec8f35e66a15b140f38b58d26d"),
    ("generate --family path --n 5 --format json", 0, "sha256", "971eda436aa4dd835482c9715beef0eea8f001b4c63f59f9cd4a4cb56dad8b94"),
    ("generate --family chainsaw --n 1 --a 4 --b 2 --format edge-list", 0, "sha256", "6621ddb066de50de9802b5abf65920ade8f53cd12d1826ff85dbd8d335a583e2"),
    ("generate --family chainsaw --n 1 --a 4 --b 2 --format dimacs", 0, "sha256", "9c976ffb1e3f7e5fd8be7fb3bb8ac34d5ae07c110f932a6ac0c335683d0f0d3c"),
    ("generate --family chainsaw --n 1 --a 4 --b 2 --format json", 0, "sha256", "11305f3828c9370ba9f6e1ada5c9b20cfd5dc635d0eb6cb44da37d69292a87c7"),
    ("generate --family chainsaw --n 2 --a 3 --b 1 --format edge-list", 0, "sha256", "bc85532644f3beddc91c73d6e723caab944de0bdadf15d75e1bd7f0f932cc942"),
    ("generate --family chainsaw --n 2 --a 3 --b 1 --format dimacs", 0, "sha256", "b677e3729d6c445304fa81e2ff0e656d3ebe287f5a6cfd28060b96e8a4fb7dba"),
    ("generate --family chainsaw --n 2 --a 3 --b 1 --format json", 0, "sha256", "fea31d91accc824c16f3f0d25c6e3c9b2ef507794901642e5c306f5ef3bc14ff"),
    ("generate --family broken --n 0 --a 3 --b 2 --format edge-list", 0, "sha256", "a79122992d53d358e6bbbbb98883d64fa0c15df3bcb08ff7b65a0580870af424"),
    ("generate --family broken --n 0 --a 3 --b 2 --format dimacs", 0, "sha256", "cc285fb6c093465e44eea624d59b8c14809e353c4f67d98f96c5f8361d82d41d"),
    ("generate --family broken --n 0 --a 3 --b 2 --format json", 0, "sha256", "2acad3fec5cd5eb84b9ab5e78b8a29c7b114fea72ca50ee95093fcb9e0dd3bbd"),
    ("generate --family chainsaw --n 6 --a 5 --b 3 --format edge-list", 0, "sha256", "73b2ec704ac6e973cd0cc208b0b787c6c86513ca52bd6cacd2733ba30b327b2c"),
    ("generate --family chainsaw --n 6 --a 5 --b 3 --format dimacs", 0, "sha256", "e1d2472760322cfca251132e94c3034cf2693d822c6e79b67c7a517e7c2142cd"),
    ("generate --family chainsaw --n 6 --a 5 --b 3 --format json", 0, "sha256", "4697d33d0b2585572ed9bb5e697ee8aa65fb4db673f9fd011ae25362034e3e9d"),
    ("generate --family chainsaw --n 200 --a 4 --b 2 --format edge-list", 0, "sha256", "20359aff15bc3ac881d910e11816f49fc446f6e68da79f08a6a9e2a692a870ca"),
    ("generate --family chainsaw --n 200 --a 4 --b 2 --format dimacs", 0, "sha256", "50f4bb84f4d2a5827e5b5c02a075338a3e4aeb3776e545db8e4edbc59c581c5e"),
    ("generate --family chainsaw --n 200 --a 4 --b 2 --format json", 0, "sha256", "330fc8a7d5c618a5b7171dcd6ec505b7688dae1cb4406a89968a2b220a50d320"),
    # the default report (141,526 bytes), every default-grid graph through the oracle, and a failing
    # report: exit 1, "pass": false rows and the injected row's string-valued params (12,546 bytes)
    ("verify", 0, "sha256", "e7472f3b0e73343556ce6006e4944e44618a72de64ca09f4a81e7ce24f13a525"),
    ("verify --brute-cap 40", 0, "sha256", "2c40fe23a0be9e66499e0ef09b9e0399e794ad14b98747df80db3ccb2adc72a2"),
    ("verify --n-max 2 --a-max 2 --inject-graph c421.json --inject-family chainsaw --inject-n 5 --inject-a 2"
     " --inject-b 1", 1, "sha256", "2a7e0d572781e77179e414a75f6f307b7b2e17281847a2310ac1736c034d9da9"),
]


def run_cli(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def check_pin(capsys, argv, code, kind, expected):
    """Run one row's argv and compare the exit code, stdout and empty stderr with what the row holds."""
    rc, out, err = run_cli(capsys, *argv.split())
    if kind == "sha256":
        out = hashlib.sha256(out.encode()).hexdigest()
    elif kind == "same as":
        second_rc, expected, second_err = run_cli(capsys, *expected.split())
        assert (second_rc, second_err) == (code, "")
    assert (rc, out, err) == (code, expected, "")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("pins")
    name, argv = INJECTED
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(argv.split()) == 0
    (path / name).write_text(out.getvalue(), encoding="utf-8")
    return path


@pytest.mark.parametrize("argv,code,kind,expected", PINS,
                         ids=[argv.replace("--", "").replace(" ", "-") for argv, *_ in PINS])
def test_pin(capsys, monkeypatch, workdir, argv, code, kind, expected):
    monkeypatch.chdir(workdir)
    check_pin(capsys, argv, code, kind, expected)


def test_the_workflow_holds_no_pin():
    # a digest or a cmp pair in the workflow would be a second copy of a row here
    text = (pathlib.Path(__file__).parents[1] / ".github" / "workflows" / "tier1.yml").read_text(encoding="utf-8")
    assert re.findall(r"\b[0-9a-f]{64}\b", text) == []
    assert [line for line in text.splitlines() if "cmp <(" in line] == []
