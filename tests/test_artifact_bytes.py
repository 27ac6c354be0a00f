"""Pinned SHA-256 digests of the artifacts each command emits.

The digests were recorded before the artifact builders were merged into one
document per kind, so any change to a CSV, JSON or SVG byte fails here.
"""

import hashlib

import pytest

from permprob.cli import main

DIGESTS = [
    ("dist --family A --n 3 --format csv",
     "6d15ea30dedfd343c0d2145707b22a52716415579ac8fd0b636a09f58610d5bc"),
    ("dist --family A --n 3 --format json",
     "a5c2097ee41caf1b86246593a73412b518b03fc94b789600962699fb4414c08d"),
    ("dist --family B --n 3 --format csv",
     "c068647096da3d6790a3a816ef7c7cb43c8c2e695bbe3247a4865862823c7bdf"),
    ("dist --family B --n 3 --format json",
     "f7258060abf73da5ab8c91ac8ab4d5a0ba5fe2fe512b3e9b5574a916937f785a"),
    ("dist --family C --n 3 --format csv",
     "b4bc4b1ad78a35e8c01519f5d29388ca4b2f98183436572bb30a6fe1c4cd815b"),
    ("dist --family C --n 3 --format json",
     "3a6bc5d12c09561b26d78f1390810d7b60e4b2c43ee9303c83d883a69ee7768c"),
    ("exact --family A --n 3 --format csv",
     "29232f53604abdf578bb1a959690459a21243187123e13abc66f9246f5b6efa9"),
    ("exact --family A --n 3 --format json",
     "d27e06520f9f83d1e597c1569997da9247dde6f9e771fb41e614b46a00d3ed66"),
    ("exact --family B --n 3 --format csv",
     "4ed585d629bde4a2a61c808af249d48593f508fc181f75f19eea5332e51139cc"),
    ("exact --family B --n 3 --format json",
     "b058488802376ac5c00f60e46682ec956d25c7a2362a7a577ebaf07cc621646c"),
    ("exact --family C --n 3 --format csv",
     "cb1fb3eef33816887558ed8ed007f95264b96f2c61c96d18c2d4ed3d1a63db1e"),
    ("exact --family C --n 3 --format json",
     "a0230d078393d0f21c33f8e00928c92d3011cba442f3d396fbb9e0d68f70576c"),
    ("compare --n 2 --grid 5 --format csv",
     "a883dbdd457cef97ff9c068b6f1147318eec99a266f689067a6eff6e3699a95d"),
    ("compare --n 2 --grid 5 --format json",
     "4ce0d15f1f28be1bd46c5019ac11f75c806a850645e45cb6d97ea4dc9ddc5148"),
    ("compare --n 2 --grid 5 --format svg",
     "fd86f052e21b4b77b457534a3bf88045e02ebc4abf9cd44033a74973be2097cc"),
    ("compare --n 2 --grid 5 --family C --family A --format csv",
     "94f2f8049c75cba61d05d9f8452afead2b00e893bdc4f989973bbdb3ae59578c"),
    ("compare --n 2 --grid 5 --family C --family A --format json",
     "611460f541225317a851d216872fdfa560cfa3f34ce2aa51f61c67e28a6425b5"),
    ("compare --n 2 --grid 5 --family C --family A --format svg",
     "76079649b8c293952b014dd2ba3251565492cbf7ef1383bcb8ac0dfdc5adefac"),
]


@pytest.mark.parametrize("command, digest", DIGESTS, ids=[c for c, _ in DIGESTS])
def test_artifact_bytes_are_pinned(capsys, command, digest):
    assert main(command.split()) == 0
    out = capsys.readouterr()
    assert out.err == ""
    assert hashlib.sha256(out.out.encode("utf-8")).hexdigest() == digest
