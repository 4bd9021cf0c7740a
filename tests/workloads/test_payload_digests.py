"""Known answers for the payload generator, on every import branch.

``deterministic_bytes`` expands SHA-256 from CPython's builtin module
(``_sha2`` from 3.12, ``_sha256`` before) and falls back to
``hashlib``'s OpenSSL one.  Every result, pin and read-back check
depends on its bytes, so each branch must give the digests below.

Runs under pytest, or without it as a plain script on any supported
Python: ``PYTHONPATH=src python tests/workloads/test_payload_digests.py``.
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

#: (tag, length, SHA-256 hex digest of ``deterministic_bytes(tag,
#: length)``), as generated through ``hashlib`` before the builtin
#: module replaced it.  The lengths straddle one 32-byte hash block and
#: reach the 2 MiB of an fs workload's sequential reads.
KNOWN = (
    ("a", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("a", 1, "4d7b3ef7300acf70c892d8327db8272f54434adbc61a4e130a563cb59a0d0f47"),
    ("a", 31, "559340e9acf767abeeb9fcd087ecfa2eea6cbbd18295e5773d7911d3aafd84b7"),
    ("a", 32, "836421711726c4ab5721c82f1a766c7aec37c8b5f97d99d80450d26ca9d16635"),
    ("a", 33, "6739464ff812d49bb9ccbefa30a19f413fc1771f117d684d4d87eeb265d7805e"),
    ("a", 4096, "9e3c99c842167a384120133167dc424c4e58dc3fa8ff689f91a374fabf064ebc"),
    ("a", 2097152, "27f9cb754246ba5ab5f3a278d52732ea68b522192225097798d92986faafb83b"),
    ("/src/file0.dat", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("/src/file0.dat", 1, "98722e2ebed8ed3d3652e11e4181f0dccc1ce7d192d8f1db370af8ec4a4e174a"),
    ("/src/file0.dat", 31, "7b0843c7dccabeaee750be1b1fdb1a893b580ba6084d8affccb5b5e2f799a66d"),
    ("/src/file0.dat", 32, "a9909d43f464975159f164ecd824161b3ed58e93d9e91a1bab46fb03cec28e64"),
    ("/src/file0.dat", 33, "38ee5f761b10d3ac6e53ff6c934108393587dfd51187e6698d32323e0fa48417"),
    ("/src/file0.dat", 4096, "73cb0dde263487e9819b552ef7b60c133cb6f1810795c2fd407fb580cac9baf7"),
    ("/src/file0.dat", 2097152, "8eb35261b36e8ba168582517c4347a7520c591a0e859e339be41b17f3863e29d"),
    ("hdr:/tree/dir3/file8.txt", 0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("hdr:/tree/dir3/file8.txt", 1, "087d80f7f182dd44f184aa86ca34488853ebcc04f0c60d5294919a466b463831"),
    ("hdr:/tree/dir3/file8.txt", 31, "53e69be6c762eb90d9313518a82e3b58fa6be5ac48c29542354e11ce0ea14061"),
    ("hdr:/tree/dir3/file8.txt", 32, "7d76932b53b44b8bc9823309f2cb0c0b299d9b7672103dd411a2ae113e67166d"),
    ("hdr:/tree/dir3/file8.txt", 33, "8c238e031dfce81a2afc1a52ecbaa14424eacc50a2ff383efa381ec3218bd9d0"),
    ("hdr:/tree/dir3/file8.txt", 4096, "2cd1951acf25cc72d4faa3ad2b05293c93d9621e1e2272dd08a8ef5f76c976c6"),
    ("hdr:/tree/dir3/file8.txt", 2097152, "616c7c783974b4109f1c68f355251b6ed76aef8e51d2f7cfdbe0f3aa256cc875"),
)


def generated() -> tuple[str, list]:
    """The module the generator hashes with, and its digest rows."""
    from repro.workloads import data

    # Bypass the memo: a test must not change what the shared cache
    # holds for the tests after it.
    generate = data.deterministic_bytes.__wrapped__
    rows = [
        [tag, length, hashlib.sha256(generate(tag, length)).hexdigest()]
        for tag, length, _ in KNOWN
    ]
    return data.sha256.__module__, rows


def _fallback() -> tuple[str, list]:
    """``generated()`` in a fresh interpreter with the builtin modules
    blocked, so the generator falls back to ``hashlib``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, __file__, "--blocked"],
        env=env, check=True, capture_output=True, text=True,
    ).stdout
    return tuple(json.loads(out))


def test_the_builtin_module_gives_the_known_digests():
    module, rows = generated()
    assert module in ("_sha2", "_sha256"), module
    assert [tuple(row) for row in rows] == list(KNOWN)


def test_the_hashlib_fallback_gives_the_known_digests():
    module, rows = _fallback()
    assert module == "_hashlib", module
    assert [tuple(row) for row in rows] == list(KNOWN)


if __name__ == "__main__":
    if sys.argv[1:] == ["--blocked"]:
        sys.modules["_sha2"] = sys.modules["_sha256"] = None
        print(json.dumps(generated()))
    else:
        from repro.workloads.data import sha256

        test_the_builtin_module_gives_the_known_digests()
        test_the_hashlib_fallback_gives_the_known_digests()
        print(f"Python {sys.version.split()[0]}: {len(KNOWN)} known digests "
              f"match through {sha256.__module__} and through hashlib")
