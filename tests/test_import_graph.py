"""What a simulator process loads: no OpenSSL, and a short list of
extension modules.

``hashlib`` and ``ssl`` map OpenSSL's libcrypto (3.4 MB resident) into
the process; the simulator needs neither (docs/performance.md, "What
every process maps").  The check runs in a fresh interpreter that
imports the benchmark workloads and every module under ``repro`` —
``repro.eval.runall`` and each eval behind its ``EVALS`` among them.
It runs with ``-S``, so the list is what the simulator imports, not
what the host's ``.pth`` files do.
"""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: extension module -> why a simulator process loads it.
ALLOWED = {
    "_bisect": "bisect: link occupancy windows and memory extents",
    "_decimal": "fractions imports decimal (obs.metrics' exact ranks)",
    "_heapq": "heapq: the event engine's future-cycle heap",
    "_json": "json: the Chrome trace export",
    "_opcode": "dataclasses -> inspect -> dis (hostperf's Segment)",
    "_pickle": "multiprocessing pickles runall's points and outcomes",
    "_random": "random: traffic schedules and fault plans",
    "_sha2": "the payload generator's SHA-256 (CPython >= 3.12)",
    "_sha256": "the payload generator's SHA-256 (CPython 3.10 / 3.11)",
    "_sha512": "random seeds from a str through SHA-512 (CPython < 3.12)",
    "_socket": "multiprocessing.reduction imports socket (runall's pool)",
    "_struct": "struct: netserv and traffic frame headers",
    "_typing": "typing",
    "array": "array: the observer's typed span columns",
    "grp": "pathlib imports grp (CPython >= 3.13; runall's results dir)",
    "math": "math: core timing, FFT and cat+tr cost models",
    "select": "socket imports selectors (runall's pool)",
}

PROBE = """
import importlib, importlib.machinery, json, pkgutil, sys
import benchmarks.hostperf.workloads
import repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
suffixes = tuple(importlib.machinery.EXTENSION_SUFFIXES)
print(json.dumps({
    "modules": sorted(sys.modules),
    "extensions": sorted(
        name for name, module in list(sys.modules.items())
        if (getattr(module, "__file__", None) or "").endswith(suffixes)
    ),
}))
"""


def _loaded() -> dict:
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", PROBE], cwd=ROOT, env=env,
        check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out)


def test_no_openssl_and_only_allowed_extension_modules():
    loaded = _loaded()
    assert "_hashlib" not in loaded["modules"]
    assert "_ssl" not in loaded["modules"]
    unexpected = sorted(set(loaded["extensions"]) - set(ALLOWED))
    assert not unexpected, (
        f"new extension modules {unexpected}: add each to ALLOWED with "
        f"the reason the simulator needs it"
    )
