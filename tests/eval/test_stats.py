"""System introspection: the no-observer counter summary."""

from repro.eval import profile
from repro.m3.lib.file import OpenFlags
from repro.m3.system import M3System


def _busy_system():
    system = M3System(pe_count=4).boot()

    def app(env):
        f = yield from env.vfs.open("/s", OpenFlags.W | OpenFlags.CREATE)
        yield from f.write(b"stats!" * 100)
        yield from f.close()
        return ()

    system.run_app(app)
    return system


def test_collect_counts_everything():
    system = _busy_system()
    data = profile.collect(system)
    assert data["cycles"] == system.sim.now > 0
    assert data["noc"]["packets"] > 10
    assert data["kernel"]["syscalls"] >= 4
    assert data["kernel"]["services"] == ["m3fs"]
    assert data["filesystems"] if "filesystems" in data else True
    fs = data["filesystems"]["m3fs"]
    assert fs["requests"] >= 3  # open + append + close at least
    assert fs["blocks_used"] >= 1
    kernel_dtu = [d for d in data["dtus"] if d["node"] == 0]
    assert kernel_dtu and kernel_dtu[0]["privileged"]


def test_report_renders_tables():
    system = _busy_system()
    text = profile.report(system)
    assert "System state at cycle" in text
    assert "DTU traffic" in text
    assert "Filesystem services" in text
    assert "m3fs" in text

