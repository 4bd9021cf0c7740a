"""Quickstart: boot M3 on a simulated Tomahawk and touch every core API.

Run with:  python examples/quickstart.py

What happens:
1. A platform (mesh NoC + PEs with DTUs + one DRAM module) is built and
   the M3 kernel boots on PE 0, downgrading all other DTUs.
2. The m3fs service starts on its own PE.
3. An application VPE writes and reads a file through the VFS, clones
   itself onto a second PE, and exchanges messages with it over a
   kernel-established channel — all over simulated DTUs.
"""

from repro.m3.lib.file import OpenFlags
from repro.m3.lib.gate import RecvGate, SendGate
from repro.m3.kernel import syscalls
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def echo_child(env, parent_note):
    """Runs on its own PE; waits for a message and replies to it."""
    rgate = yield from RecvGate.create(env, slot_size=128, slot_count=4)
    sgate_sel = yield from env.syscall(
        syscalls.CREATE_SGATE, rgate.selector, 0x1D, 4
    )
    # Tell the parent the selector through the filesystem (simplest
    # rendezvous there is).
    f = yield from env.vfs.open("/rendezvous", OpenFlags.W | OpenFlags.CREATE)
    yield from f.write(str(sgate_sel).encode())
    yield from f.close()
    slot, message = yield from rgate.receive()
    yield from rgate.reply(slot, f"echo: {message.payload}", 64)
    return parent_note


def main_app(env):
    # --- files ------------------------------------------------------
    f = yield from env.vfs.open("/hello.txt", OpenFlags.W | OpenFlags.CREATE)
    yield from f.write(b"hello heterogeneous manycores")
    yield from f.close()
    g = yield from env.vfs.open("/hello.txt", OpenFlags.R)
    content = yield from g.read(100)
    yield from g.close()
    print(f"[t={env.sim.now:>8}] file read back: {bytes(content).decode()!r}")

    # --- a second VPE -----------------------------------------------
    child = yield from VPE.create(env, "echo")
    yield from child.run(echo_child, "done")
    # Wait for the child to publish its send-gate selector (the file
    # may exist but still be empty while the child is mid-write).
    data = b""
    while not data:
        try:
            r = yield from env.vfs.open("/rendezvous", OpenFlags.R)
        except Exception:
            yield 1000
            continue
        data = yield from r.read(16)
        yield from r.close()
        if not data:
            yield 1000

    # The child's capability must be delegated to us by the kernel; in
    # a real program the child's selector arrives via a session — here
    # we ask the kernel to copy it across (delegation demo).
    child_sel = int(bytes(data).decode())
    kernel = env.system.kernel
    child_vpe = kernel.vpes[child.vpe_id]
    cap = child_vpe.captable.get(child_sel)
    own_sel = kernel.vpes[env.vpe_id].captable.insert(cap.derive())

    sgate = SendGate(env, own_sel)
    reply = yield from sgate.call("ping from parent", env.reply_gate)
    print(f"[t={env.sim.now:>8}] child answered: {reply.payload!r}")
    result = yield from child.wait()
    print(f"[t={env.sim.now:>8}] child exited with {result!r}")
    return 0


def main():
    system = M3System(pe_count=6).boot()
    print(f"booted: {len(system.platform.pes)} PEs, kernel on PE "
          f"{system.kernel.node}, m3fs on PE {system.fs_server.vpe.node}")
    system.run_app(main_app, name="quickstart")
    print(f"simulation finished at cycle {system.sim.now:,}")
    print(f"syscalls handled by the kernel: {system.kernel.syscall_count}")


if __name__ == "__main__":
    main()
