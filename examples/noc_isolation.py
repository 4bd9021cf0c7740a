"""NoC-level isolation in action.

Run with:  python examples/noc_isolation.py

Demonstrates the paper's central security idea (Section 3.2): cores are
untrusted; only the DTU is.  After boot the kernel has downgraded every
application DTU, so applications

1. cannot write their own endpoint configuration registers,
2. cannot forge privileged configuration packets to other PEs,
3. cannot touch DRAM without a delegated memory capability,
4. lose hardware access the instant a capability is revoked.
"""

from repro.dtu import NoPermission
from repro.dtu.registers import EndpointRegisters, MemoryPerm
from repro.m3.kernel import syscalls
from repro.m3.lib.gate import MemGate
from repro.m3.lib.vpe import VPE
from repro.m3.system import M3System


def attacker(env):
    outcomes = []

    # 1. local register writes are refused by unprivileged DTUs
    try:
        env.dtu.configure_local(
            "configure", 3, EndpointRegisters.receive_config(0, 64, 4)
        )
        outcomes.append(("write own EP registers", "ALLOWED?!"))
    except NoPermission:
        outcomes.append(("write own EP registers", "denied (unprivileged DTU)"))

    # 2. remote configuration packets carry the hardware privilege bit
    try:
        yield from env.dtu.configure_remote(env.pe.node + 1, "upgrade")
        outcomes.append(("reconfigure another PE", "ALLOWED?!"))
    except NoPermission:
        outcomes.append(("reconfigure another PE", "denied by target DTU"))

    # 3. no memory endpoint, no DRAM
    try:
        yield from env.dtu.read_memory(5, 0, 64)
        outcomes.append(("raw DRAM read", "ALLOWED?!"))
    except NoPermission:
        outcomes.append(("raw DRAM read", "denied (no memory endpoint)"))

    return outcomes


def revocation_demo(env):
    gate = yield from MemGate.create(env, 4096, MemoryPerm.RW.value)
    yield from gate.write(0, b"sensitive")
    child = yield from VPE.create(env, "borrower")
    child_sel = yield from child.delegate_gate(gate)
    yield from child.run(borrower, child_sel)
    yield 3000
    yield from env.syscall(syscalls.REVOKE, gate.selector)
    return (yield from child.wait())


def borrower(env, mem_sel):
    gate = MemGate(env, mem_sel, 4096)
    before = bytes((yield from gate.read(0, 9)))
    yield 6000  # revocation strikes here
    try:
        yield from gate.read(0, 9)
        return (before, "still readable?!")
    except NoPermission:
        return (before, "revoked -> hardware access cut")


def main():
    system = M3System(pe_count=6).boot(with_fs=False)
    print("attack surface probes (all must be denied):")
    for what, outcome in system.run_app(attacker, name="attacker"):
        print(f"  {what:<28} -> {outcome}")

    before, after = system.run_app(revocation_demo, name="owner")
    print("capability revocation:")
    print(f"  before revoke: read {before!r}")
    print(f"  after revoke : {after}")


if __name__ == "__main__":
    main()
