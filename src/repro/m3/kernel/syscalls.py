"""The syscall ABI: operation codes carried in DTU messages.

"System calls are not handled on the same core by performing a mode
switch, but by sending a message over the DTU to the corresponding
kernel PE" (Section 3).  Each syscall message is
``(opcode, args_tuple)``; each reply is ``("ok", result)`` or
``("err", text)``.
"""

from __future__ import annotations


class SyscallError(Exception):
    """A syscall was denied or failed; carried back in the reply."""


class _NoReply:
    """Sentinel: the handler acknowledged the slot itself or deferred."""


NO_REPLY = _NoReply()

#: application endpoint assignment (mirrored by libm3's Env).
APP_SYSCALL_EP = 0  # send endpoint to the kernel
APP_REPLY_EP = 1  # receive endpoint for syscall and service replies
#: payload bytes of a syscall message (and of the kernel's own
#: messages to services).
SYSCALL_MSG_BYTES = 64

# -- VPE lifecycle -----------------------------------------------------------

#: (name, pe_type|None) -> (vpe_sel, spm_mem_sel); allocates a PE.
CREATE_VPE = "create_vpe"
#: (vpe_sel, entry, args) -> ok; starts software on the VPE's PE.
VPE_START = "vpe_start"
#: (vpe_sel,) -> exit_code; reply deferred until the VPE exits.
VPE_WAIT = "vpe_wait"
#: (vpe_sel,) -> exit_code; like VPE_WAIT but offers the caller's PE
#: for reuse while waiting (context switching, Sections 3.3/7).
VPE_WAIT_YIELD = "vpe_wait_yield"
#: (vpe_sel,) -> new node; live-migrate a *running* VPE: checkpoint its
#: PE-local state, restore it on a free PE, and redirect in-flight
#: messages for a window while the old DTU drains.
MIGRATE_VPE = "migrate_vpe"
#: (exit_code,) -> no reply; marks the calling VPE dead.
EXIT = "exit"

#: (,) -> ok; no-op, for the Figure 3 microbenchmark.
NOOP = "noop"

# -- memory ------------------------------------------------------------------

#: (size, perm) -> mem_sel; allocates a DRAM region.
REQUEST_MEM = "request_mem"
#: (mem_sel, offset, size, perm) -> new mem_sel (a derived sub-region).
DERIVE_MEM = "derive_mem"

# -- gates -------------------------------------------------------------------

#: (slot_size, slot_count) -> rgate_sel.
CREATE_RGATE = "create_rgate"
#: (rgate_sel, label, credits) -> sgate_sel.
CREATE_SGATE = "create_sgate"
#: (ep_index, cap_sel) -> ok; configure one of the caller's endpoints
#: for the gate behind ``cap_sel`` (or invalidate it with cap_sel < 0).
ACTIVATE = "activate"

# -- capability exchange ------------------------------------------------------

#: (vpe_sel, src_sel) -> selector in the target VPE's table.
DELEGATE = "delegate"
#: (src_sel,) -> ok; recursively revoke all grants of the capability.
REVOKE = "revoke"

# -- services and sessions -----------------------------------------------------

#: (name, rgate_sel) -> service_sel; register a service.
CREATE_SRV = "create_srv"
#: (name,) -> (session_sel, sgate_sel); negotiated with the service.
OPEN_SESSION = "open_session"
#: (service_sel, session_id, src_mem_sel, offset, size, perm) -> selector
#: in the session's client table; the service-side delegation used by
#: m3fs to hand out extent capabilities.
SRV_DELEGATE = "srv_delegate"

ALL_OPCODES = frozenset(
    {
        CREATE_VPE,
        VPE_START,
        VPE_WAIT,
        VPE_WAIT_YIELD,
        MIGRATE_VPE,
        EXIT,
        NOOP,
        REQUEST_MEM,
        DERIVE_MEM,
        CREATE_RGATE,
        CREATE_SGATE,
        ACTIVATE,
        DELEGATE,
        REVOKE,
        CREATE_SRV,
        OPEN_SESSION,
        SRV_DELEGATE,
    }
)
