"""Calibration constants, each with provenance from the paper (Section 5).

The reproduction substitutes the Cadence cycle-accurate Xtensa simulator
with an abstract cycle-cost model; these constants pin the model to the
numbers the paper publishes so the figures regenerate with the same
shape.  Everything cycle-valued is in core clock cycles.
"""

from __future__ import annotations

import dataclasses

# --------------------------------------------------------------------------
# Hardware (Section 4.1, 5.1, 5.4)
# --------------------------------------------------------------------------

#: "the DTU, which transfers 8 Byte per cycle" (Section 5.4).
DTU_BYTES_PER_CYCLE = 8

#: Cache line size used for the Linux cache-miss cost equivalence:
#: "the transfer time for loading a cache line (32 Bytes) via the DTU".
CACHE_LINE_BYTES = 32

#: Number of endpoints per DTU: "only a limited number of endpoints
#: (8 in our prototype platform)" (Section 4.5.4).
DTU_ENDPOINTS = 8

#: SPM capacity per PE on the simulator platform: "each having a SPM of
#: 64 KiB for code and 64 KiB for data" (Section 4.1).
SPM_CODE_BYTES = 64 * 1024
SPM_DATA_BYTES = 64 * 1024

#: Per-hop router traversal latency in the NoC model.  Not published in
#: the paper; chosen small (3 cycles) so a one-hop 16-byte message costs
#: ~30 cycles end to end, matching "the actual message transfers take
#: about 30 cycles" for a syscall (Section 5.3) on the kernel-adjacent
#: placement used in the evaluation.
NOC_HOP_CYCLES = 3

#: Link bandwidth matches the DTU: 8 bytes/cycle.
NOC_BYTES_PER_CYCLE = 8

#: DTU-side fixed overhead to assemble/inject a message (header build,
#: arbitration).  Calibrated so message transfer ≈ 30 cycles (Section 5.3).
DTU_INJECT_CYCLES = 6

#: Fixed DRAM access latency added to DTU memory transfers (row access,
#: controller).  Not published; a modest constant consistent with the
#: transfer-dominated results in Figure 3.
DRAM_ACCESS_CYCLES = 20

# --------------------------------------------------------------------------
# Reliable DTU delivery (repro.faults / fault-tolerance experiments).
# Opt-in via DTU.enable_reliability(); zero overhead and unused in the
# calibrated paper figures, so none of these values affect them.
# --------------------------------------------------------------------------

#: Initial sender-side ack grace period, counted from the cycle the
#: network promised delivery at (so bulk packets whose wire time alone
#: is thousands of cycles are never retransmitted while still in
#: flight).  Covers receiver turnaround plus the ack's return trip
#: (~60-100 cycles one-hop; syscall service adds ~170); 512 cycles
#: keeps spurious retransmits rare while detecting losses quickly.
DTU_RETX_TIMEOUT_CYCLES = 512

#: Retransmit attempts before the DTU gives up, reconciles the spent
#: credit, and fails the transfer with TransferTimeout.
DTU_RETX_MAX = 6

#: Exponential backoff factor between retransmit attempts.
DTU_RETX_BACKOFF = 2.0

#: Receiver-side duplicate-suppression window: how many recently seen
#: (sender, sequence-number) pairs each ringbuffer remembers.  Must
#: exceed the in-flight depth of any sender times DTU_RETX_MAX.
DTU_DEDUP_WINDOW = 128

#: Kernel watchdog: probe period and per-probe response timeout.  The
#: probe is a privileged DTU configuration packet, so it works against
#: PEs whose software is dead (the DTU answers in hardware).
KERNEL_WATCHDOG_PERIOD = 5_000
KERNEL_PROBE_TIMEOUT_CYCLES = 4_000

#: Kernel-side software cost of issuing one watchdog probe.
KERNEL_PROBE_CYCLES = 40

# --------------------------------------------------------------------------
# Inter-kernel RPC reliability, heartbeats, and VPE migration.  All of
# these are opt-in like the reliable-DTU block above: RPC retry timers
# only arm on reliable DTUs, heartbeats only run when started, and
# migration only happens on request or during recovery, so none of
# these values affect the calibrated paper figures.
# --------------------------------------------------------------------------

#: Base kernel-level timeout for one inter-kernel RPC attempt.  Sits
#: above the DTU retransmit layer: it must cover a full request/serve/
#: reply round trip including kernel dispatch, so it is a few times the
#: DTU-level ack timeout.
IK_RPC_TIMEOUT_CYCLES = 2_048

#: Exponential backoff factor between inter-kernel RPC retries.  An
#: integer so the retry schedule stays exact (no float rounding) and
#: therefore bit-identical across runs.
IK_RPC_BACKOFF = 2

#: Deterministic cap on the backed-off inter-kernel retry interval.
IK_RPC_TIMEOUT_CAP_CYCLES = 16_384

#: Inter-kernel RPC attempts before the kernel gives up and completes
#: the request with an explicit ("timeout", ...) verdict.
IK_RPC_MAX_ATTEMPTS = 5

#: Server-side reply cache depth for inter-kernel RPC idempotency: how
#: many already-answered (peer, sequence-number) requests each kernel
#: can re-answer without re-executing them.
IK_RPC_REPLY_CACHE = 512

#: Heartbeat ring between kernel domains: ping period, and how tight
#: the heartbeat RPC's own retry budget is (heartbeats want a fast
#: verdict, not a patient one — a missed verdict is itself the signal).
KERNEL_HEARTBEAT_PERIOD = 8_000
KERNEL_HEARTBEAT_RPC_TIMEOUT_CYCLES = 1_024
KERNEL_HEARTBEAT_RPC_ATTEMPTS = 2

#: Consecutive heartbeat timeout verdicts before a peer kernel domain
#: is declared dead and failover starts.
KERNEL_HEARTBEAT_MISS_LIMIT = 2

#: How long a migrated-away VPE's old DTU forwards in-flight messages
#: and replies to the new node before the kernel wipes it.
DTU_REDIRECT_WINDOW_CYCLES = 4_096

#: Kernel-side software cost of taking one VPE checkpoint (walking the
#: endpoint registers and capability table; the SPM copy is a separate,
#: size-dependent timed transfer).  Same order as a context switch.
VPE_CHECKPOINT_KERNEL_CYCLES = 800

# --------------------------------------------------------------------------
# M3 software path lengths (Sections 5.3, 5.4)
# --------------------------------------------------------------------------

#: "a system call on M3 via DTU takes about 200 cycles ... the other 170
#: cycles are required for marshalling the messages, programming the DTU
#: registers, unmarshalling the messages and figuring out the system call
#: function to call" (Section 5.3).  We split the 170 software cycles
#: between the application side and the kernel side.
M3_SYSCALL_CLIENT_CYCLES = 60  # marshal + program DTU registers + unmarshal reply
M3_KERNEL_DISPATCH_CYCLES = 55  # find handler, unmarshal, validate
M3_KERNEL_REPLY_CYCLES = 55  # marshal reply, program DTU

#: "M3 on the other hand needs ~70 cycles to get to the read function"
#: (Section 5.4): libm3 entry for a file read/write call.
M3_FILE_DISPATCH_CYCLES = 70

#: "~90 cycles to determine the location for reading" (Section 5.4):
#: extent lookup within already-obtained memory capabilities.
M3_FILE_LOCATE_CYCLES = 90

#: Per-request m3fs costs, split between the client stub and the
#: server loop.  The *total* (~700 cycles plus wire time) makes an M3
#: stat slightly slower than Linux's well-optimized 700-cycle stat
#: (Section 5.6: "M3 is actually a bit slower").  The *split* matters
#: for scalability (Figure 6): only the server-side share serialises
#: at the single m3fs instance; with ~120 cycles there, find degrades
#: to ~2x at 16 instances as in the paper, while the client-side
#: marshalling/unmarshalling/bookkeeping (~580 cycles) runs on each
#: client's own PE in parallel.
M3FS_SERVER_CYCLES = 90
M3FS_CLIENT_RPC_CYCLES = 680

#: Extra server-side cost of allocation/truncation requests (append,
#: close-with-truncate): bitmap scans and extent-tree updates are far
#: heavier than a path lookup.  This is what makes *untar* (allocation
#: heavy) degrade visibly at 16 instances in Figure 6 while tar stays
#: acceptable, matching the paper's Section 5.7 discussion.
M3FS_ALLOC_CYCLES = 1500

#: Cost of a pipe notification handling in libm3 (ringbuffer state
#: update around the message).  Calibrated against Figure 3's pipe bar,
#: where M3's "Other" is roughly a third of Linux's.
M3_PIPE_NOTIFY_CYCLES = 120

#: Seek inside already-obtained extents: "most seek operations can be
#: done in libm3" (Section 4.5.8).
M3_SEEK_LOCAL_CYCLES = 40

#: libm3 VPE::run (clone): transfer code+data+heap+stack via DTU plus a
#: syscall to create the VPE; the constant covers the software part.
M3_VPE_RUN_SW_CYCLES = 400

# --------------------------------------------------------------------------
# Linux baseline path lengths (Sections 5.2, 5.3, 5.4)
# --------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LinuxCosts:
    """Per-architecture Linux cost table.

    Defaults are the Xtensa numbers; :data:`LINUX_ARM` holds the ARM
    Cortex-A15 variants the paper reports in Section 5.2.
    """

    #: Null system call round trip: 410 on Xtensa, 320 on ARM (Sections
    #: 5.2, 5.3).  This is the full user→kernel→user cost including
    #: saving/restoring machine state.
    syscall_cycles: int = 410

    #: read()/write() per-block costs (Section 5.4): "~380 cycles for
    #: entering/leaving the kernel, ~400 cycles for retrieving the file
    #: pointer, doing security checks and executing function prologs/
    #: epilogs and ~550 cycles for page cache related operations".
    syscall_enter_leave_cycles: int = 380
    fd_lookup_checks_cycles: int = 400
    page_cache_op_cycles: int = 550

    #: Effective memcpy bandwidth in bytes/cycle.  "Xtensa does not have
    #: a cache line prefetcher ... memcpy cannot saturate the memory
    #: bandwidth" (Section 5.4).  The DTU reaches 8 B/cycle; calibrated
    #: to 2.0 B/cycle so that copying a 2 MiB file costs ~3.2 M cycles
    #: *more* than the DTU-speed transfer (Section 5.2's "3.2 million
    #: cycles overhead on both architectures").  Figure 5's tar/untar
    #: ratios land at 0.30/0.31, not the paper's 0.20/0.16.
    memcpy_bytes_per_cycle: float = 2.0

    #: Context switch (direct cost): save/restore state, switch address
    #: space.  Not published; a conventional magnitude for a 32-bit SoC
    #: core, consistent with cat+tr being ~2x slower on Linux (Fig. 5).
    context_switch_cycles: int = 1200

    #: fork() / execve() base costs (beyond memory copying), calibrated
    #: against "VPE::run being faster than fork" in the cat+tr analysis.
    fork_cycles: int = 12000
    exec_cycles: int = 18000

    #: stat() total software cost: "stat is well optimized on Linux, so
    #: that M3 is actually a bit slower" (Section 5.6) — slightly under
    #: M3's message-based stat.
    stat_cycles: int = 700

    #: Zeroing a page before handing it to a writer: Linux "is
    #: overwriting each block with zeros before handing it out to a
    #: writing application" (Section 5.4); charged per 4 KiB block at
    #: memset bandwidth.
    memset_bytes_per_cycle: float = 4.0

    #: Pipe transfer per chunk: two syscalls plus copy in and out of the
    #: kernel pipe buffer, plus scheduler work.
    pipe_wakeup_cycles: int = 500

    #: Hypothetical miss-free copy/zero bandwidths (the "Lx-$" bars of
    #: Figure 3/5: "the time on Linux without cache misses").  With no
    #: misses the core could reach the DTU's 8 B/cycle.
    memcpy_nomiss_bytes_per_cycle: float = 8.0
    memset_nomiss_bytes_per_cycle: float = 8.0

    #: Directory-operation kernel work (mkdir/unlink/link/readdir) and
    #: per-component path-walk cost.  Not broken out in the paper;
    #: conventional magnitudes consistent with the find benchmark.
    dir_op_cycles: int = 600
    path_component_cycles: int = 250


#: Xtensa cost table (the platform of the main evaluation).
LINUX_XTENSA = LinuxCosts()

#: ARM Cortex-A15 cost table (Section 5.2): faster syscalls, working
#: cache-line prefetcher, so memcpy saturates closer to the bus limit —
#: but the paper reports the same 3.2 M cycles copy overhead, dominated
#: by per-block kernel work; we keep copy bandwidth higher and kernel
#: costs slightly lower.
LINUX_ARM = LinuxCosts(
    syscall_cycles=320,
    syscall_enter_leave_cycles=300,
    fd_lookup_checks_cycles=400,
    page_cache_op_cycles=700,
    memcpy_bytes_per_cycle=2.0,
    context_switch_cycles=1000,
)

#: tmpfs block size on Linux: "tmpfs used a block size 4 KiB" (Section 5.4).
LINUX_BLOCK_BYTES = 4 * 1024

# --------------------------------------------------------------------------
# m3fs parameters (Sections 4.5.8, 5.4, 5.5)
# --------------------------------------------------------------------------

#: "m3fs used a block size of 1 KiB" (Section 5.4).
M3FS_BLOCK_BYTES = 1 * 1024

#: "the sweet spot is 256 blocks, so that we chose to allocate that
#: number of blocks at once when appending to a file" (Section 5.5).
M3FS_APPEND_BLOCKS = 256

# --------------------------------------------------------------------------
# Workload parameters (Sections 5.4, 5.6, 5.8)
# --------------------------------------------------------------------------

#: Micro-benchmark transfer size and buffer size (Section 5.4).
MICRO_FILE_BYTES = 2 * 1024 * 1024
MICRO_BUFFER_BYTES = 4 * 1024

#: cat+tr pipes a 64 KiB file (Section 5.6).
CAT_TR_FILE_BYTES = 64 * 1024

#: tar archive: "files between 60 and 500 KiB and 1.2 MiB in total".
TAR_TOTAL_BYTES = 1_228_800  # 1.2 MiB
TAR_MIN_FILE_BYTES = 60 * 1024
TAR_MAX_FILE_BYTES = 500 * 1024

#: find: "searches for files within a directory tree of 40 items".
FIND_TREE_ITEMS = 40

#: sqlite: "creates a table, inserts 8 entries and selects them".
SQLITE_INSERTS = 8

#: FFT benchmark: "32 KiB of data in total" (Section 5.8); the
#: accelerator is "about a factor of 30" faster than the software FFT.
#: The software density is calibrated so the Linux bar of Figure 7
#: lands near the paper's ~3 M cycles.
FFT_DATA_BYTES = 32 * 1024
FFT_SW_CYCLES_PER_BYTE = 75.0  # software FFT cost density
FFT_ACCEL_SPEEDUP = 30.0

#: cat+tr: per-byte cost of the tr substitution loop (identical source
#: on both systems, Section 5.6).
TR_CYCLES_PER_BYTE = 2.0

#: FFT chain: per-byte cost of generating the random input numbers.
RAND_GEN_CYCLES_PER_BYTE = 6.0

#: Buffer used when replaying block-copy syscalls (sendfile) on M3 —
#: "M3 benefits from larger buffer sizes until all available space in
#: the SPM is used" (Section 5.4); 16 KiB stays well inside the SPM.
REPLAY_BUFFER_BYTES = 16 * 1024

#: sqlite benchmark compute model: "computation makes up the majority
#: of the execution time" and sqlite "is only slightly faster on M3"
#: (Section 5.6).  Waits inserted for the computation phases, identical
#: on both systems; sized so compute is ~85 % of the Linux total.
SQLITE_CREATE_CYCLES = 100_000
SQLITE_INSERT_CYCLES = 40_000
SQLITE_SELECT_CYCLES = 70_000

# --------------------------------------------------------------------------
# Key-value service tier and traffic workload (the "serve heavy
# traffic" scenario; not part of the paper's calibrated figures).
# --------------------------------------------------------------------------

#: Server-side software cost of one kv request (hash lookup, store
#: bookkeeping, reply marshalling).  Slightly above the m3fs server
#: share: a kv op touches the value where an m3fs metadata op does not.
KV_SERVER_CYCLES = 120

#: Client-side share of a kv RPC (marshalling, unmarshalling,
#: descriptor bookkeeping), mirroring the m3fs split: only the
#: server-side share serialises at a replica.
KV_CLIENT_RPC_CYCLES = 400

#: Server-side value copy bandwidth (bytes/cycle) — the value rides in
#: the request/reply message, so it moves at DTU speed.
KV_VALUE_BYTES_PER_CYCLE = 8

#: kv request/reply message capacity (same geometry as m3fs).
KV_MSG_BYTES = 496
KV_RING_SLOTS = 64

# --------------------------------------------------------------------------
# Elastic scaling (the kv-tier autoscaler)
# --------------------------------------------------------------------------

#: cycles between autoscaler epochs (sample telemetry, decide, act).
AUTOSCALE_EPOCH_CYCLES = 40_000

#: kernel software cost of one epoch's sampling and decision.
AUTOSCALE_SAMPLE_CYCLES = 200


# --------------------------------------------------------------------------
# Platform shape used by the evaluation
# --------------------------------------------------------------------------

#: Default mesh for experiments: enough PEs for the 16-instance
#: scalability run (Figure 6) plus kernel, services, and DRAM interface.
DEFAULT_MESH_WIDTH = 8
DEFAULT_MESH_HEIGHT = 8
