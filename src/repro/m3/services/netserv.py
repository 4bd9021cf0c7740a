"""netserv: a datagram network service.

The paper names "network stacks" alongside filesystems as the OS
services that applications provide over core-neutral protocols
(Sections 1, 4.5.1).  m3fs demonstrates the data-via-capabilities
pattern; netserv demonstrates the second pattern — a service that
multiplexes a *device* (a NIC pair on a wire) among client sessions:

- clients ``bind`` a port and exchange small datagrams via session
  messages (``send_to`` / ``recv``),
- the service moves frames through its DRAM buffer with real DTU
  transfers, commands the NIC by message, and takes RX interrupts as
  messages on the same receive gate it serves clients on — interrupts
  really are "integrated with the existing concepts" (Section 4.4.2).

Frame format on the wire: ``<HH`` src port, dst port, then the payload.
"""

from __future__ import annotations

import struct
import types
import typing

from repro import params
from repro.dtu.dtu import OBSERVED_TOTALS as DTU_TOTALS
from repro.dtu.registers import (
    UNLIMITED_CREDITS,
    EndpointRegisters,
    MemoryPerm,
)
from repro.hw.device import (CMD_RECV_EP, DMA_MEM_EP, DMA_WINDOW_BYTES,
                             IRQ_SEND_EP, TX_SLOT_BYTES, TX_SLOTS,
                             NetworkDevice, Wire)
from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.objects import RecvGateObject, SendGateObject
from repro.m3.lib.gate import MemGate, SendGate
from repro.m3.lib.service import ClientSession, Server, start_service

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.m3.system import M3System

_HEADER = struct.Struct("<HH")

#: label that marks device interrupts on the service's receive gate
#: (0 is the kernel; session ids start at 1 and stay well below this).
IRQ_LABEL = 0xFFFF

#: the largest datagram; with its port header it fits one TX or RX
#: slot of the NIC's DMA window (:mod:`repro.hw.device`).
MAX_PAYLOAD = 200

#: per-socket inbox depth.  Open-loop load means a slow client can
#: fall arbitrarily far behind its arrival stream; an unbounded inbox
#: then grows without limit.  Datagram semantics: a frame beyond the
#: bound is dropped and counted, like a real NIC ring overrun — no
#: back-pressure reaches the sender (docs/protocols.md, "netserv").
INBOX_DEPTH = 64

#: the two instances :func:`start_network` boots, one per NIC.
SERVICE_NAMES = ("net", "net2")

#: cycles :meth:`NetClient.recv_blocking` waits between empty polls.
RECV_POLL_CYCLES = 2_000


class _Socket:
    def __init__(self, session_id: int):
        self.session_id = session_id
        self.port: int | None = None
        self.inbox: list[tuple[int, bytes]] = []


class NetServ(Server):
    """The service: socket state plus the NIC driver."""

    slot_size = 512
    slot_count = 32
    request_cycles = params.M3FS_SERVER_CYCLES
    errors = (ValueError, TypeError)
    irq_label = IRQ_LABEL

    def __init__(self, service_name: str = "net"):
        super().__init__(service_name)
        self.buffer: MemGate | None = None
        self.nic_cmd: SendGate | None = None
        self.nic: NetworkDevice | None = None
        self.ports: dict[int, _Socket] = {}
        self.frames_routed = 0
        self.frames_dropped = 0
        self._tx_free: list[int] = list(range(TX_SLOTS))

    def _setup(self, env):
        self.buffer = yield from MemGate.create(
            env, DMA_WINDOW_BYTES, MemoryPerm.RW.value
        )

    def _open_session(self, session_id: int) -> _Socket:
        return _Socket(session_id)

    def stats(self) -> dict:
        """Requests, frames dropped, and the NIC's DTU — a device DTU,
        so under ``net.<service>.nic.*`` and not among the PEs'."""
        prefix = f"net.{self.service_name}"
        stats = super().stats()
        stats[f"{prefix}.frames_dropped"] = self.frames_dropped
        for name, value in self.nic.dtu.stats().items():
            stats[f"{prefix}.nic.{name}"] = value
        return stats

    # -- the driver side ------------------------------------------------------

    def _handle_irq(self, payload):
        """Generator: a NIC interrupt — route an RX frame or reclaim a
        TX slot."""
        _kind, name, detail = payload
        if not detail:
            return
        if detail[0] == "txdone":
            # The NIC finished its DMA read; the slot can be reused.
            self._tx_free.append(detail[1] // TX_SLOT_BYTES)
            return
        if detail[0] != "rx":
            return
        _tag, offset, length = detail
        if length < _HEADER.size:
            # A runt frame cannot carry a port header; drop it instead
            # of crashing the service on the unpack.
            self._drop("runt", -1)
            return
        frame = yield from self.buffer.read(offset, length)
        src_port, dst_port = _HEADER.unpack_from(frame)
        socket = self.ports.get(dst_port)
        if socket is None:
            self._drop("unbound", dst_port)
            return
        if len(socket.inbox) >= INBOX_DEPTH:
            # The client is not draining its inbox: drop like a ring
            # overrun instead of growing memory without bound.
            self._drop("overflow", dst_port)
            return
        socket.inbox.append((src_port, bytes(frame[_HEADER.size :])))
        self.frames_routed += 1

    def _drop(self, reason: str, port: int) -> None:
        """Count a received frame that reaches no inbox, where the
        telemetry plane, an SLO and the flight recorder see it too."""
        obs = self.env.sim.obs
        if obs is not None:
            obs.instant("frame_drop", "net", self.env.pe.node,
                        service=self.service_name, reason=reason, port=port)
        self.frames_dropped += 1

    # -- session operations ------------------------------------------------------

    def _op_bind(self, socket: _Socket, port: int):
        if not (0 < port < 65536):
            raise ValueError(f"bad port {port}")
        if port in self.ports:
            raise ValueError(f"port {port} already bound")
        if socket.port is not None:
            del self.ports[socket.port]
        socket.port = port
        self.ports[port] = socket
        return ()
        yield  # pragma: no cover

    def _op_send_to(self, socket: _Socket, dst_port: int, payload: bytes):
        payload = bytes(payload)
        if len(payload) > MAX_PAYLOAD:
            raise ValueError(f"datagram of {len(payload)}B too large")
        if not self._tx_free:
            raise ValueError("tx ring full, retry later")
        slot = self._tx_free.pop(0)
        # The slot is only committed once the NIC owns the frame; any
        # failure between the pop and the command send must return it
        # or the ring shrinks by one slot per error, forever.
        committed = False
        try:
            offset = slot * TX_SLOT_BYTES
            frame = _HEADER.pack(socket.port or 0, dst_port) + payload
            yield from self.buffer.write(offset, frame)
            # NIC commands go out as *calls*: the NIC's reply refunds
            # the command gate's send credits.  Driving the NIC
            # fire-and-forget exhausts the gate after max_credits
            # lifetime commands — the NIC acks but never replies, so
            # credits never come back.
            yield from self.nic_cmd.call(("tx", offset, len(frame)),
                                         self.env.reply_gate, 32)
            committed = True
        finally:
            if not committed:
                self._tx_free.insert(0, slot)
        return len(payload)

    def _op_recv(self, socket: _Socket):
        """Poll for the next datagram: (src_port, payload) or None."""
        if socket.inbox:
            return socket.inbox.pop(0)
        return None
        yield  # pragma: no cover

    def _op_close(self, socket: _Socket):
        """Tear the session down: unbind the port, drop the socket.

        Without this, a finished client's socket and bound port leak
        forever — the port can never be reused.  Further requests on
        the closed session fail with "no such session".
        """
        if socket.port is not None and self.ports.get(socket.port) is socket:
            del self.ports[socket.port]
        socket.port = None
        socket.inbox.clear()
        self.sessions.pop(socket.session_id, None)
        return ()
        yield  # pragma: no cover


class NetClient(ClientSession):
    """One application's session with a netserv instance.

    The service's ``("err", reason)`` replies surface as
    :class:`RuntimeError`.
    """

    service = "net"

    def bind(self, port: int):
        return (yield from self.request("bind", port))

    def send_to(self, dst_port: int, payload: bytes):
        return (yield from self.request("send_to", dst_port, payload))

    def recv(self):
        """Generator: poll once; (src_port, payload) or None."""
        return (yield from self.request("recv"))

    def recv_blocking(self):
        """Generator: poll until a datagram arrives."""
        while True:
            datagram = yield from self.request("recv")
            if datagram is not None:
                return datagram
            yield RECV_POLL_CYCLES

    def close(self):
        return (yield from self.request("close"))


def start_network(system: "M3System"):
    """Boot two NICs on a wire and a netserv instance for each.

    Device wiring (DMA windows, command channels, interrupt routes) is
    the kernel's boot-time job, exactly like a device tree; the
    services then drive their NICs with ordinary gates.  The wiring
    runs to completion before this returns, so no client reaches a
    service, and no frame or interrupt arrives, before ``nic_cmd`` is
    set: each service simply waits in its receive loop meanwhile.
    Returns the two :class:`NetServ` instances.
    """
    wire = Wire(system.sim)
    nics = []
    servers = []
    base_node = len(system.platform.pes)
    for index, name in enumerate(SERVICE_NAMES):
        nic = NetworkDevice(system.sim, system.platform.network,
                            base_node + index, name=f"nic{index}")
        if system.reliable:
            # Match the chip: an unreliable NIC DTU on a reliable
            # platform deadlocks under packet loss — a dropped command
            # reply or DMA response is never retransmitted, wedging the
            # driver (or the NIC's serve loop) forever.
            nic.dtu.enable_reliability()
        nics.append(nic)
        server = start_service(system, NetServ(service_name=name))
        servers.append(server)
        if system.sim.obs is not None:
            system.sim.obs.label_node(nic.node, f"nic:{nic.name}")
            system.sim.obs.monitor(DTU_TOTALS, nic.dtu)
            system.sim.obs.monitor(
                {f"net.{name}.frames_dropped": "frames_dropped"}, server)
    wire.connect(nics[0], nics[1])

    def wire_devices():
        kernel = system.kernel
        for nic, server in zip(nics, servers):
            buffer_cap = server.vpe.captable.get(server.buffer.selector)
            region = buffer_cap.obj
            # DMA window onto the service's buffer
            yield from kernel.dtu.configure_remote(
                nic.node, "configure", DMA_MEM_EP,
                EndpointRegisters.memory_config(
                    region.node, region.address, region.size, MemoryPerm.RW,
                ),
            )
            # command channel: give the service a send gate to the NIC
            yield from kernel.dtu.configure_remote(
                nic.node, "configure", CMD_RECV_EP,
                EndpointRegisters.receive_config(0, slot_size=64,
                                                 slot_count=8),
            )
            nic_port = types.SimpleNamespace(node=nic.node)
            nic_rgate = RecvGateObject(slot_size=64, slot_count=8,
                                       owner=nic_port,
                                       ep_index=CMD_RECV_EP)
            command_gate = SendGateObject(target=nic_rgate, label=0,
                                          credits=8)
            selector = server.vpe.captable.insert(
                Capability(CapKind.SEND, command_gate)
            )
            # interrupt route: NIC -> the service's receive gate.  The
            # service *acks* interrupt messages (no reply), which never
            # refunds send credits — so the endpoint is not flow-
            # controlled by them: any finite count would be a lifetime
            # after which the NIC goes silent.
            service = kernel.services[server.service_name]
            yield from kernel.dtu.configure_remote(
                nic.node, "configure", IRQ_SEND_EP,
                EndpointRegisters.send_config(
                    target_node=service.rgate.node,
                    target_ep=service.rgate.ep_index,
                    label=IRQ_LABEL, credits=UNLIMITED_CREDITS,
                    msg_size=service.rgate.slot_size,
                ),
            )
            nic.start()
            server.nic = nic
            server.nic_cmd = SendGate(server.env, selector)

    system.sim.run_process(wire_devices(), "wire-network")
    return servers
