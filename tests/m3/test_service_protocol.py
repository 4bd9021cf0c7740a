"""The service protocol itself (``repro.m3.lib.service``): a toy
two-operation service on a 4-PE system, then the properties all three
real services inherit from the one loop."""

import pytest

from repro.m3.kernel.capability import Capability, CapKind
from repro.m3.kernel.objects import SendGateObject
from repro.m3.kernel.syscalls import SyscallError
from repro.m3.lib.gate import SendGate
from repro.m3.lib.m3fs_client import M3fsClient
from repro.m3.lib.service import ClientSession, Server, start_service
from repro.m3.services.kvserv import KvClient, KvError, KvServ
from repro.m3.services.m3fs.fs import FsError
from repro.m3.services.m3fs.server import M3fsServer
from repro.m3.services import netserv
from repro.m3.services.netserv import NetClient, NetServ, start_network
from repro.m3.system import M3System

IRQ = 0xF00
IRQ_CREDITS = 8


class EchoError(Exception):
    pass


class Echo(Server):
    slot_size = 128
    slot_count = 4
    request_cycles = 50
    errors = (EchoError, TypeError)
    irq_label = IRQ

    def __init__(self, service_name="echo"):
        super().__init__(service_name)
        self.irqs = []

    def _handle_irq(self, payload):
        self.irqs.append(payload)
        return
        yield

    def _op_echo(self, session, value):
        return (session, value)
        yield

    def _op_leave(self, session, refuse=False):
        if refuse:
            raise EchoError("staying")
        del self.sessions[session]
        return ()
        yield


class TracedEcho(Echo):
    category = "echo"


class EchoClient(ClientSession):
    service = "echo"
    error = EchoError


class TracedEchoClient(EchoClient):
    category = "echo-client"


def boot(server_type=Echo, **system_kwargs):
    system = M3System(pe_count=4, **system_kwargs).boot(with_fs=False)
    return system, start_service(system, server_type())


def irq_gate(system, env, server):
    """What the kernel does for a device at boot: a send gate onto the
    service's receive gate that stamps the interrupt label."""
    target = system.kernel.services[server.service_name].rgate
    gate = SendGateObject(target=target, label=IRQ, credits=IRQ_CREDITS)
    selector = system.kernel.vpes[env.vpe_id].captable.insert(
        Capability(CapKind.SEND, gate)
    )
    return SendGate(env, selector)


def test_start_service_registers_and_fills_in_the_server():
    system, server = boot()
    assert server.ready.triggered and server.env is not None
    assert server.vpe.name == "echo"
    assert system.kernel.services["echo"].owner is server.vpe
    assert server.service_sel is not None
    assert sorted(server._ops) == ["echo", "leave"]


def test_session_round_trip_and_what_requests_served_counts():
    system, server = boot()

    def app(env):
        client = yield from EchoClient.connect(env)
        return (yield from client.request("echo", b"payload"))

    session, value = system.run_app(app)
    assert (session, bytes(value)) == (1, b"payload")
    assert server.sessions == {1: 1}  # default state is the session id
    # the kernel's open_session message counts, like every request
    assert server.requests_served == 2


def test_refusals_reach_the_client_as_its_error_type_and_the_loop_goes_on():
    system, server = boot()

    def app(env):
        client = yield from EchoClient.connect(env)
        refusals = []
        for operation, args in (
            ("leave", (True,)),  # the service's own error type
            ("echo", ()),  # wrong arity from outside
            ("echo", (1, 2)),
            ("shout", ()),  # a dispatch-table miss
        ):
            with pytest.raises(EchoError) as refused:
                yield from client.request(operation, *args)
            refusals.append(str(refused.value))
        alive = yield from client.request("echo", 7)
        yield from client.request("leave")
        with pytest.raises(EchoError, match="no such session"):
            yield from client.request("echo", 8)
        return refusals, alive

    refusals, alive = system.run_app(app)
    assert refusals[0] == "staying"
    assert "missing 1 required positional argument" in refusals[1]
    assert "takes 3 positional arguments but 4 were given" in refusals[2]
    assert refusals[3] == "unknown operation 'shout'"
    assert alive == (1, 7)
    assert server.sessions == {}
    assert server.requests_served == 8  # open_session + the seven above


def test_interrupts_are_acked_and_neither_replied_to_nor_counted():
    system, server = boot()
    count = 6  # more than the ring has slots: each one must be acked

    def device(env):
        gate = irq_gate(system, env, server)
        for index in range(count):
            yield from gate.send(("irq", "toy", index))
            yield 2_000
        return env.dtu.ep(gate.ep).credits

    credits_left = system.run_app(device)
    assert server.irqs == [("irq", "toy", index) for index in range(count)]
    assert server.requests_served == 0
    # a reply would have refunded the credit its message spent
    assert credits_left == IRQ_CREDITS - count


def _observed_run(server_type, client_type):
    system, server = boot(server_type, observe=True)

    def app(env):
        client = yield from client_type.connect(env)
        yield from client.request("echo", 1)
        with pytest.raises(EchoError):
            yield from client.request("shout")
        yield from irq_gate(system, env, server).send(("irq", "toy", 0))
        yield 2_000

    system.run_app(app)
    return system.sim.obs, system.sim.now


def test_observed_names_are_exactly_the_subclass_attributes():
    obs, _now = _observed_run(TracedEcho, TracedEchoClient)
    served = [(span.name, span.args["status"]) for span in obs.spans
              if span.category == "echo"]
    assert served == [("open_session", "ok"), ("echo", "ok"),
                      ("shout", "err"), ("irq", "irq")]
    assert all(span.args["service"] == "echo" for span in obs.spans
               if span.category == "echo")
    assert obs.counters["echo.echo.requests"] == 3
    assert obs.histograms["echo.request_cycles"].count == 3
    asked = [span.name for span in obs.spans
             if span.category == "echo-client"]
    assert asked == ["echo", "shout"]
    # the service span hangs off the client's request span
    echo_client = next(s for s in obs.spans if s.category == "echo-client")
    echo_served = next(s for s in obs.spans
                       if s.category == "echo" and s.name == "echo")
    assert echo_served.trace_id == echo_client.trace_id != -1


def test_without_a_category_nothing_is_recorded():
    obs, _now = _observed_run(Echo, EchoClient)
    assert not [span for span in obs.spans if "echo" in span.category]
    assert not [name for name in (*obs.counters, *obs.histograms)
                if "echo" in name]


def test_double_run_is_cycle_identical():
    first = _observed_run(TracedEcho, TracedEchoClient)
    second = _observed_run(TracedEcho, TracedEchoClient)
    assert first[1] == second[1]
    assert [tuple(span) for span in first[0].spans] == \
        [tuple(span) for span in second[0].spans]


# -- what m3fs, kvserv and netserv inherit ------------------------------------


def _plain(server_type):
    return lambda system, names: [
        start_service(system, server_type(service_name=name)) for name in names
    ]


def _network(system, names):
    """``start_network`` under the two given names instead of its own."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(netserv, "SERVICE_NAMES", names)
        return start_network(system)


#: start(system, two names), server type, an operation (the handler-bug
#: test swaps in one that takes no arguments), client type, the error
#: type its client raises.
SERVICES = {
    "m3fs": (_plain(M3fsServer), M3fsServer, "readdir", M3fsClient, FsError),
    "kv": (_plain(KvServ), KvServ, "close", KvClient, KvError),
    "net": (_network, NetServ, "recv", NetClient, RuntimeError),
}


@pytest.fixture(params=sorted(SERVICES))
def service(request):
    return SERVICES[request.param]


def test_a_service_that_dies_before_registering_fails_its_start(system, service):
    """A duplicate name is the cheapest way to die in ``create_srv``:
    the second server's own refusal leaves the start."""
    start = service[0]
    with pytest.raises(SyscallError, match="already registered"):
        start(system, ("svc", "svc"))


def _request(system, service, operation):
    start, _server, _operation, client_type, _error = service
    start(system, ("svc", "other"))

    def app(env):
        client = yield from client_type.connect(env, "svc")
        return (yield from client.request(operation))

    return system.run_app(app)


def test_an_unknown_operation_is_a_dispatch_miss(system, service):
    with pytest.raises(service[4], match="^unknown operation 'x'$"):
        _request(system, service, "x")


@pytest.mark.leaves_unanswered(
    "the service dies inside the handler; its client's request is "
    "never answered")
def test_a_bug_inside_a_handler_crashes_the_service(system, service, monkeypatch):
    """It leaves the run where it is raised instead of being mailed to
    the client as an error string by a service that carries on."""
    _start, server_type, operation, _client, _error = service

    def buggy(self, session):
        return self.no_such_attribute
        yield

    monkeypatch.setattr(server_type, f"_op_{operation}", buggy)
    with pytest.raises(AttributeError, match="no_such_attribute"):
        _request(system, service, operation)
