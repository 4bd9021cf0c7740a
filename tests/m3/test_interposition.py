"""Capability interposition: "send and receive capabilities are
virtualizable, i.e., they can be interposed by a proxy to e.g., monitor
the communication" (Section 4.5.3)."""

from repro.m3.kernel import syscalls
from repro.m3.lib.gate import RecvGate, SendGate
from repro.m3.lib.vpe import VPE


def _make_sgate(env, rgate, label, credits=4):
    return env.syscall(syscalls.CREATE_SGATE, rgate.selector, label, credits)


def test_full_interposition_pipeline(system):
    """The clean end-to-end version: parent builds client/proxy/server,
    distributing capabilities by delegation."""

    def server(env):
        rgate = yield from RecvGate.create(env, slot_size=128, slot_count=4)
        sgate_sel = yield from _make_sgate(env, rgate, 0)
        env.system.blackboard["server_ready"].succeed(
            (env.vpe_id, sgate_sel)
        )
        for _ in range(2):
            slot, message = yield from rgate.receive()
            yield from rgate.reply(slot, ("echo", message.payload), 64)
        return "done"

    def proxy(env, back_sel):
        front = yield from RecvGate.create(env, slot_size=128, slot_count=4)
        front_sel = yield from _make_sgate(env, front, 0)
        env.system.blackboard["proxy_ready"].succeed((env.vpe_id, front_sel))
        back = SendGate(env, back_sel)
        monitored = []
        for _ in range(2):
            slot, message = yield from front.receive()
            monitored.append(message.payload)
            answer = yield from back.call(message.payload, env.reply_gate)
            yield from front.reply(slot, answer.payload, 64)
        env.system.blackboard["monitored"] = monitored
        return "proxied"

    def client(env, gate_sel):
        gate = SendGate(env, gate_sel)
        out = []
        for word in ("alpha", "beta"):
            answer = yield from gate.call(word, env.reply_gate)
            out.append(answer.payload)
        return out

    def parent(env):
        system_obj = env.system
        system_obj.blackboard = {
            "server_ready": env.sim.event("server_ready"),
            "proxy_ready": env.sim.event("proxy_ready"),
        }
        server_vpe = yield from VPE.create(env, "server")
        yield from server_vpe.run(server)
        server_id, server_sgate = yield system_obj.blackboard["server_ready"]
        # delegate the server's send gate to the proxy
        proxy_vpe = yield from VPE.create(env, "proxy")
        server_cap = system_obj.kernel.vpes[server_id].captable.get(
            server_sgate
        )
        back_sel = system_obj.kernel.vpes[
            proxy_vpe.vpe_id
        ].captable.insert(server_cap.derive())
        yield from proxy_vpe.run(proxy, back_sel)
        proxy_id, proxy_sgate = yield system_obj.blackboard["proxy_ready"]
        # the client only ever learns about the *proxy's* gate
        client_vpe = yield from VPE.create(env, "client")
        proxy_cap = system_obj.kernel.vpes[proxy_id].captable.get(proxy_sgate)
        client_sel = system_obj.kernel.vpes[
            client_vpe.vpe_id
        ].captable.insert(proxy_cap.derive())
        yield from client_vpe.run(client, client_sel)
        answers = yield from client_vpe.wait()
        yield from proxy_vpe.wait()
        yield from server_vpe.wait()
        return answers, system_obj.blackboard["monitored"]

    answers, monitored = system.run_app(parent, name="parent")
    assert answers == [("echo", "alpha"), ("echo", "beta")]
    assert monitored == ["alpha", "beta"]  # the proxy saw everything
