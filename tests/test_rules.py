"""The repo's rules, one table, one row per check.

Most rules keep state with its owner, as M3's kernel and DTU own theirs
(PAPER.md §4); the rest keep one way of doing a thing.  A row names the
lines that break its rule.  The tests below fail on any such line in
the tree, and check every row twice so that none can pass on any code:
the row must report its planted line wherever it searches, and not
where it exempts; and each name it forbids must still exist where its
owner keeps it (*owned*), or nowhere at all (*retired*), so a rename
fails the row instead of emptying it.

A new rule is a new row.  This file is exempt from every row: its
patterns and planted lines are strings.
"""

from __future__ import annotations

import ast
import dataclasses
import functools
import re
from collections.abc import Callable, Mapping
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TABLE = "tests/test_rules.py"


@dataclasses.dataclass(frozen=True)
class Rule:
    """One check.

    ``pattern`` is matched against each line of every ``*.py`` file that
    ``paths`` name (a path ending in ``/`` is a directory searched
    recursively, any other a glob from the repo root), unless the file's
    path starts with an ``exempt`` prefix or the line matches an
    ``allow`` pattern.  A pattern is grep -E's syntax, which Python's
    ``re`` reads alike for every row here.  ``pattern`` may instead be a
    function from a file's source and the tree's root to its offending
    ``(line, text)`` pairs, for what a line regex cannot state (``allow``
    then matches the text), or ``None``, which counts every line
    (``wc -l``).  With a ``limit``, the row fails only when
    more lines than that offend.

    ``owned`` maps each forbidden name its owner still uses to where it
    must occur; ``retired`` names belong to a deleted design and may
    occur nowhere under ``src/`` or ``tests/``.  ``planted`` is a line
    the row must report.
    """

    name: str
    pattern: str | Callable[[str, Path], list[tuple[int, str]]] | None
    paths: tuple[str, ...]
    message: str
    planted: str
    exempt: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()
    limit: int | None = None
    owned: Mapping[str, str] = dataclasses.field(default_factory=dict)
    retired: tuple[str, ...] = ()


def _floor_parameters(source: str, _root: Path) -> list[tuple[int, str]]:
    """The module-level ``def reserve_path``'s parameters named ``floor``
    (and the def's absence, which would empty the rule)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "reserve_path":
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            return [(p.lineno, f"reserve_path({p.arg})") for p in params
                    if p is not None and p.arg == "floor"]
    return [(1, "no module-level def reserve_path")]


#: where a read of a field counts: production, and the laws every
#: system fixture asserts.
READERS = ("src/", "benchmarks/", "examples/", "tests/m3/invariants.py")
_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*\Z")
_FILLS = frozenset(("add", "append", "appendleft", "clear", "discard", "extend",
                    "insert", "pop", "popleft", "remove", "setdefault", "update"))


def _reads(tree: ast.AST, strings: bool = True) -> set[str]:
    """The attribute names ``tree`` reads outside a ``__repr__``: each
    attribute load, unless it only fills or empties a container
    (``x.log.append(...)`` as a statement, ``x.table[key] = value``),
    and with ``strings`` each part of a string that is a dotted name
    (the ``monitor`` and ``attrgetter`` tables name attributes so),
    unless it is a docstring or a ``__slots__`` entry."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name == "__repr__":
            skip.update(map(id, ast.walk(node)))
        elif isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                               ast.AsyncFunctionDef)) and ast.get_docstring(node):
            skip.add(id(node.body[0].value))
        elif isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__slots__"
                for target in node.targets):
            skip.update(id(entry) for entry in ast.walk(node.value))
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            skip.add(id(node.value))
        elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
              and isinstance(node.value.func, ast.Attribute)
              and node.value.func.attr in _FILLS):
            skip.add(id(node.value.func.value))
    names = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif (strings and isinstance(node, ast.Constant)
              and isinstance(node.value, str) and _DOTTED.match(node.value)):
            names.update(node.value.split("."))
    return names


@functools.cache
def _reader_trees(root: Path) -> tuple[ast.Module, ...]:
    return tuple(ast.parse(file.read_text(encoding="utf-8"))
                 for path in READERS for file in _files(root, path))


@functools.cache
def _read_anywhere(root: Path, strings: bool = True) -> frozenset[str]:
    return frozenset().union(*(_reads(tree, strings)
                               for tree in _reader_trees(root)))


def _write_only_state(source: str, root: Path) -> list[tuple[int, str]]:
    """Each assignment to ``self.<name>`` where nothing ``READERS`` name
    reads ``<name>``.  Names are not types: a field that shares its name
    with a field production reads passes unseen."""
    read, lines = _read_anywhere(root), source.splitlines()
    return [(node.lineno, lines[node.lineno - 1].strip())
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name) and node.value.id == "self"
            and node.attr not in read]


def _loads(tree: ast.AST) -> set:
    """The constant keys ``tree`` loads: ``x["key"]`` and ``x.get("key")``."""
    keys = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load)
                and isinstance(node.slice, ast.Constant)):
            keys.add(node.slice.value)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and node.args
              and isinstance(node.args[0], ast.Constant)):
            keys.add(node.args[0].value)
    return keys


@functools.cache
def _loaded_anywhere(root: Path) -> frozenset:
    return frozenset().union(*map(_loads, _reader_trees(root)))


def _unloaded_keys(source: str, root: Path) -> list[tuple[int, str]]:
    """Each string key of a dict literal a function returns, directly or
    through the name it assigned the dict to, that nothing ``READERS``
    name loads by key, as ``function: 'key'``.  A key read only by
    iterating the dict passes through an allow entry."""
    loaded, found = _loaded_anywhere(root), []
    for function in ast.walk(ast.parse(source)):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        returns = [node.value for node in ast.walk(function)
                   if isinstance(node, ast.Return)]
        names = {value.id for value in returns if isinstance(value, ast.Name)}
        dicts = [value for value in returns if isinstance(value, ast.Dict)]
        dicts += [node.value for node in ast.walk(function)
                  if isinstance(node, ast.Assign)
                  and isinstance(node.value, ast.Dict)
                  and any(isinstance(target, ast.Name) and target.id in names
                          for target in node.targets)]
        found += [(key.lineno, f"{function.name}: {key.value!r}")
                  for literal in dicts for key in literal.keys
                  if isinstance(key, ast.Constant) and isinstance(key.value, str)
                  and key.value not in loaded]
    return found



def _callee(node: ast.expr) -> str | None:
    """The name a call matches by: ``f`` of ``f(...)`` and ``x.f(...)``."""
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def _passes(tree: ast.AST) -> tuple[dict, set[str], set[str]]:
    """What ``tree`` passes to functions it names.  For each callee
    name, each call's ``(positional count, keyword names)``, or ``None``
    for a call that unpacks ``*`` or ``**``; the names it uses as values,
    which may be called with anything: a name or attribute it loads
    other than as a callee, an attribute's object or in an annotation,
    unless the name is a variable of this file; and the attribute names
    it assigns, which are fields rather than functions."""
    calls, skip, variables, fields = {}, set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            skip.add(id(node.func))
            name = _callee(node.func)
            unpacks = (any(isinstance(arg, ast.Starred) for arg in node.args)
                       or any(keyword.arg is None for keyword in node.keywords))
            calls.setdefault(name, []).append(None if unpacks else (
                len(node.args), {keyword.arg for keyword in node.keywords}))
        elif isinstance(node, ast.Attribute):
            skip.add(id(node.value))
            if not isinstance(node.ctx, ast.Load):
                fields.add(node.attr)
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            variables.add(node.id)
        elif isinstance(node, ast.arg):
            variables.add(node.arg)
        for note in (getattr(node, "annotation", None),
                     getattr(node, "returns", None)):
            if note is not None:
                skip.update(map(id, ast.walk(note)))
    values = set()
    for node in ast.walk(tree):
        if id(node) in skip or not isinstance(getattr(node, "ctx", None), ast.Load):
            continue
        if isinstance(node, ast.Name) and node.id not in variables:
            values.add(node.id)
        elif isinstance(node, ast.Attribute):
            values.add(node.attr)
    return calls, values, fields


@functools.cache
def _passed_anywhere(root: Path) -> tuple[dict, frozenset[str]]:
    calls, values, fields = {}, set(), set()
    for tree in _reader_trees(root):
        tree_calls, tree_values, tree_fields = _passes(tree)
        for name, found in tree_calls.items():
            calls.setdefault(name, []).extend(found)
        values |= tree_values
        fields |= tree_fields
    return calls, frozenset(values - fields)


def _test_only_options(source: str, root: Path) -> list[tuple[int, str]]:
    """Each parameter with a default that no call ``READERS`` name
    passes, by keyword or by position, as ``function(parameter=)``.
    Calls match by name (a class's name for its ``__init__``), and a
    function whose name is used as a value passes everything: names are
    not types, so an option that shares its function's name with one
    production passes goes unseen."""
    calls, values = _passed_anywhere(root)
    found = []
    for owner in ast.walk(ast.parse(source)):
        for function in ast.iter_child_nodes(owner):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            method = isinstance(owner, ast.ClassDef) and not any(
                isinstance(decorator, ast.Name) and decorator.id == "staticmethod"
                for decorator in function.decorator_list)
            name = label = function.name
            if method and name == "__init__":
                name = label = owner.name
            elif method:
                label = f"{owner.name}.{name}"
            if name in values:
                continue
            args = function.args
            positional = [*args.posonlyargs, *args.args]
            first, receiver = len(positional) - len(args.defaults), int(method)
            options = [(index - receiver, param)
                       for index, param in enumerate(positional) if index >= first]
            options += [(None, param)
                        for param, default in zip(args.kwonlyargs, args.kw_defaults)
                        if default is not None]
            found += [(param.lineno, f"{label}({param.arg}=)")
                      for index, param in options
                      if not any(call is None or param.arg in call[1]
                                 or index is not None and index < call[0]
                                 for call in calls.get(name, ()))]
    return found


def _is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a NamedTuple."""
    decorators = [decorator.func if isinstance(decorator, ast.Call) else decorator
                  for decorator in node.decorator_list]
    return ("dataclass" in map(_callee, decorators)
            or "NamedTuple" in map(_callee, node.bases))


def _unread_record_fields(source: str, root: Path) -> list[tuple[int, str]]:
    """Each dataclass or NamedTuple field that no attribute load under
    ``READERS`` names, outside a ``__repr__``, as ``Record.field``.
    Strings do not count: a column header is as often a field's name as
    an ``attrgetter`` is.  Names are not types, as for
    ``write-only-state``."""
    read = _read_anywhere(root, strings=False)
    return [(field.lineno, f"{record.name}.{field.target.id}")
            for record in ast.walk(ast.parse(source))
            if isinstance(record, ast.ClassDef) and _is_record(record)
            for field in record.body
            if isinstance(field, ast.AnnAssign) and isinstance(field.target, ast.Name)
            and field.target.id not in read]


ROWS = (
    Rule(
        "dtu-privates",
        r"\._(ringbufs|signals|retx|pending|reliable|reconcile_credit)\b",
        ("src/",), exempt=("src/repro/dtu/",),
        message="use the DTU's public operations (docs/dtu-spec.md) instead",
        planted="dtu._retx.clear()",
        owned=dict.fromkeys(("_ringbufs", "_signals", "_retx", "_pending"),
                            "src/repro/dtu/"),
        retired=("_reliable", "_reconcile_credit"),
    ),
    Rule(
        "link-window-record",
        r"_window_(start|end|idle)\b|_older_(ends|starts|idles)\b|_forgotten_to\b",
        ("src/",), exempt=("src/repro/noc/",),
        message="read a link through busy_within / busy_cycles / utilization: "
                "it forgets windows behind them",
        planted="start = link._window_start",
        owned=dict.fromkeys(
            ("_window_start", "_window_end", "_window_idle", "_older_ends",
             "_older_starts", "_older_idles", "_forgotten_to"),
            "src/repro/noc/"),
    ),
    Rule(
        "links-sampled-to",
        r"\b(links_sampled_to|sample_links|link_series|fold_at|_record_epoch|"
        r"links_busy|link_busy_max)\b",
        ("src/",),
        message="the observer keeps no epochs of its own: link occupancy is "
                "the telemetry series noc.link.* (LinkOccupancy), on the "
                "telemetry's clock",
        planted="obs.sample_links(network, force=True)",
        retired=("links_sampled_to", "sample_links", "link_series", "fold_at",
                 "_record_epoch", "links_busy", "link_busy_max"),
    ),
    Rule(
        "reserve-path-floor",
        _floor_parameters,
        ("src/repro/noc/link.py",),
        message="reserve_path forgets behind the packet's own head: it takes "
                "no floor",
        planted="def reserve_path(links, head: int, floor: int) -> int: ...",
    ),
    Rule(
        "memory-extents",
        r"_extent_(starts|bytes)\b",
        ("src/",), exempt=("src/repro/hw/",),
        message="go through read / write: a memory keeps payloads by "
                "reference and trims them behind those",
        planted="starts = dram._extent_starts",
        owned=dict.fromkeys(("_extent_starts", "_extent_bytes"), "src/repro/hw/"),
    ),
    Rule(
        "span-log",
        r"SharedArgs|shared_args|\.columns\b|spans\.kinds\b",
        ("src/",), exempt=("src/repro/obs/",),
        message="read spans as obs.spans[i] / iteration; record through "
                "obs.kinds[...] and obs.record(...) (docs/observability.md)",
        planted="kinds = obs.spans.kinds",
        owned=dict.fromkeys((".columns", "spans.kinds"), "src/repro/obs/"),
        retired=("SharedArgs", "shared_args"),
    ),
    Rule(
        "obs-count",
        r"\bobs\.count\(",
        ("src/",), exempt=("src/repro/obs/",),
        # docs/observability.md, "Sampled counters", gives each kept push
        # its reason.
        allow=(
            r'"(dtu\.sends\.|traffic\.(sent|completions)"|autoscale\.scale_(ups|downs)"|kernel\.(checkpoints|ctx_switches)")',
            r'\}\.(ik_(requests|timeouts|duplicates|served)|heartbeats|heartbeat_misses|peer_deaths|syscalls)"',
        ),
        message="sample the component's own total with Observer.monitor "
                "instead of pushing a copy",
        planted='sim.obs.count("dtu.retries")',
    ),
    Rule(
        "obs-none-sites",
        r"obs(erver)? is (not )?None",
        ("src/",), exempt=("src/repro/obs/",), limit=60,
        message="'obs is (not) None' sites outside src/repro/obs/ are capped: "
                "register a component's total once with Observer.monitor",
        planted="if sim.obs is not None:",
    ),
    Rule(
        "stats-counters",
        r"\.(retransmits|acks_sent|packets_lost|requests_served|switch_count|frames_dropped)\b|\.ringbuffer\(",
        ("src/repro/eval/", "src/repro/workloads/"),
        message='read a total from M3System.stats() (docs/observability.md, '
                '"Counters"), not from the component',
        planted="lost = system.network.packets_lost",
        owned={
            "retransmits": "src/repro/dtu/",
            "acks_sent": "src/repro/dtu/",
            "packets_lost": "src/repro/noc/",
            "requests_served": "src/repro/m3/lib/service.py",
            "switch_count": "src/repro/m3/kernel/ctxsw.py",
            "frames_dropped": "src/repro/m3/services/netserv.py",
            "ringbuffer": "src/repro/dtu/",
        },
    ),
    Rule(
        "fig3-operations",
        r"PipeWriter\.attach|Pipe\.create\(|lx\.pipe\(",
        ("src/repro/eval/",),
        message="drive m3_pipe / lx_pipe (and m3_read, m3_write, m3_syscalls, "
                "...) from repro.workloads.micro instead of writing the "
                "program again",
        planted="pipe = yield from Pipe.create(env)",
        owned=dict.fromkeys(("PipeWriter.attach", "Pipe.create", "lx.pipe"),
                            "src/repro/workloads/micro.py"),
    ),
    Rule(
        "kernel-privates",
        r"kernel\._[a-z]",
        ("src/",), exempt=("src/repro/m3/kernel/kernel.py",),
        message="go through Kernel's public operations or the owning component "
                "(kernel.sessions, kernel.caps, kernel.ik, ...)",
        planted="kernel._vpes.clear()",
    ),
    Rule(
        "pe-allocator",
        "_alloc_next",
        ("src/",), exempt=("src/repro/hw/pe.py",),
        message="save and restore a PE's SPM allocator through "
                "ProcessingElement.alloc_mark",
        planted="mark = pe._alloc_next",
        retired=("_alloc_next",),
    ),
    Rule(
        "ring-slots",
        r"\._slots\b",
        ("src/",), exempt=("src/repro/dtu/",),
        message="ring slots belong to RingBuffer: peek / ack / retarget_reply",
        planted="slot = ring._slots[0]",
        owned={"_slots": "src/repro/dtu/"},
    ),
    Rule(
        "kernel-py-lines",
        None,
        ("src/repro/m3/kernel/kernel.py",), limit=850,
        message="new state belongs to a component under src/repro/m3/kernel/",
        planted="pass",
    ),
    Rule(
        "exit-waiters",
        r"\b(yield_waiters|remote_waiters|exit_events)\b|\.waiters\b",
        ("src/", "tests/"),
        message="append the wait's answer to vpe.exit_waiters; "
                "Kernel.vpe_exited answers it, migration re-parks it",
        planted="vpe.waiters.append(answer)",
        retired=("yield_waiters", "remote_waiters", "exit_events", ".waiters"),
    ),
    Rule(
        "crash-names",
        "raise_crashes|_app_processes|_kernel_processes|_await_reply",
        ("src/", "tests/"),
        message="an uncaught process exception leaves Simulator.run where it "
                "is raised (no second crash scan); libm3 receives through "
                "RecvGate.receive (no second receive loop)",
        planted="system.raise_crashes()",
        retired=("raise_crashes", "_app_processes", "_kernel_processes",
                 "_await_reply"),
    ),
    Rule(
        "libm3-receive",
        re.escape("wait_message("),  # a literal call, "(" included
        ("src/repro/m3/",),
        message="libm3 receives through RecvGate.receive, which follows "
                "env.dtu (no second receive loop)",
        planted="msg = yield from env.dtu.wait_message(ep)",
        owned={"wait_message": "src/repro/dtu/"},
    ),
    Rule(
        "eval-asserts",
        r"\bassert\b|AssertionError",
        ("src/repro/eval/",),
        message="put the check in the eval's CLAIMS predicate in "
                "benchmarks/claims.py, reading the structured results",
        planted="assert cycles > 0",
    ),
    Rule(
        "platform-construction",
        r"\b(PlatformConfig|Platform)\(",
        ("src/",), exempt=("src/repro/hw/",),
        message="build the chip with Platform.build, or M3System(pe_count=..., "
                "**platform keywords); PlatformConfig and Platform are "
                "constructed only under src/repro/hw/",
        planted="chip = Platform(config)",
        owned=dict.fromkeys(("Platform", "PlatformConfig"), "src/repro/hw/"),
    ),
    Rule(
        "test-only-reads",
        r"\b(largest_hole|free_bytes|windows_retained|serialization_cycles|"
        r"spm_code|SPM_CODE_BYTES|spm_bytes|frames_carried|frames_received|"
        r"interrupts_sent|compute_op|sessions_opened|sessions_closed|"
        r"context_switches|_counter_events|retry_log|last_fired|"
        r"dropped_epochs)\b",
        ("src/", "tests/"),
        message="this read had no reader outside its own tests and was "
                "deleted: give a new one a production reader, or compute it "
                "in the test from public state",
        planted="hole = kernel.memory.largest_hole",
        retired=("largest_hole", "free_bytes", "windows_retained",
                 "serialization_cycles", "spm_code", "SPM_CODE_BYTES",
                 "spm_bytes", "frames_carried", "frames_received",
                 "interrupts_sent", "compute_op", "sessions_opened",
                 "sessions_closed", "context_switches", "_counter_events",
                 "retry_log", "last_fired", "dropped_epochs"),
    ),
    Rule(
        "write-only-state",
        _write_only_state,
        ("src/repro/",),
        message="a field production never reads: give it a reader under "
                "src/, benchmarks/ or examples/ (or a law in "
                "tests/m3/invariants.py), or delete it and let a test compute "
                "what it needs from public state",
        planted="def reset(self): self.unread_total = 0",
    ),
    Rule(
        "returned-dict-keys",
        _unloaded_keys,
        ("src/repro/",),
        allow=(
            # M3System.stats() flattens every component's stats() by
            # iterating it, and its readers load the flattened names.
            r"^stats:",
            # the Chrome/Perfetto trace format's own field, for the viewer.
            r"^to_chrome_trace:",
        ),
        message="a key no production code reads: delete it, or give it a "
                "reader under src/, benchmarks/ or examples/",
        planted='def summary(self): return {"unread_key": self.total}',
    ),
    Rule(
        "test-only-options",
        _test_only_options,
        ("src/repro/",),
        allow=(
            # the span log's ring bound for long observed runs
            # (docs/observability.md), kept settable on purpose.
            r"^Observer\(span_capacity=\)",
            # the syscall ABI: migrate_vpe takes the target domain
            # (docs/protocols.md, "Elastic scaling").
            r"^VPE\.migrate\(domain=\)",
            # hostperf's frozen fold.py counts schedule_at by name; its
            # signature stays schedule's.
            r"^Simulator\.schedule_at\(argument=\)",
        ),
        message="an option no production code sets: delete it and its "
                "branch, or give it a caller under src/, benchmarks/ or "
                "examples/; a test that needs another value patches a "
                "module constant",
        planted="def scale(value, factor=2): return value * factor",
    ),
    Rule(
        "unread-record-fields",
        _unread_record_fields,
        ("src/repro/",),
        allow=(
            # the paper's ringbuffer register (§4.4.2); hostperf's frozen
            # micro.py passes it to receive_config.
            r"^EndpointRegisters\.buffer_addr$",
        ),
        message="a record field no production code reads: delete it and "
                "what computes it, or give it a reader under src/, "
                "benchmarks/ or examples/",
        planted="class Reading(typing.NamedTuple): unread_value: int",
    ),
    Rule(
        "flight-dump-text",
        r"\brender_dump\b",
        ("src/", "tests/"),
        message="a flight dump is the text FlightRecorder.dump returns: "
                "there is no dump dict and no second renderer",
        planted="text = render_dump(dump)",
        retired=("render_dump",),
    ),
    Rule(
        "loss-and-fail-stop",
        r"\.corrupt(ed)?\b|\bstall_pe\b|\bcrc_drops?\b|"
        r"\bpackets_(corrupted|delayed)\b|\bTag\.FAULT\b",
        ("src/", "tests/"),
        message="a fault plan drops packets and kills cores, the two faults "
                "the experiments draw: a lost packet is a drop, not a "
                "corruption the receiver's CRC catches, and no fault delays "
                "or stalls the NoC",
        planted="FaultPlan(seed=1).corrupt(0.02).install(platform)",
        retired=(".corrupt", "stall_pe", "crc_drop", "crc_drops",
                 "packets_corrupted", "packets_delayed", "Tag.FAULT",
                 ".corrupted"),
    ),
    Rule(
        "done-once",
        r"\bquarantine_pe\b|\bnic_attached\b|\b_started\b|\bpe\.compute\b|"
        r"\bEP_(SYSCALL|REPLY)\b|\b(obs|Observer)\.complete\b",
        ("src/", "tests/", "examples/"),
        message="each job has one piece of code: start_network wires a NIC "
                "before any client reaches its netserv, so no service waits "
                "for it; wipe_node and ProcessingElement.fail fence a dead "
                "PE; Env.compute charges application compute; the syscall "
                "ABI names its endpoints APP_SYSCALL_EP and APP_REPLY_EP; a "
                "span is begin / end, or record with an interned kind",
        planted='obs.complete("pkt", "noc", 1, 10, 40)',
        retired=("quarantine_pe", "nic_attached", "_started", "pe.compute",
                 "EP_SYSCALL", "EP_REPLY", "obs.complete",
                 "Observer.complete"),
    ),
    Rule(
        "obs-ledger-lines",
        None,
        ("src/repro/obs/*.py", "src/repro/sim/ledger.py"), limit=1692,
        message="the observer and the time ledger do not grow: make room by "
                "deleting code, not by moving it to another file",
        planted="pass",
    ),
)


def _files(root: Path, path: str) -> list[Path]:
    if path.endswith("/"):
        return sorted((root / path).rglob("*.py"))
    return sorted(root.glob(path))


def _relative(root: Path, file: Path) -> str:
    return file.relative_to(root).as_posix()


def offences(rule: Rule, root: Path) -> list[str]:
    """``path:line: text`` for each line under ``root`` that breaks
    ``rule`` (one summary line for a limit row), after a line for each
    path that names no file."""
    missing, found = [], []
    for path in rule.paths:
        files = _files(root, path)
        if not files:
            missing.append(f"{path}: nothing to search")
        for file in files:
            rel = _relative(root, file)
            if rel == TABLE or rel.startswith(rule.exempt):
                continue
            source = file.read_text(encoding="utf-8")
            if callable(rule.pattern):
                found += [f"{rel}:{n}: {text}"
                          for n, text in rule.pattern(source, root)
                          if not any(re.search(allow, text) for allow in rule.allow)]
            elif rule.pattern is None:
                found += [f"{rel}:{n}: {line.strip()}"
                          for n, line in enumerate(source.splitlines(), 1)]
            else:
                found += [f"{rel}:{n}: {line.strip()}"
                          for n, line in _matching(rule.pattern, source)
                          if not any(re.search(allow, line) for allow in rule.allow)]
    if rule.limit is not None:
        found = [f"{', '.join(rule.paths)}: {len(found)} lines counted "
                 f"(limit {rule.limit})"] if len(found) > rule.limit else []
    return missing + found


def _matching(pattern: str, source: str) -> list[tuple[int, str]]:
    """The numbered lines of ``source`` that ``pattern`` matches.  No
    pattern here spans a newline, so one search of the whole file
    first skips most files."""
    if not re.search(pattern, source):
        return []
    return [(n, line) for n, line in enumerate(source.splitlines(), 1)
            if re.search(pattern, line)]


def _mentions(name: str) -> str:
    return (r"\b" if name[0] != "." else "") + re.escape(name) + r"\b"


def name_faults(rule: Rule, root: Path) -> list[str]:
    """Each owned name gone from its home, each retired name still
    somewhere under ``src/`` or ``tests/``."""
    faults = []
    for name, home in rule.owned.items():
        if not any(_matching(_mentions(name), file.read_text(encoding="utf-8"))
                   for file in _files(root, home)):
            faults.append(f"{home}: owned name {name} is gone; name what "
                          "replaced it, or retire it")
    if not rule.retired:
        return faults
    for file in [*_files(root, "src/"), *_files(root, "tests/")]:
        rel = _relative(root, file)
        source = "" if rel == TABLE else file.read_text(encoding="utf-8")
        faults += [f"{rel}:{n}: retired name {name}" for name in rule.retired
                   if name in source for n, _ in _matching(_mentions(name), source)]
    return faults


def _spot(path: str) -> str:
    """A file that ``path`` (a searched path, an exempt prefix or an
    owner's home) covers."""
    return path + "planted.py" if path.endswith("/") else path.replace("*", "planted")


def _tree(root: Path, rule: Rule, spot: str, lines: list[str]) -> Path:
    """A tree holding every path the row searches, empty, and ``lines``
    at ``spot``."""
    for path in rule.paths:
        target = root / _spot(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.touch()
    target = root / spot
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text("".join(line + "\n" for line in lines))
    return root


def _ids(rows):
    return [rule.name for rule in rows]


def _row(name: str) -> Rule:
    return next(rule for rule in ROWS if rule.name == name)


def _fail(found: list[str], message: str) -> None:
    if found:
        pytest.fail("\n".join([*found, message]), pytrace=False)


@pytest.mark.parametrize("rule", ROWS, ids=_ids(ROWS))
def test_the_tree_keeps_the_rule(rule):
    _fail(offences(rule, REPO), rule.message)


@pytest.mark.parametrize("rule", ROWS, ids=_ids(ROWS))
def test_every_guarded_name_is_owned_or_retired(rule):
    _fail(name_faults(rule, REPO), f"row {rule.name} guards a name that moved")


@pytest.mark.parametrize("rule", ROWS, ids=_ids(ROWS))
def test_the_planted_line_fails_where_searched_and_passes_where_exempt(rule, tmp_path):
    over = [rule.planted] * (1 if rule.limit is None else rule.limit + 1)
    for i, path in enumerate(rule.paths):
        tree = _tree(tmp_path / f"searched{i}", rule, _spot(path), over)
        assert offences(rule, tree), path
        if rule.limit is not None:
            tree = _tree(tmp_path / f"limit{i}", rule, _spot(path), over[1:])
            assert offences(rule, tree) == [], path
    for i, prefix in enumerate(rule.exempt):
        tree = _tree(tmp_path / f"exempt{i}", rule, _spot(prefix), over)
        assert offences(rule, tree) == [], prefix


@pytest.mark.parametrize("rule", [r for r in ROWS if r.owned or r.retired],
                         ids=_ids(r for r in ROWS if r.owned or r.retired))
def test_a_guarded_name_is_forbidden_where_searched_and_owned_at_home(rule, tmp_path):
    """A name in either group is one the row's pattern reports, and an
    owned name's home is somewhere the row allows it."""
    for name in [*rule.owned, *rule.retired]:
        use = f"obj.{name.removeprefix('.')}()"
        for i, path in enumerate(rule.paths):
            tree = _tree(tmp_path / name / f"searched{i}", rule, _spot(path), [use])
            assert offences(rule, tree), (name, path)
        if name in rule.owned:
            tree = _tree(tmp_path / name / "home", rule, _spot(rule.owned[name]), [use])
            assert offences(rule, tree) == [], name


def test_a_reserve_path_that_is_gone_fails_its_row(tmp_path):
    rule = _row("reserve-path-floor")
    tree = _tree(tmp_path, rule, "src/repro/noc/link.py", ["def reserve(links): ..."])
    assert offences(rule, tree) == ["src/repro/noc/link.py:1: no module-level def reserve_path"]


def test_tests_are_scanned_and_only_the_table_is_exempt(tmp_path):
    for name, line in (("crash-names", "system.raise_crashes()"),
                       ("exit-waiters", "vpe.waiters.append(answer)")):
        rule = _row(name)
        for spot in ("tests/m3/test_planted.py", TABLE):
            _tree(tmp_path, rule, spot, [line])
        assert offences(rule, tmp_path) == [f"tests/m3/test_planted.py:1: {line}"]


@pytest.mark.parametrize("name, row, home", [
    ("_alloc_next", "pe-allocator", "src/repro/hw/pe.py"),
    ("_reliable", "dtu-privates", "src/repro/dtu/"),
    ("_reconcile_credit", "dtu-privates", "src/repro/dtu/"),
])
def test_a_dead_name_fails_its_row_if_called_owned(name, row, home):
    """These three were renamed or deleted under their owners while the
    greps that guarded them still named them, forbidding nothing."""
    rule = _row(row)
    owned = dataclasses.replace(
        rule, owned={**rule.owned, name: home},
        retired=tuple(n for n in rule.retired if n != name))
    assert name_faults(owned, REPO) == [
        f"{home}: owned name {name} is gone; name what replaced it, or retire it"]
