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
    function from a file's source to its offending ``(line, text)``
    pairs, for what a line regex cannot state, or ``None``, which counts
    every line (``wc -l``).  With a ``limit``, the row fails only when
    more lines than that offend.

    ``owned`` maps each forbidden name its owner still uses to where it
    must occur; ``retired`` names belong to a deleted design and may
    occur nowhere under ``src/`` or ``tests/``.  ``planted`` is a line
    the row must report.
    """

    name: str
    pattern: str | Callable[[str], list[tuple[int, str]]] | None
    paths: tuple[str, ...]
    message: str
    planted: str
    exempt: tuple[str, ...] = ()
    allow: tuple[str, ...] = ()
    limit: int | None = None
    owned: Mapping[str, str] = dataclasses.field(default_factory=dict)
    retired: tuple[str, ...] = ()


def _floor_parameters(source: str) -> list[tuple[int, str]]:
    """The module-level ``def reserve_path``'s parameters named ``floor``
    (and the def's absence, which would empty the rule)."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name == "reserve_path":
            a = node.args
            params = [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]
            return [(p.lineno, f"reserve_path({p.arg})") for p in params
                    if p is not None and p.arg == "floor"]
    return [(1, "no module-level def reserve_path")]


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
        "links_sampled_to",
        ("src/",), exempt=("src/repro/obs/",),
        message="links_sampled_to is the observer's own mark: it folds ended "
                "epochs before a packet reserves",
        planted="floor = sim.obs.links_sampled_to",
        owned={"links_sampled_to": "src/repro/obs/"},
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
            r'"(dtu\.sends\.|traffic\.(sent|completions)"|autoscale\.scale_(ups|downs)"|kernel\.(recoveries|checkpoints|ctx_switches)")',
            r'\}\.(ik_(requests|timeouts|duplicates|served)|heartbeats|heartbeat_misses|peer_deaths|syscalls)"',
        ),
        message="sample the component's own total with Observer.monitor "
                "instead of pushing a copy",
        planted='sim.obs.count("dtu.retries")',
    ),
    Rule(
        "obs-none-sites",
        r"obs(erver)? is (not )?None",
        ("src/",), exempt=("src/repro/obs/",), limit=61,
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
        r"context_switches|_counter_events)\b",
        ("src/", "tests/"),
        message="this read had no reader outside its own tests and was "
                "deleted: give a new one a production reader, or compute it "
                "in the test from public state",
        planted="hole = kernel.memory.largest_hole",
        retired=("largest_hole", "free_bytes", "windows_retained",
                 "serialization_cycles", "spm_code", "SPM_CODE_BYTES",
                 "spm_bytes", "frames_carried", "frames_received",
                 "interrupts_sent", "compute_op", "sessions_opened",
                 "sessions_closed", "context_switches", "_counter_events"),
    ),
    Rule(
        "obs-ledger-lines",
        None,
        ("src/repro/obs/*.py", "src/repro/sim/ledger.py"), limit=1789,
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
                found += [f"{rel}:{n}: {text}" for n, text in rule.pattern(source)]
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
