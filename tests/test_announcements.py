"""Every announcement matches the declared table, read off the source.

``repro.sim.kinds`` declares each event kind's and each span name's
fields; protocol code passes them by position.  Three rules, checked
with ``ast`` so a mistake fails here rather than in an observed run:

* every ``obs.event`` / ``obs.span`` / ``obs.end`` call names a
  declared kind or span and passes its declared number of fields;
* every subscriber handler reads (``ev.get``) only fields that every
  kind it is subscribed to declares;
* every declared kind and span name is announced somewhere.
"""

import ast
import functools
from pathlib import Path

import repro
from repro.sim.kinds import EVENT_INDEX, EVENTS, SPAN_END, SPANS

SRC = Path(repro.__file__).parent
HOOKS = ("event", "span", "end")
#: Packages whose calls may forward a span name to the hook (the
#: kernel's per-syscall ``_spanned``): the arguments after the name are
#: the span's opened fields.
MECHANISM = ("core", "fs", "locking", "locus", "net", "sim", "storage",
             "workloads")


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path.relative_to(SRC).as_posix(), ast.parse(path.read_text())


def _hook_calls(tree):
    """(hook name, call) for each ``<...>obs.<hook>(...)`` call."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in HOOKS
                and ast.unparse(node.func.value).split(".")[-1] == "obs"):
            yield node.func.attr, node


def _literal(node):
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


@functools.cache
def _announcements():
    """{module: {hook: [(call, name), ...], "forward": [(call, name,
    position of the name), ...]}} over every module under ``SRC``."""
    found = {}
    for module, tree in _modules():
        calls = found.setdefault(module, {h: [] for h in HOOKS + ("forward",)})
        hooks = set()
        for hook, call in _hook_calls(tree):
            hooks.add(id(call))
            name = _literal(call.args[0]) if call.args else None
            calls[hook].append((call, name))
        if module.split("/")[0] not in MECHANISM:
            continue
        for call in ast.walk(tree):
            # Not a hook: ``observe`` names a metric, which may share a
            # span's name.
            if (not isinstance(call, ast.Call) or id(call) in hooks
                    or ast.unparse(call.func).split(".")[-2:-1] == ["obs"]):
                continue
            for i, arg in enumerate(call.args):
                if _literal(arg) in SPANS:
                    calls["forward"].append((call, _literal(arg), i))
    return found


def _where(module, call):
    return "%s:%d: %s" % (module, call.lineno, ast.unparse(call))


def test_every_event_names_a_declared_kind_with_its_fields():
    bad = []
    for module, calls in _announcements().items():
        for call, kind in calls["event"]:
            if (kind not in EVENTS or call.keywords
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or len(call.args) != 2 + len(EVENTS[kind])):
                bad.append(_where(module, call))
    assert bad == []


def test_every_span_opens_a_declared_name_with_its_opened_fields():
    bad = []
    for module, calls in _announcements().items():
        for call, name in calls["span"]:
            starred = [a for a in call.args if isinstance(a, ast.Starred)]
            if name is None:
                # A forwarder hands on the name and the values it got.
                if not (isinstance(call.args[0], ast.Name) and starred):
                    bad.append(_where(module, call))
                continue
            opened = len(SPANS.get(name, ())) - SPAN_END.get(name, 0)
            if (name not in SPANS or starred
                    or {k.arg for k in call.keywords} - {"parent", "root"}
                    or len(call.args) != 2 + opened):
                bad.append(_where(module, call))
        for call, name, i in calls["forward"]:
            opened = len(SPANS[name]) - SPAN_END.get(name, 0)
            if len(call.args) - i - 1 != opened or call.keywords:
                bad.append(_where(module, call))
    assert bad == []


def test_every_end_supplies_the_fields_only_end_supplies():
    """``end(span, status, *fields)``: fields only for a span declared
    to take them at its end, opened in the same module."""
    bad = []
    for module, calls in _announcements().items():
        opened = {name for _call, name in calls["span"]}
        opened |= {name for _call, name, _i in calls["forward"]}
        takes = {SPAN_END.get(name, 0) for name in opened}
        for call, _span in calls["end"]:
            extra = len(call.args) - 2
            if (call.keywords
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (extra > 0 and extra not in takes)):
                bad.append(_where(module, call))
    assert bad == []


def test_every_declared_kind_and_span_is_announced():
    events, spans = set(), set()
    for calls in _announcements().values():
        events |= {kind for _call, kind in calls["event"]}
        spans |= {name for _call, name in calls["span"]}
        spans |= {name for _call, name, _i in calls["forward"]}
    assert sorted(set(EVENTS) - events) == []
    assert sorted(set(SPANS) - spans) == []


# ----------------------------------------------------------------------
# subscribers
# ----------------------------------------------------------------------

def _subscriptions(cls):
    """(kind, handler node) pairs a subscriber class declares: its
    ``handlers = {kind: "method"}`` table and the ``(kind,
    self.method)`` / ``(kind, lambda ev: ...)`` pairs its
    ``subscriptions()`` builds."""
    methods = {fn.name: fn for fn in cls.body
               if isinstance(fn, ast.FunctionDef)}
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign)
                and [ast.unparse(t) for t in stmt.targets] == ["handlers"]):
            for key, value in zip(stmt.value.keys, stmt.value.values):
                yield key.value, methods[value.value]
    subscriptions = methods.get("subscriptions")
    if subscriptions is None:
        return
    for node in ast.walk(subscriptions):
        if (isinstance(node, ast.Tuple) and len(node.elts) == 2
                and _literal(node.elts[0]) is not None):
            handler = node.elts[1]
            if isinstance(handler, ast.Lambda):
                yield node.elts[0].value, handler
            elif (isinstance(handler, ast.Attribute)
                    and ast.unparse(handler.value) == "self"):
                yield node.elts[0].value, methods[handler.attr]


def _reads(fn, functions, seen=()):
    """Field names ``fn`` reads off its event argument with ``.get``,
    following the module-level helpers and methods (``functions``) it
    hands the event to."""
    params = [a.arg for a in fn.args.args if a.arg != "self"]
    if not params:
        return set()
    ev = params[0]
    names = set()
    for node in ast.walk(fn):
        if not isinstance(node, ast.Call):
            continue
        if (isinstance(node.func, ast.Attribute) and node.func.attr == "get"
                and ast.unparse(node.func.value) == ev and node.args):
            names.add(_literal(node.args[0]))
        else:
            callee = ast.unparse(node.func).removeprefix("self.")
            if (callee in functions and callee not in seen
                    and [ast.unparse(a) for a in node.args[:1]] == [ev]):
                names |= _reads(functions[callee], functions,
                                seen + (callee,))
    return names


def test_every_subscriber_reads_only_declared_fields():
    trees = {module: tree for module, tree in _modules()
             if module.startswith("obs/")}
    functions = {fn.name: fn for tree in trees.values() for fn in tree.body
                 if isinstance(fn, ast.FunctionDef)}
    bad, handlers = [], 0
    for module, tree in trees.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {fn.name: fn for fn in cls.body
                       if isinstance(fn, ast.FunctionDef)}
            for kind, handler in _subscriptions(cls):
                handlers += 1
                if kind not in EVENTS:
                    bad.append("%s: %s subscribes to undeclared %r"
                               % (module, cls.name, kind))
                    continue
                reads = _reads(handler, {**functions, **methods})
                for name in sorted(reads - set(EVENT_INDEX[kind]), key=str):
                    bad.append("%s:%d: %s reads %r, not a field of %r"
                               % (module, handler.lineno, cls.name, name,
                                  kind))
    assert bad == []
    # Monitors, timeline, SLO tracker, provenance hub, deadlock view.
    assert handlers >= 40


def test_the_event_stream_docs_list_every_declared_kind():
    """docs/OBSERVABILITY.md, "Event stream": one table row per declared
    kind, its fields in announced order."""
    doc = (Path(__file__).parents[1] / "docs" / "OBSERVABILITY.md").read_text()
    section = doc.split("## Event stream", 1)[1].split("\n## ", 1)[0]
    rows = {}
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 4 and cells[0].startswith("`"):
            fields = () if cells[1] == "—" else tuple(
                f.strip().strip("`") for f in cells[1].split(","))
            rows[cells[0].strip("`")] = fields
    assert rows == EVENTS
