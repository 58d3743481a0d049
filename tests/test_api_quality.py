"""Meta-tests on the public API surface: documentation and hygiene."""

import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import repro

PACKAGES = [
    "repro", "repro.sim", "repro.net", "repro.storage", "repro.fs",
    "repro.locking", "repro.locus", "repro.core", "repro.analysis",
    "repro.workloads",
]


def iter_public(module):
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    for name in names:
        yield name, getattr(module, name)


def test_every_package_imports_and_is_documented():
    for name in PACKAGES:
        module = importlib.import_module(name)
        assert module.__doc__, "%s lacks a module docstring" % name


def test_every_submodule_has_a_docstring():
    for pkg_name in PACKAGES[1:]:
        pkg = importlib.import_module(pkg_name)
        for info in pkgutil.iter_modules(pkg.__path__):
            sub = importlib.import_module("%s.%s" % (pkg_name, info.name))
            assert sub.__doc__, "%s.%s lacks a docstring" % (pkg_name, info.name)


def test_public_classes_and_functions_documented():
    undocumented = []
    for pkg_name in PACKAGES:
        module = importlib.import_module(pkg_name)
        for name, obj in iter_public(module):
            if inspect.isclass(obj) or inspect.isfunction(obj):
                if not inspect.getdoc(obj):
                    undocumented.append("%s.%s" % (pkg_name, name))
    assert not undocumented, undocumented


def test_public_class_methods_documented():
    undocumented = []
    for pkg_name in PACKAGES:
        module = importlib.import_module(pkg_name)
        for cls_name, obj in iter_public(module):
            if not inspect.isclass(obj):
                continue
            for meth_name, meth in vars(obj).items():
                if meth_name.startswith("_"):
                    continue
                if inspect.isfunction(meth) and not inspect.getdoc(meth):
                    undocumented.append(
                        "%s.%s.%s" % (pkg_name, cls_name, meth_name)
                    )
    assert not undocumented, undocumented


def test_all_exports_resolve():
    for pkg_name in PACKAGES:
        module = importlib.import_module(pkg_name)
        for name in getattr(module, "__all__", []):
            assert hasattr(module, name), "%s.__all__ lists missing %s" % (
                pkg_name, name,
            )


def test_version_is_exposed():
    assert repro.__version__


#: An observer test in protocol code (``obs is None``, ``span is not
#: None``, ...): each one forks the mechanism into an observed and a
#: plain path.
_OBSERVER_GUARD = re.compile(
    r"\b(obs|observ\w*|recorder|monitor|sampler|tracker|provenance|hub"
    r"|\w*span|trace_ctx)\b is (not )?None")
_MECHANISM = ("core", "net", "locus", "locking", "storage", "sim")


def test_protocol_code_rarely_asks_whether_anyone_listens():
    """``engine.obs`` is never None, so hooks are called unconditionally;
    a guard stays only where it skips observer-only work that costs more
    than a no-op hook call on a plain run."""
    src = Path(repro.__file__).parent
    guards = [
        "%s:%d: %s" % (path.relative_to(src), n, line.strip())
        for package in _MECHANISM
        for path in sorted((src / package).rglob("*.py"))
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if _OBSERVER_GUARD.search(line)
    ]
    assert len(guards) <= 15, "\n".join(guards)


def test_null_announcer_and_observability_share_every_hook():
    """Protocol code calls the same hooks whether or not anyone listens:
    a hook on only one of the two would fail a plain (or an observed)
    run with an AttributeError."""
    from repro.obs import Observability
    from repro.sim import NullAnnouncer

    def public(cls):
        return {name for name, fn in vars(cls).items()
                if inspect.isfunction(fn) and not name.startswith("_")}

    management = {"subscribe", "install", "attach_monitors",
                  "attach_timeline", "attach_slo", "attach_provenance",
                  "finish_monitors"}
    hooks = public(NullAnnouncer)
    assert public(Observability) - management == hooks
    for name in sorted(hooks):
        assert (inspect.signature(getattr(NullAnnouncer, name))
                == inspect.signature(getattr(Observability, name))), name
