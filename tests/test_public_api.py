"""The README/docstring tour and the public package surface."""

import ast
from pathlib import Path

import repro


def test_public_api_tour():
    """The 10-line quickstart from ``repro.__doc__`` and README.md."""
    from repro import (
        CouplingFault,
        NoiseParameters,
        SingleFaultProtocol,
        TestExecutor,
        VirtualIonTrap,
    )

    machine = VirtualIonTrap(8, noise=NoiseParameters.paper_scaling(), seed=1)
    machine.inject_fault(CouplingFault(frozenset({2, 6}), under_rotation=0.4))
    executor = TestExecutor(machine, shots=300)
    diagnosis = SingleFaultProtocol(8).diagnose(executor)
    assert diagnosis.identified == frozenset({2, 6})


def test_all_exports_resolve():
    """Every name in ``repro.__all__`` is importable."""
    for name in repro.__all__:
        assert getattr(repro, name, None) is not None, name


def test_tour_docstring_matches_reality():
    """The docstring tour references names the package actually exports."""
    doc = repro.__doc__
    for name in ("VirtualIonTrap", "CouplingFault", "SingleFaultProtocol",
                 "TestExecutor", "NoiseParameters"):
        assert name in doc
        assert name in repro.__all__


def test_executor_shot_batch_threading():
    """The shot-batching hint reaches the backend's realization split."""
    from repro import NoiseParameters, TestExecutor, VirtualIonTrap
    from repro.core.tests_builder import TestSpec

    machine = VirtualIonTrap(
        4, noise=NoiseParameters.paper_scaling(), seed=0
    )
    spec = TestSpec(
        name="t", pairs=(frozenset({0, 1}),), repetitions=2, kind="class"
    )
    result = TestExecutor(machine, shots=50, shot_batch=2).execute(spec)
    assert 0.0 <= result.fidelity <= 1.0
    # A shot_batch larger than the machine default also works.
    result = TestExecutor(machine, shots=50, shot_batch=25).execute(spec)
    assert 0.0 <= result.fidelity <= 1.0


def _module_name(path, src):
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _imported_modules(name, is_package, tree, known):
    """Every ``repro`` module that the source of ``name`` imports.

    Imports inside functions count, as do ``from pkg import submodule``
    forms.  Importing ``a.b.c`` also imports the packages ``a.b``
    and ``a``.
    """
    package = name if is_package else name.rpartition(".")[0]
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                base = package.split(".")
                base = base[: len(base) - node.level + 1]
                if node.module:
                    base.append(node.module)
                base = ".".join(base)
            else:
                base = node.module or ""
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        for target in targets:
            while target:
                if target in known:
                    found.add(target)
                target = target.rpartition(".")[0]
    return found


def test_every_module_is_reachable():
    """The static import graph from the front doors reaches every module.

    Walks ``import`` statements from ``repro`` and ``repro.__main__``; a
    module that no walk reaches is code that nothing can run.
    """
    src = Path(repro.__file__).resolve().parent.parent
    files = {}
    for path in sorted((src / "repro").rglob("*.py")):
        files[_module_name(path, src)] = path
    graph = {
        name: _imported_modules(
            name, path.name == "__init__.py", ast.parse(path.read_text()), files
        )
        for name, path in files.items()
    }
    reached = set()
    frontier = ["repro", "repro.__main__"]
    while frontier:
        name = frontier.pop()
        if name in reached:
            continue
        reached.add(name)
        frontier.extend(graph[name] - reached)
    assert sorted(set(files) - reached) == []
