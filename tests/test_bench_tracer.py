"""The benchmark's span recorder (``bench/child.py``) against the package it
traces: every name it wraps must resolve, and a traced run must reach the
sampling layers it declares."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

from hvectors import cli, inverse_systems

CHILD = Path(__file__).resolve().parents[1] / "bench" / "child.py"
# The inverse_systems attributes `Tracer.install` replaces; cli gets one too.
TRACED = ("sample_scalars", "rank", "contraction_matrix", "contraction_power",
          "linear_combination", "codim5_generators", "verify_construction")


def _load_child():
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_verify_spans_the_witness_arithmetic(monkeypatch,
                                                    capsys) -> None:
    """One trial of thm-r d=10 builds its witnesses once: one span each of
    `contraction_power` and `linear_combination`.  The attributes are set
    to themselves first, so that teardown undoes the tracer's wrappers."""
    child = _load_child()
    for attr in TRACED:
        monkeypatch.setattr(inverse_systems, attr,
                            getattr(inverse_systems, attr))
    monkeypatch.setattr(cli, "verify_construction",
                        inverse_systems.verify_construction, raising=False)
    before = dict(vars(inverse_systems))
    tracer = child.Tracer()
    main = tracer.install()
    assert {name for name, value in vars(inverse_systems).items()
            if before.get(name) is not value} <= set(TRACED)
    code = main(["verify", "thm-r", "--d", "10", "--parity", "odd",
                 "--field", "1000003", "--trials", "1", "--format", "json"])
    assert code == 0
    [report] = json.loads(capsys.readouterr().out)["reports"]
    assert report["verdict"] == "match"
    summary = tracer.summary()
    for name in ("codim5_generators", "contraction_power",
                 "linear_combination"):
        assert summary["inverse_systems." + name]["calls"] == 1
