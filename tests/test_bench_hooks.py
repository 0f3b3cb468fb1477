"""The traced benchmark run (`bench/run.py --trace 1`) wraps vtt's layer
functions by attribute name; a rename in vtt would crash it.  This installs
its hooks on vtt's modules, drives one command through them and takes them
off again."""

import importlib.util
from pathlib import Path

import vtt
import vtt.cli
import vtt.fixtures

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_hooks_install_and_restore(capsys):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    before = {name: vars(getattr(vtt, name)).copy()
              for name in ("cli", "counting", "enumeration", "graphs", "perm", "fixtures")}
    json_lines = vtt.enumeration.ClassReport.json_lines
    tracing.install(tracer, vtt)
    try:
        assert vtt.cli.is_prime is not before["cli"]["is_prime"]
        assert vtt.cli.main(["classes", "13", "--members"]) == 0
    finally:
        tracer.restore()
    assert capsys.readouterr().out.count("\n") == 6
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "enumeration.equivalence_classes", "enumeration.json_lines"} <= names
    for name, attrs in before.items():
        assert vars(getattr(vtt, name)) == attrs
    assert vtt.enumeration.ClassReport.json_lines is json_lines
    assert set(tracing.layer_metrics(tracer, 1)) >= {
        "cli.self_s", "groups.is_prime_calls", "perm.aut_elements", "enumeration.bytes_per_mask"}
