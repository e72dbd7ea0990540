"""The benchmark's call tracer must find every name it patches.

``bench/tracing.py`` replaces noclink functions and methods under the
names their callers look up.  A refactor that drops or renames one of
them breaks the traced benchmark run; this test makes it fail here too.
"""
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    sys.modules.pop("tracing", None)
    import tracing

    yield tracing
    sys.modules.pop("tracing", None)


def public_attrs():
    from noclink import cli, codecs, config, reporting, simnet, sweeps, traffic

    owners = [cli, codecs, config, reporting, simnet, sweeps, traffic,
              codecs.NoneCodec, codecs.GrayCodec, codecs.InvertCodec,
              codecs.CorrelatorCodec, simnet.Network, simnet.Router, simnet.Link,
              simnet.SourceNI, simnet.SinkNI, simnet.PE, reporting.LinkObserver]
    return {(owner, name): value
            for owner in owners for name, value in vars(owner).items()}


def restore(before):
    """Put back every attribute that differs from ``before``, so a failed
    patch does not leave timing wrappers in place for later tests."""
    for (owner, name), value in before.items():
        if vars(owner).get(name) is not value:
            setattr(owner, name, value)


def test_installed_patches_and_restores(tracing):
    before = public_attrs()
    try:
        with tracing.installed(tracing.Tracer()):
            during = public_attrs()
        after = public_attrs()
    finally:
        restore(before)
    patched = [key for key, value in before.items() if during.get(key) is not value]
    assert {name for _, name in patched} >= {
        "link_switching", "link_energy_report", "compute_bit_stats",
        "compute_sequential_switching", "link_stats_from_result", "multiplex_streams",
    }
    from noclink import cli, reporting, simnet, sweeps

    assert set(patched) >= {
        (simnet.Network, "run"), (simnet.Router, "tick"), (simnet.Link, "deliver"),
        (simnet.Link, "observe"), (reporting.LinkObserver, "record"),
        (simnet.SourceNI, "tick"), (simnet.SinkNI, "tick"), (simnet.PE, "tick")}
    assert set(patched) >= {(cli, name) for name in (
        "main", "cmd_simulate", "cmd_analyze", "cmd_oracle", "parse_config",
        "build_simulation", "emit_reports", "write_link_protocol",
        "replay_link_protocol", "exact_energy")}
    assert set(patched) >= {(sweeps, name) for name in (
        "exact_energy", "exact_switching", "link_stats_from_result",
        "link_energy_report", "link_switching", "multiplex_streams", "generate_stream",
        "compute_bit_stats", "compute_sequential_switching", "mux_accuracy_sweep",
        "coding_sweep")}
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
