"""Self-tests of the benchmark: python3 -m pytest perfbench

They cover the benchmark's own machinery (input generation, the tracer,
the metric catalogue), not sprig itself.
"""

import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import measure  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from sprig.proofs import validate_chain  # noqa: E402
from sprig.protocol import advance_clock, replay, settle  # noqa: E402
from sprig.simulator import run_scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _wide_run(k, seed):
    config = workloads.wide_config(k, seed)
    trace = run_scenario(config)
    twin = replay(trace.move_lines, config.cascade, balances=trace.initial_balances)
    advance_clock(twin, trace.final_clock)
    settle(twin)
    return config, trace, twin


def test_k16_has_545_nodes_and_545_moves_and_the_recorded_log():
    _, trace, twin = _wide_run(16, 0)
    assert len(trace.instance.nodes) == len(trace.move_lines) == 545 == workloads.wide_nodes(16)
    assert twin.snapshot() == trace.final_snapshot
    digest = workloads.sha256("\n".join(trace.move_lines))
    assert digest == workloads.recorded()["wide"]["16"]["0"]


def test_a_second_seed_gives_a_different_valid_debate():
    runs = [_wide_run(8, seed) for seed in (0, 1)]
    logs = set()
    for config, trace, twin in runs:
        tree = config.root_tree
        assert validate_chain(tree.target, tree, level_limit=2).ok
        assert len(trace.move_lines) == workloads.wide_nodes(8)
        assert not trace.rejections
        assert {n.status for n in trace.instance.nodes.values()} == {"validated", "answered"}
        assert twin.snapshot() == trace.final_snapshot
        logs.add("\n".join(trace.move_lines))
    assert len(logs) == 2


def _bindings():
    """Every attribute of every sprig module, of the benchmark's modules,
    and of every class the tracer patches."""
    owners = [m for name, m in sys.modules.items() if name == "sprig" or name.startswith("sprig.")]
    owners += [workloads, measure]
    owners += [owner for _, owner, _, _ in tracing.targets() if isinstance(owner, type)]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_wraps_every_binding_site_and_restores_every_original():
    before = _bindings()
    tracer = tracing.Tracer()
    tracer.install(workloads, measure)
    try:
        import sprig.protocol
        import sprig.simulator

        assert sprig.protocol.content_hash is not before[(id(sprig.protocol), "content_hash")]
        assert sprig.simulator.replay is sprig.protocol.replay
        assert workloads.replay is sprig.protocol.replay
        assert hasattr(sprig.protocol.ProtocolInstance.resolve, "__wrapped__")
        workloads.run_scenario(workloads.wide_config(2, 0))
    finally:
        tracer.uninstall()
    after = _bindings()
    changed = [key for key in before if before[key] is not after.get(key)]
    assert not changed
    names = {tracer.names[s[0]] for s in tracer.spans}
    assert {"run_scenario", "ProtocolInstance.resolve", "content_hash", "validate_chain"} <= names


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    tracer.names, tracer.layers = ["outer", "inner"], ["a", "b"]
    tracer.spans = [[0, 0.0, 10.0, -1, 1, None], [1, 2.0, 5.0, 0, 1, None],
                    [1, 6.0, 7.0, 0, 1, None]]
    view = tracing.Spans(tracer)
    assert view.self_time({"outer"}) == 6.0
    assert view.total({"inner"}) == 4.0
    assert view.layer_self_time({"outer"}) == 6.0


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct, n = measure.tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert sum(v > value for v in range(100)) == 10
    blocks = [float(i) for i in range(20)] * 2 + [float(i) + 100 for i in range(20)]
    assert measure.tail(blocks, block=20) == (9.0, 50.0, 60)


def _names(section):
    return [m["name"] for m in BENCHMARK[section]]


def test_metric_names_and_units_are_well_formed_and_match_the_benchmark():
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    unit = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
    for section in ("end_to_end", "per_layer"):
        for metric in BENCHMARK[section]:
            assert pattern.fullmatch(metric["name"]), metric
            assert unit.fullmatch(metric["unit"]), metric
    assert len(set(_names("end_to_end") + _names("per_layer"))) == (
        len(BENCHMARK["end_to_end"]) + len(BENCHMARK["per_layer"]))

    tally = workloads.Tally()
    tally.calibrate()
    for name in ("setup_s", "wide.sim_s", "wide.replay_s", "wide.move_s", "small.debate_s",
                 "small.doc_s", "cli.light_s", "cli.mc_s", "cli.light_rss_mb", "cli.mc_rss_mb"):
        tally.add(name, 1.0)
    e2e = measure.end_to_end(tally, 8)
    assert list(e2e) == _names("end_to_end")
    units = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {name: m["unit"] for name, m in e2e.items()} == units

    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    layers = measure.per_layer(tracing.Spans(tracer), tally, set(), 0.0, (0.0, 0.0), 0.0, 0)
    assert list(layers) == _names("per_layer")
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {name: m["unit"] for name, m in layers.items()} == units
