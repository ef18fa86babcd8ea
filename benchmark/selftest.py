"""Self-test of the benchmark at tiny sizes (a few seconds).

    python3 benchmark/selftest.py

For every workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit and a traced run every per-layer
metric, that no operation fails, that traced and untraced cycles give
identical outputs for every operation (decode states and evaluate scores
among them), that the wrapped functions are restored afterwards, and that
the spans of lvlm's layers cover each operation's wall time. Exits 1 on
the first failure.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def expect(ok, message):
    if not ok:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def check_metrics(result, declared, what):
    got = result["metrics"]
    expect(result["correct"] and result["failed"] == 0, f"{what}: {result['failed']} failed operations")
    expect(set(got) == {m["name"] for m in declared}, f"{what}: metric names {sorted(got)}")
    for m in declared:
        expect(got[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} unit {got[m['name']]['unit']}")


def check_coverage(name, seed, workdir):
    """Share of all operations' wall time not inside a span of lvlm."""
    workload = run.set_up(run.workloads.WORKLOADS[name], seed, workdir, "tiny")
    tracer = run.spans.Tracer()
    runner = run.Runner(workload, run.Reference())
    for op in workload.cycle(0):
        runner.execute(op, tracer)
    selfs = run.spans.self_times(tracer.spans)
    ops = [s for s in tracer.spans if s.name.startswith("op.")]
    uncovered = sum(selfs[id(s)] for s in ops) / sum(s.seconds for s in ops)
    expect(uncovered < 0.05, f"{name}: {uncovered:.1%} of operation time outside lvlm's spans")
    return uncovered


def main():
    run.import_program()
    lvlm = sys.modules["lvlm"]
    bound = {"discrete": lvlm.discrete.sweep_signatures, "cli": lvlm.cli.learn_real, "io": lvlm.io.read_lattice}
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    workdir = run.ROOT / ".bench_work" / "selftest"
    try:
        for w in spec["workloads"]:
            name = w["name"]
            result, _ = run.measure(name, 7, 0, False, workdir / name, size="tiny")
            check_metrics(result, spec["end_to_end"], f"{name} untraced")
            result, info = run.measure(name, 7, 0, True, workdir / name, size="tiny")
            check_metrics(result, spec["per_layer"], f"{name} traced")
            for key in ("decode", "evaluate") if name == "cli-volume" else ("decode[0]", "evaluate[0]"):
                runs = info["outputs"][key]
                expect(len(runs) >= 2 and len(set(runs)) == 1, f"{name}: traced {key} output differs")
            uncovered = check_coverage(name, 7, workdir / name)
            print(f"selftest {name}: ok ({len(info['outputs'])} operation outputs equal traced and "
                  f"untraced; {uncovered:.2%} of operation time outside lvlm's spans)")
        expect(lvlm.discrete.sweep_signatures is bound["discrete"] and lvlm.cli.learn_real is bound["cli"]
               and lvlm.io.read_lattice is bound["io"], "wrapped functions were not restored")
    finally:
        shutil.rmtree(workdir.parent / "selftest", ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print("selftest: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
