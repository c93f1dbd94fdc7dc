#!/usr/bin/env python3
"""Cost of each stage of a cold proof document, and the decodes it makes.

For every proof fixture under fixtures/proofs and for the benchmark's k = 16
wide tree written as a chain document (`wide_tree` in
perfbench/workloads.py, seed 0), this times the stages that the benchmark's
document job runs, each on its own: `parse_proof_document`, `validate_chain`
(at the document's own height), `measure_length`, the kernel check of every
machine leaf (`ToyVerifier.verdict`), `serialize_proof_document`, and the
drop of the decoded values (deleting the last reference to them, which
frees every formula, statement and proof record and its memoized text). A
decode is cold: nothing decoded from the document is alive when it starts.

Each repeat runs in a fresh interpreter, which decodes each document
`RUNS` times, dropping it after each, and keeps the fastest time of each
stage: interference from other work only adds time. A point keeps, per
document, the median over the repeats of each stage in µs and of their sum,
and the decodes of one more cold parse, counted after the timed runs: the
statements decoded (each `read_object` of a statement) and the formula
nodes decoded (each call of the formula decoder, one per node).

    python3 scripts/doc_cost.py --label NAME | --checkout ../parent [--label NAME]

times this checkout, or ../parent and this one alternately, and writes the
points into BENCH_documents.json (`--out`) as scripts/checkouts.py says.
Each `after` point also counts, per stage, the pairs in which this checkout
was faster. Only the standard library is used; sprig is imported only in
the children.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

from checkouts import interleave, parse_sides, write_sections

# Fresh interpreters per checkout, and cold decodes per interpreter.
REPEATS = 20
RUNS = 10
WIDE_K = 16
SEED = 0
STAGES = ("parse", "validate", "measure", "kernel", "serialize", "drop")
COUNTS = ("statements", "formula_nodes")

# One repeat: run in a fresh interpreter with the checkout's src/ and
# perfbench/ on the path; prints one JSON line, by document name.
CHILD = """
import gc, json, sys, time
from pathlib import Path
from sprig import formulas
from sprig.formulas import Statement
from sprig.proofs import (MachineProof, ProofChain, measure_length, parse_proof_document,
                          serialize_proof_document, validate_chain)
from sprig.verifier import ToyVerifier
from workloads import wide_tree

k, seed, runs = int(sys.argv[1]), int(sys.argv[2]), int(sys.argv[3])
docs = {p.stem: p.read_bytes().rstrip(b"\\n")
        for p in sorted(Path("fixtures/proofs").glob("*.json"))}
docs[f"wide{k}"] = serialize_proof_document(wide_tree(k, seed))
gc.collect()

def leaves(chain):
    for step in chain.steps:
        if isinstance(step.subproof, ProofChain):
            yield from leaves(step.subproof)
        elif isinstance(step.subproof, MachineProof):
            yield step.statement, step.subproof

def stages(data):
    clock = time.perf_counter
    t0 = clock()
    doc = parse_proof_document(data)
    t1 = clock()
    if isinstance(doc, ProofChain):
        validate_chain(doc.target, doc, level_limit=doc.height())
    t2 = clock()
    if not isinstance(doc, Statement):
        measure_length(doc)
    t3 = clock()
    if isinstance(doc, ProofChain):
        proved = list(leaves(doc))
    else:
        proved = [] if isinstance(doc, Statement) else [(doc.target, doc)]
    kernel, statement, proof = ToyVerifier(), None, None
    for statement, proof in proved:
        kernel.verdict(statement, proof)
    t4 = clock()
    if serialize_proof_document(doc) != data:
        raise AssertionError("a document does not round-trip")
    t5 = clock()
    del doc, proved, statement, proof
    t6 = clock()
    del kernel
    return dict(zip(("parse", "validate", "measure", "kernel", "serialize", "drop"),
                    (t1 - t0, t2 - t1, t3 - t2, t4 - t3, t5 - t4, t6 - t5)))

out = {}
for name, data in docs.items():
    best = {}
    for run in range(runs):
        gc.collect()
        for stage, seconds in stages(data).items():
            best[stage] = min(best.get(stage, seconds), seconds)
    out[name] = best

decoded, formula_nodes = [0], [0]
read_object, formula_from_json = formulas.read_object, formulas._formula_from_json
def counted_read_object(value, name, *args, **kwargs):
    if name == "statement":
        decoded[0] += 1
    return read_object(value, name, *args, **kwargs)
def counted_formula(*args, **kwargs):
    formula_nodes[0] += 1
    return formula_from_json(*args, **kwargs)
formulas.read_object, formulas._formula_from_json = counted_read_object, counted_formula
for name, data in docs.items():
    gc.collect()
    decoded[0] = formula_nodes[0] = 0
    doc = parse_proof_document(data)
    out[name].update(statements=decoded[0], formula_nodes=formula_nodes[0])
    del doc
print(json.dumps(out))
"""


def run_once(checkout: Path) -> dict[str, dict[str, float | int]]:
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(checkout / "src"), str(checkout / "perfbench")])}
    out = subprocess.run(
        [sys.executable, "-c", CHILD, str(WIDE_K), str(SEED), str(RUNS)],
        cwd=checkout, env=env, capture_output=True, text=True, check=True,
    ).stdout
    return json.loads(out)


def summarize(runs: list[dict[str, dict[str, float | int]]]) -> list[dict[str, float | int | str]]:
    points: list[dict[str, float | int | str]] = []
    for name in runs[0]:
        if len({tuple(r[name][count] for count in COUNTS) for r in runs}) != 1:
            raise AssertionError(f"{name}: repeats disagree on the decodes")
        point: dict[str, float | int | str] = {"doc": name}
        for stage in STAGES:
            point[f"{stage}_us"] = round(statistics.median(r[name][stage] for r in runs) * 1e6, 1)
        point["total_us"] = round(
            statistics.median(sum(r[name][stage] for stage in STAGES) for r in runs) * 1e6, 1)
        point.update({count: runs[0][name][count] for count in COUNTS})
        points.append(point)
    return points


def main() -> int:
    args, sides = parse_sides(__doc__.splitlines()[0], "BENCH_documents.json")
    runs = interleave(sides, REPEATS, run_once)
    points = {label: summarize(runs[label]) for label in sides}
    if args.checkout:
        first, second = sides
        for after in points[second]:
            name = after["doc"]
            for stage in (*STAGES, "total"):
                def seconds(run: dict[str, dict[str, float | int]]) -> float:
                    doc = run[name]
                    return sum(doc[s] for s in STAGES) if stage == "total" else doc[stage]
                after[f"{stage}_pairs_won"] = sum(
                    seconds(a) < seconds(b) for a, b in zip(runs[second], runs[first]))
    for label in sides:
        for point in points[label]:
            print(label, json.dumps(point), file=sys.stderr)
    write_sections(args.out, points, repeats=REPEATS, runs=RUNS, k=WIDE_K, seed=SEED)
    return 0


if __name__ == "__main__":
    sys.exit(main())
