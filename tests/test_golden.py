"""Golden gate: transcripts, oracle verdicts and transfer proofs stay byte-identical.

`golden_digests.json` holds one sha256 per case:

- `transcript:<name>`: the JSON transcript of each `scenarios/*.med`;
- `seed:<n>`: the JSON transcript of `make_scenario(random.Random(n))`,
  n = 0..99 (the runs of acceptance criterion 8), or the name of the
  error the run raised;
- `oracle:<name>`: the JSON of `oracle.certify` on each scenario;
- `proofs:<name>`: under full disclosure of each scenario, the first
  proof (sorted premises and conclusion) of every transfer intention
  between its participants, or its absence.

`test_output_bytes_do_not_depend_on_hash_seed` runs a part of these cases
in two processes with different `PYTHONHASHSEED`: string hashes follow the
seed and the hashes of constants and modal tags follow memory addresses,
so an output that leaned on the order of a set or dict would differ.

Regenerate the file only for an intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from mediatrix.agent import GiveAction, RealismViolation
from mediatrix.logic import DepthExceeded, prove
from mediatrix.mediator import IncoherentInput, mediate
from mediatrix.oracle import certify, full_disclosure
from mediatrix.transcript import serialize_transcript

from conftest import SCENARIOS, load_scenario
from generators import make_scenario

DIGESTS = Path(__file__).resolve().parent / "golden_digests.json"
SEEDS = range(100)


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _transcript(scenario) -> bytes:
    out = mediate(list(scenario.agents), scenario.mediator, scenario.config, scenario.name)
    return serialize_transcript(out.transcript, "json")


def _seed_transcript(seed: int) -> bytes:
    try:
        return _transcript(make_scenario(random.Random(seed)))
    except (RealismViolation, IncoherentInput) as e:
        return f"error:{type(e).__name__}".encode()


def _proofs(scenario) -> bytes:
    gamma, _ = full_disclosure(scenario)
    parties = sorted({a.id for a in scenario.agents} | {scenario.mediator.id})
    resources = sorted(
        {f.args[1].symbol for _, f in gamma.facts() if f.predicate == "have" and f.is_ground()}
    )
    lines = []
    for giver in parties:
        for receiver in parties:
            for res in resources:
                goal = GiveAction(giver, receiver, res).intention(receiver)
                try:
                    proof = prove(gamma, goal)
                except DepthExceeded:
                    lines.append(f"{goal}: depth")
                    continue
                if proof is None:
                    lines.append(f"{goal}: none")
                    continue
                lines.append(f"{goal}: {sorted(proof.premises)} {proof.conclusion}")
    return "\n".join(lines).encode()


def compute() -> dict[str, str]:
    """Every case's digest, in the order the gate reports them."""
    names = [p.stem for p in sorted(SCENARIOS.glob("*.med"))]
    out = {}
    for name in names:
        out[f"transcript:{name}"] = _sha(_transcript(load_scenario(name)))
    for seed in SEEDS:
        out[f"seed:{seed}"] = _sha(_seed_transcript(seed))
    for name in names:
        out[f"oracle:{name}"] = _sha(json.dumps(certify(load_scenario(name))).encode())
    for name in names:
        out[f"proofs:{name}"] = _sha(_proofs(load_scenario(name)))
    return out


def test_golden_digests():
    expected = json.loads(DIGESTS.read_text())
    actual = compute()
    assert list(actual) == list(expected), "the set of golden cases changed"
    for case, digest in actual.items():
        assert digest == expected[case], f"first differing case: {case}"


def outputs() -> bytes:
    """The JSON transcripts of the shipped scenarios and of three generated ones, and the oracle's verdicts."""
    names = [p.stem for p in sorted(SCENARIOS.glob("*.med"))]
    out = [_transcript(load_scenario(name)) for name in names]
    out += [_seed_transcript(seed) for seed in range(3)]
    out += [json.dumps(certify(load_scenario(name))).encode() for name in names]
    return b"\n".join(out)


def test_output_bytes_do_not_depend_on_hash_seed():
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    # constants made first shift the addresses, and so the hashes, of those the run makes
    code = (
        "import sys, test_golden; from mediatrix.lang import Constant; "
        "pad = [Constant(f'pad{i}') for i in range(int(sys.argv[1]))]; "
        "sys.stdout.buffer.write(test_golden.outputs())"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", code, pad],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": path},
            capture_output=True,
            check=True,
        ).stdout
        for seed, pad in (("1", "0"), ("2", "1"))
    ]
    assert runs[0] and runs[0] == runs[1]


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
