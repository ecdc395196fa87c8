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

Regenerate the file only for an intended change of output:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import hashlib
import json
import random
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
        try:
            data = _transcript(make_scenario(random.Random(seed)))
        except (RealismViolation, IncoherentInput) as e:
            data = f"error:{type(e).__name__}".encode()
        out[f"seed:{seed}"] = _sha(data)
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


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(compute(), indent=1) + "\n")
    print(f"wrote {DIGESTS}")
