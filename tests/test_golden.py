"""Golden digests: the experiment CSVs and seeded walk results, byte for byte.

The hex values were computed before the in-process transport stopped
round-tripping envelopes through JSON text. A change that moves a hop, a
`visited` entry, a cid or a CSV byte changes a digest; a change that
only makes the same work faster does not.
"""

import hashlib
import json
import random

from keycube.experiment import ExperimentPlan, run_experiment
from keycube.network import experiment_keywords, populate
from keycube.topology import KeywordSet, NodeId

from conftest import make_net

EXPERIMENT_CSV_SHA256 = "fea3275696ae22bc46c6b6d1f6250f8b30b2b8efc9a4e132b5e9a1e384d4e7bb"
WALKS_SHA256 = "5836cadb292779c0de6fd7e7131f33c535462bb01b69fc2a986df38bb2f91699"


def sha256_hex(*chunks: bytes) -> str:
    digest = hashlib.sha256()
    for chunk in chunks:
        digest.update(chunk)
    return digest.hexdigest()


def test_default_experiment_csvs_match_golden_digest(tmp_path):
    report = run_experiment(ExperimentPlan())
    summary, raw = tmp_path / "summary.csv", tmp_path / "raw.csv"
    report.write_summary_csv(summary)
    report.write_raw_csv(raw)
    assert sha256_hex(summary.read_bytes(), raw.read_bytes()) == EXPERIMENT_CSV_SHA256


def seeded_walks(r=8, objects=400, queries=30, seed=8):
    """(cids, hops, visited) of seeded pins and supersets at limits 1, 10 and 10**6."""
    net = make_net(r)
    populate(net, objects, seed)
    universe = experiment_keywords(r)
    rng = random.Random(seed)
    results = []
    for _ in range(queries):
        start = NodeId(r, rng.randrange(1 << r))
        keywords = KeywordSet(rng.sample(universe, rng.randint(0, 4)))
        walks = [net.pin_search(start, keywords)]
        walks += [net.superset_search(start, keywords, limit) for limit in (1, 10, 10**6)]
        results += [[list(w.cids), w.hops, [n.text for n in w.nodes_visited]] for w in walks]
    return results


def test_seeded_walks_match_golden_digest():
    text = json.dumps(seeded_walks(), separators=(",", ":"))
    assert sha256_hex(text.encode("utf-8")) == WALKS_SHA256
