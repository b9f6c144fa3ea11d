"""A stateful model of the DHT, run on an in-process and a wire network in lockstep.

The model is written here from the paper's rules, not from the program:
- a keyword set is stored at the node whose bits are its words' positions;
- a routed op fixes one differing bit per hop, lowest first, so it costs the
  Hamming distance from its start to its target;
- a pin returns exactly the cids stored under its keyword set;
- a superset search routes to the node of its words, then walks the spanning
  tree of the bit-superset region depth-first, children lowest bit first,
  taking each node's matching entries in keyword-set order and cids in byte
  order, and stops once it holds `limit` distinct cids.

After every step both networks give the model's replies, and every node's
table holds what the model holds. After each write, a pin of the set written
and every one-word walk at every limit are checked in process too.
"""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from keycube.network import TRANSPORT_WIRE, NetworkConfig, build_network
from keycube.topology import NodeId, TableHash

from test_network import free_port_block

R = 3
# Five words on three positions: "a" and "b" collide, as do "d" and "e", so
# distinct keyword sets share a node and a walk meets several entries at once.
POSITIONS = {"a": 0, "b": 0, "c": 1, "d": 2, "e": 2}

keysets = st.sets(st.sampled_from(sorted(POSITIONS)), min_size=1, max_size=R).map(
    lambda words: tuple(sorted(words)))
cids = st.sampled_from(["c0", "c1", "c2"])  # few cids, so one is stored under several sets
nodes = st.integers(0, (1 << R) - 1)


def owner(words) -> int:
    value = 0
    for word in words:
        value |= 1 << POSITIONS[word]
    return value


def text(value: int) -> str:
    return "".join(str(value >> i & 1) for i in range(R))


def route(start: int, target: int) -> list[int]:
    """The greedy path from start to target, both included: one bit fixed per hop."""
    path = [start]
    while path[-1] != target:
        diff = path[-1] ^ target
        path.append(path[-1] ^ (diff & -diff))
    assert len(path) - 1 == bin(start ^ target).count("1")  # the Hamming distance
    return path


def children(value: int, query: int) -> list[int]:
    """Tree children in the superset region of `query`: each sets one more free bit,
    below the lowest free bit already set (any free bit if none is), lowest first."""
    free = value & ~query
    below = free & -free or 1 << R
    return [value | 1 << i for i in range(R) if 1 << i < below and not value >> i & 1]


class DhtMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        hash_fn = TableHash(POSITIONS)
        self.nets = [build_network(NetworkConfig(r=R, hash_fn=hash_fn))]
        self.nets.append(build_network(NetworkConfig(
            r=R, transport=TRANSPORT_WIRE, base_port=free_port_block(1 << R), hash_fn=hash_fn)))
        self.stored: dict[tuple[str, ...], set[str]] = {}

    def teardown(self):
        for net in self.nets:
            net.close()

    def agree(self, want, act, nets=None):
        for net in self.nets if nets is None else nets:
            got = act(net)
            if type(got) is not dict:  # a QueryResult
                got = (got.cids, got.hops, [node.text for node in got.nodes_visited])
            assert got == want

    # -- the model's replies ---------------------------------------------------

    def walk(self, query: tuple[str, ...], limit: int) -> tuple[list[str], list[int]]:
        """Walk the region of `query` depth-first from its root: the cids found and
        the nodes visited."""
        root, collected, visited = owner(query), [], []

        def visit(value):
            visited.append(value)
            for words in sorted(k for k in self.stored if owner(k) == value
                                and set(query) <= set(k)):
                for cid in sorted(self.stored[words]):
                    if len(collected) < limit and cid not in collected:
                        collected.append(cid)
            for child in children(value, root):
                if len(collected) >= limit:
                    return
                visit(child)

        visit(root)
        return collected, visited

    def superset_reply(self, words, start, limit):
        """The route to the root of `words`, then the walk from it."""
        path = route(start, owner(words))
        found, walked = self.walk(words, limit)
        path += walked[1:]  # the root ends the route and starts the walk
        return tuple(found), len(path) - 1, list(map(text, path))

    def pin_reply(self, words, start):
        path = route(start, owner(words))
        return tuple(sorted(self.stored.get(words, ()))), len(path) - 1, list(map(text, path))

    def written(self, words):
        """After a write, in process only, where a query is cheap: a pin of the
        keyword set written, and every one-word walk at every limit. A wrong
        quota rule shows in a large region and at one limit only, and a wrong
        pin under a set holding several cids, which drawn queries seldom hit."""
        start, in_process = owner(words), self.nets[:1]
        self.agree(self.pin_reply(words, start),
                   lambda net: net.pin_search(NodeId(R, start), words), in_process)
        for word in POSITIONS:
            start = owner([word])
            for limit in range(1, 6):
                self.agree(self.superset_reply((word,), start, limit),
                           lambda net: net.superset_search(NodeId(R, start), [word], limit),
                           in_process)

    # -- rules -------------------------------------------------------------------

    @rule(cid=cids, words=keysets, start=nodes)
    def insert(self, cid, words, start):
        self.stored.setdefault(words, set()).add(cid)
        self.agree({"status": "stored", "node": text(owner(words))},
                   lambda net: net.insert(cid, words, start=NodeId(R, start)))
        self.written(words)

    @rule(cid=cids, words=keysets, start=nodes)
    def remove(self, cid, words, start):
        held = self.stored.get(words, set())
        status = "removed" if cid in held else "not_found"
        held.discard(cid)
        if not held:
            self.stored.pop(words, None)
        self.agree({"status": status, "node": text(owner(words))},
                   lambda net: net.remove(cid, words, start=NodeId(R, start)))
        self.written(words)

    @rule(words=keysets, start=nodes)
    def pin(self, words, start):
        self.agree(self.pin_reply(words, start),
                   lambda net: net.pin_search(NodeId(R, start), words))

    @rule(words=keysets, start=nodes, limit=st.integers(1, 5))
    def superset(self, words, start, limit):
        self.agree(self.superset_reply(words, start, limit),
                   lambda net: net.superset_search(NodeId(R, start), words, limit))

    @rule(start=nodes, end=nodes)  # `target` names a hypothesis bundle in `rule`
    def ping(self, start, end):
        path = route(start, end)
        self.agree(((), len(path) - 1, list(map(text, path))),
                   lambda net: net.route(NodeId(R, start), NodeId(R, end)))

    @invariant()
    def tables_hold_the_model(self):
        want = sorted((owner(words), words, cid)
                      for words, held in self.stored.items() for cid in held)
        want = [(text(value), words, cid) for value, words, cid in want]
        for net in self.nets:
            assert [(node.text, tuple(record.keywords), record.cid)
                    for node, record in net.scan_records()] == want


DhtMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=30,
                                        deadline=None)
TestDhtMachine = DhtMachine.TestCase
