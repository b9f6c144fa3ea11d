"""Tour of the hypercube id space: hashing, routing, superset trees.

Run:  python demos/01_hypercube_tour.py
"""

from keycube import (
    NodeId,
    TableHash,
    hamming_distance,
    keyword_bit,
    neighbors,
    next_hop,
    node_for_keywords,
    superset_region,
)

# Keywords hash to bit positions. With the default hash the position is a
# stable digest of the keyword bytes, the same on every node and platform.
print("default positions at r=6:")
for word in ("ocean", "mountain", "forest"):
    print(f"  {word!r} -> bit {keyword_bit(word, 6)}")

# For a readable walkthrough we pin six words to six positions instead.
positions = {"Temperature": 0, "PoI": 1, "Wikipedia": 2,
             "Bologna": 3, "Urbino": 4, "Rome": 5}
hash_fn = TableHash(positions)

# A keyword set maps to the node whose id has exactly those bits set.
target = node_for_keywords(["Wikipedia", "Rome"], 6, hash_fn)
print(f"\n{{Wikipedia, Rome}} is owned by node {target}")

# Each node has r neighbors, one per flippable bit.
start = NodeId.parse("000000")
print(f"neighbors of {start}: {[n.text for n in neighbors(start)]}")

# Greedy routing fixes one differing bit per hop, lowest position first,
# so the path length is exactly the Hamming distance.
print(f"\nrouting {start} -> {target} "
      f"(distance {hamming_distance(start, target)}):")
current = start
while current != target:
    current = next_hop(current, target)
    print(f"  hop -> {current}")

# Every bit-superset of a query id forms a sub-hypercube. The spanning
# tree below visits each member exactly once, which is what a superset
# search walks until its result limit is reached.
query = NodeId.parse("1010")
print(f"\nbit-supersets of {query}, in traversal order:")
print(" ", [node.text for node in superset_region(query)])
