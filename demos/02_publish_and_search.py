"""Publish records into a simulated network and query them back.

Pin search returns objects filed under exactly the queried keyword set;
superset search also walks the nodes owning larger keyword sets until its
result limit fills up.

Run:  python demos/02_publish_and_search.py
"""

from keycube import NetworkConfig, NodeId, TableHash, build_network

positions = {"Temperature": 0, "PoI": 1, "Wikipedia": 2,
             "Bologna": 3, "Urbino": 4, "Rome": 5}
net = build_network(NetworkConfig(r=6, hash_fn=TableHash(positions)))

records = [
    ("cid-rome-wiki", ["Wikipedia", "Rome"]),
    ("cid-rome-poi", ["Wikipedia", "Rome", "PoI"]),
    ("cid-rome-poi-temp", ["Wikipedia", "Rome", "PoI", "Temperature"]),
    ("cid-urbino-wiki", ["Wikipedia", "Urbino"]),
]
for cid, keywords in records:
    reply = net.insert(cid, keywords)
    print(f"stored {cid:>20} at node {reply['node']}")

start = NodeId.parse("000000")

print("\npin search {Wikipedia, Rome} from", start)
result = net.pin_search(start, ["Wikipedia", "Rome"])
print(f"  cids: {list(result.cids)}")
print(f"  hops: {result.hops}, path: {[n.text for n in result.nodes_visited]}")

print("\nsuperset search {Wikipedia, Rome}, limit 10")
result = net.superset_search(start, ["Wikipedia", "Rome"], limit=10)
print(f"  cids: {list(result.cids)}")
print(f"  hops: {result.hops} (routing to the owner, then tree edges)")

print("\nsuperset search {Wikipedia, Rome}, limit 1 stops at the owner")
result = net.superset_search(start, ["Wikipedia", "Rome"], limit=1)
print(f"  cids: {list(result.cids)}, hops: {result.hops}")

net.remove("cid-rome-wiki", ["Wikipedia", "Rome"])
result = net.pin_search(start, ["Wikipedia", "Rome"])
print(f"\nafter removal the pin result is empty: {list(result.cids)}")
