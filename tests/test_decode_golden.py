"""Decode outputs pinned to integers captured before the page store became
arrays: attended ids, integer StepMetrics fields and leaf page token order;
and the structure the build and rotation inserts give every tree (captured
before node membership moved into row arrays): each node's id, level,
parent, owner and members, and each point's level.

Only integers are digested, so BLAS rounding cannot move these values; the
float outputs follow from the attended ids through the same arithmetic.
"""

import hashlib

import numpy as np
import pytest

from icecache import Engine, EngineConfig, WorkloadSpec, generate_workload

INT_FIELDS = ("step", "token_id", "pages_selected", "pages_loaded", "tokens_loaded",
              "bytes_moved", "transactions", "dci_queries")

# config overrides -> (attended-ids digest, metrics digest, per-field sums, pages digest,
#                      trees digest)
GOLDEN = {
    (): ("d3d3012ebf314c0b762967d2b122621f58ac68dd148e2827be38a99eb9412e5b",
         "c19033155cccf3814934c13150cb8555bc6d2387084585138efbfe64705ed580",
         [780, 20780, 1475, 1268, 13463, 1086240, 153, 160],
         "436578d42f0804893dcbb0611452d105c80e783a761c2d5fc0fcee3f7cea45c5",
         "17d14d022ca659e309ee393e3ee3a3c060c4a016296655a4cbbf3ab9c3fff987"),
    (("skip_layers", 1), ("reuse_stride", 3)): (
        "b94c5f86b9b1f998564d4498c52da056f8292e65ab043d16214ffee1cdae3be5",
        "5c0f453967b43b2ebae999359094ac4b5903e981fb89eca786d38c45668b8f17",
        [780, 20780, 2326, 2005, 20347, 1636608, 232, 80],
        "55fb5722a891f8a90b43b76afdfcca2d38edf4193c7894a43ef509e7f866ddca",
        "625f7e1ad513ff19e15c57617023cf9b2bad2b3859b00d0e57d262ce3d514ae5"),
    (("query_heads_per_group", 2),): (
        "a65a1f572ac60320da71b2d7fcb4ab3f47952253545e2d030928c3f833d48644",
        "77d7d60b4055113276fdcf21ced636de0a999df63767046ceb664a687da22244",
        [780, 20780, 1564, 1352, 14031, 1138368, 155, 320],
        "d26caac4e1ea485f9661e7a96216f095ce8f9efaf168e97f9edc63621fb84bbe",
        "87c58bce2c3228479612f0dd51181d0dd2d405003be9416fc7bddfb9493ae090"),
}


def _ints(values) -> bytes:
    return np.asarray(values, dtype=np.int64).tobytes()


def _decode(overrides: dict, steps: int = 40):
    qpg = overrides.get("query_heads_per_group", 1)
    spec = WorkloadSpec(kind="clustered", n_tokens=500 + steps, d=16, d_prime=8, clusters=8,
                        layers=4, kv_heads=2, query_heads_per_group=qpg, seed=21)
    wl = generate_workload(spec)
    cfg = EngineConfig(d=16, d_prime=8, seed=21, **overrides)
    eng = Engine(cfg).prefill(wl, 500)
    attended, rows = hashlib.sha256(), []
    for i in range(steps):
        outputs, metrics = eng.decode_step(wl.decode_step(500, i))
        for layer, per_layer in enumerate(outputs):
            for qh, out in enumerate(per_layer):
                attended.update(_ints([i, layer, qh, len(out.token_ids)]))
                attended.update(_ints(out.token_ids))
        rows.append([getattr(metrics, name) for name in INT_FIELDS])
    pages = hashlib.sha256()
    for key in sorted(eng.heads):
        state = eng.heads[key]
        for node in sorted(state.tree.nodes.values(), key=lambda n: n.node_id):
            for pid in node.page_ids:
                tokens = list(state.store.tokens_in([pid]))
                pages.update(_ints([key[0], key[1], node.node_id, pid, len(tokens)]))
                pages.update(_ints(tokens))
    trees = hashlib.sha256()
    for key in sorted(eng.heads):
        tree = eng.heads[key].tree
        for node in sorted(tree.nodes.values(), key=lambda n: n.node_id):
            parent = -1 if node.parent_id is None else node.parent_id
            members = node.member_ids
            trees.update(_ints([key[0], key[1], node.node_id, node.level, parent,
                                node.owner_id, len(members)]))
            trees.update(_ints(members))
        trees.update(_ints(np.ravel(sorted(tree.point_level.items()))))
    rows = np.asarray(rows, dtype=np.int64)
    return (attended.hexdigest(), hashlib.sha256(rows.tobytes()).hexdigest(),
            rows.sum(axis=0).tolist(), pages.hexdigest(), trees.hexdigest())


@pytest.mark.parametrize("overrides", list(GOLDEN), ids=["default", "skip1-reuse3", "gqa2"])
def test_decode_matches_golden_integers(overrides):
    got = _decode(dict(overrides))
    assert got == GOLDEN[overrides]
