"""Decode outputs pinned to integers: attended ids, integer StepMetrics
fields and leaf page token order (captured once window folds were spread
over the page; pages are named by their
rank among the head's leaf pages, which the sink and window leaving the
store did not move); and the structure the build and fold inserts give
every tree: each node's level, owner, parent node's owner and members,
and each point's level. Nodes are named by their owner points, and the
trees and pages digests were re-pinned from the same trees when they
stopped being named by counter-issued ids.

Only integers are digested, so BLAS rounding cannot move these values
unless a tree's ranking moves; the float outputs follow from the attended
ids through the same arithmetic. The tree ranks by float32 lifted rows, so
a near-tie below float32 resolution can fall either way. The gqa2 digests
were re-pinned when the rows went from float64 to float32: at prefill,
head (2, 0), point 382 (row 366) took parent row 93 instead of 173, whose
float64 dot products with it differ by 1.1e-9. The other two configurations
did not move.

The skip1-reuse3 attended-ids and metrics digests were re-pinned when each
indexed layer got its own fold fill instead of folding with its anchor
group: reuse layers 2 and 3 now fold at fills 6 and 11, after anchor 1 at
fill 1, and between those fills they attend their oldest window page as
window tokens and look up only the anchor tokens below it, so they select
fewer pages. Their trees and pages end the run as before. The default and
gqa2 configurations have one layer per anchor group, whose fills did not
change, and did not move.
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
    (): ("31357ad036f89bb8bf5c914233c3815b3884906fddea9c56ac24a98b2ab31635",
         "6da01c00b015924ca36cafcb075841d323d59fe8e0fe29b3fceec8e76492da50",
         [780, 20780, 1494, 1280, 13646, 1095360, 154, 160],
         "ce87666b9a316cde628abf041d97119886d39edca8296724102bea7a0680de70",
         "c3b46e9126c2be96d21d4473a8cf48e52fda2d45fc1fe05b0bb3446acf5ff6e6"),
    (("skip_layers", 1), ("reuse_stride", 3)): (
        "a1e7eba078870e37fe3a6fac059633a39786265d374d1a82dcf067e0b63b2018",
        "e35cbf32875e8dea2e263ab945f7557d1ee469d3b1bb5e9c8699de58fbda6e6e",
        [780, 20780, 2310, 1990, 20270, 1630848, 232, 80],
        "a3a72317900125fc5dcb64c658e226d3df2f9044d5e76208d05577757dc51183",
        "715f7ea82cbd535f09dfa2bb1fcf11f1abc793b3bab3c7233f6e152df3e18f8e"),
    (("query_heads_per_group", 2),): (
        "30fc132e313046f4d3eb5e241330f784ed6b647acb96496b0cc5c613ed6e5a0a",
        "7c37fb20be273cda8e24463234c83fed511829d51f8367e18d23b523e956d946",
        [780, 20780, 1592, 1368, 14362, 1153248, 156, 320],
        "4def3406aba54c2240aba3625ac65cdc9d37b990b3d9309b78a5af370a021bff",
        "5a7caec786d73857bfa7940879a6b81dbc98cd756c2366afc8d286f22644112b"),
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
        nodes = state.tree.nodes.values()  # in (level, owner) order
        # A page is named by its rank among the head's leaf pages, ascending.
        rank = {pid: i for i, pid in enumerate(sorted(p for n in nodes for p in n.page_ids))}
        for node in nodes:
            for pid in node.page_ids:
                tokens = list(state.store.tokens_in([pid]))
                pages.update(_ints([key[0], key[1], node.owner_id, rank[pid], len(tokens)]))
                pages.update(_ints(tokens))
    trees = hashlib.sha256()
    for key in sorted(eng.heads):
        tree = eng.heads[key].tree
        for node in tree.nodes.values():
            trees.update(repr((key, node.level, node.owner_id, node.parent_owner,
                               node.member_ids)).encode())
        trees.update(_ints(np.ravel(sorted(tree.point_level.items()))))
    rows = np.asarray(rows, dtype=np.int64)
    return (attended.hexdigest(), hashlib.sha256(rows.tobytes()).hexdigest(),
            rows.sum(axis=0).tolist(), pages.hexdigest(), trees.hexdigest())


@pytest.mark.parametrize("overrides", list(GOLDEN), ids=["default", "skip1-reuse3", "gqa2"])
def test_decode_matches_golden_integers(overrides):
    got = _decode(dict(overrides))
    assert got == GOLDEN[overrides]
