"""Suite instances and results pinned as SHA-256 digests.

The generators the lemma suites draw from (regular odd sets, random
subsets, random connected sets with and without an avoided set, and the
anchors, clipped subsets and dilations of a co-closure trial) are hashed
on five graphs, and so is every ``SuiteResult`` of ``run_suite("all", 100,
seed)`` together with the final state of each suite's Philox stream.  The
digests were recorded from the earlier per-cell generators, which took
one scalar draw per cell, so a digest that changes means the stream or
an instance changed.
"""

import hashlib

import pytest

from chroma import suites
from chroma.lattice import build_graph
from chroma.rng import make_rng

import oracles

GRAPHS = {
    "8x8": ((8, 8), None),
    "7x7": ((7, 7), None),
    "8x8x8": ((8, 8, 8), None),
    "12x10-periodic0": ((12, 10), (True, False)),
    "2x10-periodic0": ((2, 10), (True, False)),
}

PINNED = {
    "8x8": {
        "odd_sets": "5df95d7be0c7a48865f4995fe27e450ec5a651233dc4a0eda3c866326fea408e",
        "subsets": "5063488467c77472df3b95c777a111a5d8ada67b9a08c35519d1d9b3fa45db7a",
        "connected": "b1093472c664ea5008a904abbcff570e2800246bfa2b476d2f93838838d1e9e7",
        "co_closure": "16b40f0631a78ffaacf7313d16c7f8932f10202a4545598bbff67ff78c03b4e6",
    },
    "7x7": {
        "odd_sets": "651393fb2c938b7568431bed0b91fc83040148e4d44996047f9d2926727916bb",
        "subsets": "c00fa06f49a8479edddf9c9cafb0353dd70ce4f100b8426a18d5360a9b19fb3d",
        "connected": "fa18439c97c7dd4c000cdfba67932346d9b3364ca9c9d650b4112e0b9bfcca14",
        "co_closure": "a86eb0043f17f77120dda726e1e37b8bcb2f4f0fd96e65cfc1b776051df5b9c3",
    },
    "8x8x8": {
        "odd_sets": "736fe3857aa604c2caacd182c15a7219a5da20a46bc111bed21815813c461d9e",
        "subsets": "c943a4583a9de571de86aa74a2f92dc3f3e49c8ad7b8c5696d9bdb7e28135890",
        "connected": "5366c397682391d320b2ae14f1ff26bf76b91e7b39f1160c353d42bb8ddff45f",
        "co_closure": "d2024e7f065752c56a26abff73382bc098567263b28a0abaa6d100806c92d434",
    },
    "12x10-periodic0": {
        "odd_sets": "d0ac3c40ca133c25f9ccc5e4fce6032b1980500d2ddfc3402d613154e5d934f2",
        "subsets": "6219da547c1bf5e0880aa09ef85348fba22ef37aa285f72c8b56082e6915a0dd",
        "connected": "308bc51020ca486d2a7ac672e8e28b0746bf51f57ec81bfba351c3082fa8d52e",
        "co_closure": "821ed978dba8306b41d7a5c6dec6a020ccf25009f8c93818b6ab057c05389592",
    },
    "2x10-periodic0": {
        "odd_sets": "af86f6a86f6ca62c0f2f061e2c9ffc2a8c3afdc3b6ad4b33fac358bd1c905ee6",
        "subsets": "716bc7d167b0c9013dcb38834963fb2482bc4abc64cf979ea7f8bf8cd145fea1",
        "connected": "225d07c16b15abb6500863bf152f7e2556efc16a0863e5070e9b30ea715c1cf1",
        "co_closure": "901d209d6bb8c0c2a84851678e1533d62de16b4b0f55f990eedeebb58244cb7e",
    },
}

PINNED_RUNS = {
    7: "4dbe5d8ae0aa4d2f73e6651d1fb2d5c7cef7f3be4e7af0a1635215e407aa109a",
    20260810: "ced057294eb65556330b1b5cc6e724cd791367dcb776618a2e845c6af0020179",
}


def _digest(x) -> str:
    return hashlib.sha256(repr(x).encode()).hexdigest()


def _depth_cells(G, depth):
    return G.vertex_set(v for v in range(G.n) if all(
        per or depth <= c < length - depth
        for c, length, per in zip(oracles.coords_of(G.dims, v), G.dims, G.periodic)))


def _instances(G, seed) -> dict[str, str]:
    rng = make_rng(seed)
    out = {}
    out["odd_sets"] = _digest(
        [suites.random_regular_odd_set(G, rng).bits for _ in range(4)]
        + [suites.random_regular_odd_set(G, rng, core_depth=2, p=0.2).bits for _ in range(2)])
    subsets = []
    for cells in (G.full_set(), _depth_cells(G, 1), G.even, G.empty_set()):
        subsets.append(suites.random_subset(G, rng, cells).bits)
        subsets.append(suites.random_subset(G, rng, cells, p=float(rng.uniform(0.15, 0.7))).bits)
    out["subsets"] = _digest(subsets)
    connected = []
    for _ in range(6):
        A = suites.random_connected_set(G, rng, int(rng.integers(1, G.n // 3)))
        B = suites.random_connected_set(G, rng, int(rng.integers(1, G.n)), avoid=A)
        connected += [A.bits, B.bits]
    connected.append(suites.random_connected_set(G, rng, 5, avoid=G.full_set()).bits)
    connected.append(suites.random_connected_set(G, rng, G.n + 1).bits)
    connected.append(rng.bit_generator.state["state"]["counter"].tolist())
    out["connected"] = _digest(connected)
    trials = []
    for _ in range(12):
        instance = suites._co_closure_instance(G, rng)
        if instance is not None:
            A, anchor, B_any, C, B_conn = instance
            instance = (A.bits, anchor, B_any.bits, C.bits, B_conn.bits)
        trials.append(instance)
    out["co_closure"] = _digest(trials)
    return out


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_suite_instances_pinned(name):
    G = build_graph(*GRAPHS[name])
    assert _instances(G, 1000 + list(GRAPHS).index(name)) == PINNED[name]


@pytest.mark.parametrize("seed", sorted(PINNED_RUNS))
def test_suite_results_and_streams_pinned(seed, monkeypatch):
    made = []

    def recording_rng(*args, **kwargs):
        made.append(make_rng(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(suites, "make_rng", recording_rng)
    results = suites.run_suite("all", 100, seed)
    assert all(r.ok for r in results)
    states = []
    for rng in made:
        state = rng.bit_generator.state
        states.append((state["state"]["counter"].tolist(), state["state"]["key"].tolist(),
                       state["buffer_pos"]))
    assert _digest([[repr(r) for r in results], states]) == PINNED_RUNS[seed]
