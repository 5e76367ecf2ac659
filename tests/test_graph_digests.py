"""Pinned graphs of every named family, and of inhomogeneous graphs with
a vector of edge probabilities.

Each case hashes both CSR directions of `FAMILIES[name].build(n, seed)`
and its `meta`, or the type name of the error the build raises. The
family digests were recorded before the graph became numpy arrays, and
the vector-p digests before the generators drew their rows in blocks, so
a build that keeps every draw and every edge keeps every digest. A
mismatch means a generator's graph or stream changed, which re-rolls
every seeded gate built on it.
"""

import hashlib

import numpy as np
import pytest

from sparselb.graph import FAMILIES, GraphGenerationError, generate_inhomogeneous

SIZES = (1, 2, 3, 8, 40, 250, 600)
SEEDS = (0, 1, 2)


def graph_digest(name: str, n: int, seed: int) -> str:
    return built_digest(lambda: FAMILIES[name].build(n, seed))


def built_digest(build) -> str:
    """The digest of the graph `build()` returns, or of the error it raises."""
    h = hashlib.sha256()
    try:
        g = build()
    except Exception as exc:  # the failure is part of the pinned behaviour
        h.update(type(exc).__name__.encode())
        return h.hexdigest()
    h.update(f"{g.n_servers} {g.n_dispatchers} {g.n_edges}|".encode())
    for array in (*g.csr(), *g.reverse_csr()):
        h.update(np.ascontiguousarray(array, dtype="<i8").tobytes())
        h.update(b"|")
    for key in sorted(g.meta):
        value = g.meta[key]
        h.update(key.encode())
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
        h.update(b"|")
    return h.hexdigest()


DIGESTS = {
    "errg-log2": {
        (1, 0): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 1): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 2): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (2, 0): "f7d8d5d45e123383e74286d9413e6339bb42d251cc1e4b2a0ae08945d99e477d",
        (2, 1): "342ed909c2102e56f5592ee221bbe95f6adc2bb0b11b3290e235e82016d2b803",
        (2, 2): "502dbce09a3a4c5863bb7dc3b866b20ef13ee3bbc07568dde6a7163a7f28a4c4",
        (3, 0): "cc776c9904385a8026eb117b4ac2304679a0b1ffafa24c768e4805b211ed0f12",
        (3, 1): "644efd54a496cdb16703205e823bda9a1314589e898f9cf692e4aff4aed38637",
        (3, 2): "1fa747d13bb2d936a740293f164a0fbec372c078f64638c7ebd20beb24bb4f59",
        (8, 0): "da43804c5545c524a705deb233ba6b3a8a5b4c667dd3592b165261580cd2a99e",
        (8, 1): "b9e92821a5837dd391b00e4902516c354d2f91a32adb0b8f48ee6afd780b97ca",
        (8, 2): "91150dc551c5c10b51ebb20ae5d647be4480108c20acd4cfaf9e44ecff999e4a",
        (40, 0): "7b335a63c4cfaf76919939e4de20944729301828b47afe8577b219de05df7295",
        (40, 1): "16bd92a5b7ba44af63f882cdde892c688251aa876ddeb19186be1ce6ee3d7693",
        (40, 2): "a739e88e49811e9cfd7451dff1a9eef8e970e2d84c5af6b42e9d3e1803f77762",
        (250, 0): "d7d1cecc178b0e55c008707ff2c79eed840e37c5cfc991d8f0080d728ceed54a",
        (250, 1): "2e90d00c9d652e5b3ac576a6831f78bd183d85acfb6b64f2166bbc244f14c035",
        (250, 2): "ab896ca687802c756f131ec834c7525a9f0d4244bc6741394ac83bb78a2797ee",
        (600, 0): "d1bcc5ab5f5504e963dae42f143995e4f94e5c69335f5c26532f27160113db0b",
        (600, 1): "12fa4374a3c982478107f6f739393648295d61b6e75a7d694109c94e47ae90db",
        (600, 2): "ce67635a3490aeff45dd255faaf8f002b3e875407abbe2351c673c0f6e01c09e",
    },
    "fixed-degree-4": {
        (1, 0): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 1): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 2): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (2, 0): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (2, 1): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (2, 2): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (3, 0): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (3, 1): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (3, 2): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (8, 0): "2ecfbfc447eaf42dc4a927d5129ed239a4364f001fb33dd6aa06ffd915941a68",
        (8, 1): "3a1e1b44fcc9296aef98fb54700d81fb21490b70fbf67d0e66f4192436abad76",
        (8, 2): "b4036bf48018d51b06f6078597b2ae85b4141ee15c81a20421cae7349a252f58",
        (40, 0): "2ee4b6c53a301cbe9a3342618b7c801bad62d20e932e6bdb7038a89907b688bc",
        (40, 1): "244c42ce1cc4017540a9d9a6abb18ece8eb43735b74e2241abb899e323fbe70e",
        (40, 2): "545629b6d18b8f4123e04caceae7cdfd28131006a401607178b6b9b6fa217c3e",
        (250, 0): "e94e9dbfa5dd693cbdf32877905362abb6284cbfcbe33753fc1c95aaef265aac",
        (250, 1): "6d2d10a66c8c2b1704b69639b7599f0fc0f6686a026c9b5d4aae07635e1624f9",
        (250, 2): "41d9861edd69f1671bb9903bddf4d0c81959dc0c3273de18aeb276c23dea8c86",
        (600, 0): "51372e642aa01dae8e2ea21dfbdb6b66427703f8a8ef084624a4245d7492f352",
        (600, 1): "51372e642aa01dae8e2ea21dfbdb6b66427703f8a8ef084624a4245d7492f352",
        (600, 2): "51372e642aa01dae8e2ea21dfbdb6b66427703f8a8ef084624a4245d7492f352",
    },
    "fixed-degree-log": {
        (1, 0): "e5c2d103d1ac2eda1e58c1acf63d744210f104b4cfb885451754fec10f3132a4",
        (1, 1): "217f0b3f78d33237022e7f76f33aa9c66f7a4f6f1a56c2c738c1808e5937ec1b",
        (1, 2): "e968dde947c9bbda1ef103e42557b37a6ac2c28c9553db018a5b335a844c7efd",
        (2, 0): "123b6307846be3f9d4db9ff11129d6ea64440031c2d8410cd9fb009645cd08fe",
        (2, 1): "e03724ed7cc9ac3d0bf65b9c7c4553d6d38401ca20f011501be6ab28d2513598",
        (2, 2): "d2e1f8bf7236894d96b156d548706c11deee08ecc4c253a2253541083f461ded",
        (3, 0): "feef26768de7cf9064bc11fa008f0577e8e3d6892ed14ec3da69b29da6e7532b",
        (3, 1): "05699d7a5617f33b880524cfccf048f978a603b64fd222936b13b9b9c7192c35",
        (3, 2): "7fceaa8bc597f1060193ff6fc322e72b598a09e476cc1d4b49fbcc684a8047ef",
        (8, 0): "1b45ceb19444a5777a38aaafb288b912d18edc271beead794b7a1fd2f862ac1b",
        (8, 1): "950a6d600f98220afaabd63cd445cc8ba838d5c5425e5e73e63a167921ef41be",
        (8, 2): "2833d95c18aada744ae660e5187ddcaf427b7bb0a6138f8ec5cf15a8781dd17e",
        (40, 0): "2ee4b6c53a301cbe9a3342618b7c801bad62d20e932e6bdb7038a89907b688bc",
        (40, 1): "244c42ce1cc4017540a9d9a6abb18ece8eb43735b74e2241abb899e323fbe70e",
        (40, 2): "545629b6d18b8f4123e04caceae7cdfd28131006a401607178b6b9b6fa217c3e",
        (250, 0): "3d2d8b31b01316a6c0d35511025a37fedcbdbc991380ae5f50fc30c0c10d3735",
        (250, 1): "c3e754ec27696d8dc92cba0717473909dbaec4ea5aa274d3ca4699018a62abb5",
        (250, 2): "ee98665bf6924d9dd6564b831206b01d5c5cbb27bb5057b747d697518873ce6f",
        (600, 0): "6883d9beec8e34b9695367028b5fef2f8e390878bb537fb377eb001c61b7eaee",
        (600, 1): "4b6965afbbff54b32c2a430d3af489e87c4d20c99601966fc3ec25a9d2d437fa",
        (600, 2): "317fc4129e77a16b538061ea0598721f7ecab83f42b10da9b7232dfa3fba9823",
    },
    "fixed-degree-log2": {
        (1, 0): "e5c2d103d1ac2eda1e58c1acf63d744210f104b4cfb885451754fec10f3132a4",
        (1, 1): "217f0b3f78d33237022e7f76f33aa9c66f7a4f6f1a56c2c738c1808e5937ec1b",
        (1, 2): "e968dde947c9bbda1ef103e42557b37a6ac2c28c9553db018a5b335a844c7efd",
        (2, 0): "123b6307846be3f9d4db9ff11129d6ea64440031c2d8410cd9fb009645cd08fe",
        (2, 1): "e03724ed7cc9ac3d0bf65b9c7c4553d6d38401ca20f011501be6ab28d2513598",
        (2, 2): "d2e1f8bf7236894d96b156d548706c11deee08ecc4c253a2253541083f461ded",
        (3, 0): "feef26768de7cf9064bc11fa008f0577e8e3d6892ed14ec3da69b29da6e7532b",
        (3, 1): "05699d7a5617f33b880524cfccf048f978a603b64fd222936b13b9b9c7192c35",
        (3, 2): "7fceaa8bc597f1060193ff6fc322e72b598a09e476cc1d4b49fbcc684a8047ef",
        (8, 0): "f76f7fec4fc387af3b0cb4bf3d3b709cc1c39b92890f7eda7c320d4de2414d3a",
        (8, 1): "9f5fadc23034d344b7c32c0a9c69d2e77002bc5a6913930e044c14f7c9876a43",
        (8, 2): "695c8daf452cc854615d8bfe78f624fa23c5c7d571a1df1e4936deff65ceffb5",
        (40, 0): "f960830d173c7b9cb4633c8e005d69013afaa27e2a01b0db5ffd3585c66703b8",
        (40, 1): "66ebbdc1e2e8eb32e95f3ab9dbc83218b03a62baa6d46ae2a51024cab6ca6f39",
        (40, 2): "9082c9313c7e88495cacceeb6c128ae78221027185de8e0922e181df7b14c7af",
        (250, 0): "cf47386e7f1246bb5f135e3495961a302f1ac1286ae7c9ce2b71cdc45c98868a",
        (250, 1): "9ef56363e7cb3078d0c69f12ea24f24d96ea1cdb411fb5bbd481d61de9ee9ec2",
        (250, 2): "d501b0fd3d55349e99206365323faabf98035706ac39d8cb93605adb5078b08f",
        (600, 0): "2dd0266b9974e9ac326dfce343a2245645d9ef92b21774938b2313548ad33984",
        (600, 1): "e7535e533fc341693707fbd20caf3e19104cdeb66cc21e7d86a2a93d749fdb72",
        (600, 2): "a96fdb24e6dfe7f037282387599717f9dd313c814a639636282d050d15800d07",
    },
    "geometric-log2": {
        (1, 0): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 1): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (1, 2): "b6276ba72bbc508431b11298180ac724c3eef76599d6862ff5914355b7524739",
        (2, 0): "181f7ffe15ec698a910e5af6421fbf88e373fc02eda149195615ca50e36d14e5",
        (2, 1): "221d4a360b968b57c96e72e6dee3c937e3743d51d00198df8e81e5866226a305",
        (2, 2): "e6b31d7a5311f517477ec022f1112b5c69277a13d0753eda75f1a957583a5dcd",
        (3, 0): "e462f83a01a61c53240ad949c255cf54c01147e09700d5d1835ce43631b8e5c8",
        (3, 1): "1f6d4adb913709ae39e67071950ed95d1ace71e26c0d7b209837dd662676595e",
        (3, 2): "8076b185de524210a2cc6c17bf7756f85f6cd1ed4e15b5564e5953f9f1080988",
        (8, 0): "de5e8f998e62c884b50cbf685a197b529fed6306122b5c42b55bca4a2cfa69fb",
        (8, 1): "664e5d24970dbd58a8032718242cd0b85e0af98011383034d9342b4bf85fa7e8",
        (8, 2): "fa497ad39833303c977e0c7096679d6f38a264e2408fd1cb57827f4d4bd63503",
        (40, 0): "9d76c9309de05cdfb600437b37778965b389a4fb8da815d698a6f6624d1556bd",
        (40, 1): "125660647a8b0f5f65c10ff762bb2abf94e07760dbf197b0f5fa1fa554507138",
        (40, 2): "1f8bb8b9e79c602285423793f03b2cc339a4ebca095048e24a18b7a950fd537a",
        (250, 0): "43ddbbeb9c59d328193d0edbde91b322ee86820553ba990a93c89f15fbf86e03",
        (250, 1): "2287d548dd54466550f42b197d017321a4a744c1531e609ce214d10f30b4c212",
        (250, 2): "e1884ab826d15ddd8e88c1a4c7dda7765a0d4104f22366e2d87d86ff64a21329",
        (600, 0): "c542ccbe79d61bec030de1d64c32371f37f6bab76be7902fc7fd726b527c4c71",
        (600, 1): "351fb41e26ebfb232a48e085a28a1c45b4a1e04f46cd621baef38487c6010cc9",
        (600, 2): "b73287be170fa93acad451d1f72df68dab2ad83da3d56a9d95915f4da65c9914",
    },
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_graphs_are_pinned(name):
    got = {(n, seed): graph_digest(name, n, seed) for n in SIZES for seed in SEEDS}
    assert got == DIGESTS[name]


# Inhomogeneous graphs with one edge probability per dispatcher: certify's
# ramp at its 30 x 20 shape, and a ramp down to p = 0.01 over 12 servers,
# where most low-p rows come out isolated and are drawn again (each seed
# needs dozens of redraws).
VECTOR_P = {
    "certify-ramp": (30, 20, np.linspace(0.06, 0.5, 20)),
    "ramp-to-0.01": (12, 60, np.linspace(0.4, 0.01, 60)),
}

VECTOR_P_DIGESTS = {
    "certify-ramp": {
        0: "cedf21e7794bb8907e9b8f0aa87b676be69082997b7e0337f69d44dcf0a3fa56",
        1: "ac30043537f604a52fe44daffd5e52a7434bb68f767ed9c8167510fd30d8e515",
        2: "525b904f8805136d170c3af506633b3414dbe533e24929b6d26f7ee0247b9b4f",
    },
    "ramp-to-0.01": {
        0: "bbc1c483ec4b77bb1ac102e3d862696e6e9c3ba883ce170192d4fdd10973bb57",
        1: "a6a0ce5c738b56d369ef0242ccf4041f9f271986986b577102ca35772014ee9e",
        2: "b5c9fbeb8b7cdfae419984ad5df00b7df2b76d278c924c54de7e87e096fc7314",
    },
}


@pytest.mark.parametrize("label", sorted(VECTOR_P))
def test_vector_p_graphs_are_pinned(label):
    n, m, p = VECTOR_P[label]
    got = {seed: built_digest(lambda: generate_inhomogeneous(n, m, p, seed)) for seed in SEEDS}
    assert got == VECTOR_P_DIGESTS[label]


def test_vector_p_isolated_dispatcher_is_named():
    # dispatcher 10 of 30, at p = 0.001 over 2 servers, stays isolated
    p = np.full(30, 0.5)
    p[10] = 0.001
    message = r"^dispatcher 10 stayed isolated after 100 resamples \(p=0\.001, N=2\)$"
    with pytest.raises(GraphGenerationError, match=message):
        generate_inhomogeneous(2, 30, p, seed=0)
