"""The structure tables of two big nerves, pinned by SHA-256.

The stdout goldens read tables of at most a few thousand cubes; these pins
cover the levels that only the benchmark-sized nerves reach: N_2(C3) at
K = 3 (426,342 level-3 cubes, a dense 3-vertex target) and N_1 of the
2000-cycle at K = 3 (76,000 level-3 cubes, a large sparse target).  Each
table is hashed as its entries in decimal, joined by commas.
"""

import hashlib

import pytest

from dgh.nerve import nerve_levels

from conftest import cycle


def _digest(table):
    return hashlib.sha256(",".join(map(str, table)).encode()).hexdigest()


def _table_digests(x):
    """Every top-level column and every face, degeneracy and connection
    table, by name."""
    out = {f"columns {j}": _digest(column) for j, column in enumerate(x.columns[x.top_dim])}
    for name, family in (("faces", x.faces), ("degens", x.degens), ("connections", x.connections)):
        for n in range(1, x.top_dim + 1):
            out.update((f"{name} {n} {key}", _digest(t)) for key, t in family[n].items())
    return out


C3_M2_K3 = {
    "columns 0": "3ef7bd79fd95af5e16741ecbf98b8ea511c3f802d16fc3355c8c8c6737fa9a19",
    "columns 1": "808d71c075e809f8d5765216e65e1646b79c6747c01ff8d12de9878de79fb5b1",
    "columns 2": "b717d9a1bf5659cc44e67b8f4206ad0c8ba7314a173c4931338645b108aff0fd",
    "faces 1 (1, 0)": "1ec8da2441f3d89fec3fb9ac965342f84688fb7b7298a331d3316e8ffe1a9a16",
    "faces 1 (1, 1)": "b56d4c4179cddfe3fba8fa64ce300ade93f54eea594de49a439f3899b8c152f4",
    "faces 2 (1, 0)": "dd827ee63b76759a6cb3ddc36b51195b68911a55b9bcef132df68869ddb3eec6",
    "faces 2 (1, 1)": "36360346c25990e3434a7ca65c5f847b63f688ac11444052e032a63347055754",
    "faces 2 (2, 0)": "17c6c5433fd4cf310eac4d2b0957b19c110348c9be9694cdce15bd3d8af7bdee",
    "faces 2 (2, 1)": "6cf327878e35c0c56f44767767b0272723a9ff2b64fda6aa40a2de070b064718",
    "faces 3 (1, 0)": "3ef7bd79fd95af5e16741ecbf98b8ea511c3f802d16fc3355c8c8c6737fa9a19",
    "faces 3 (1, 1)": "b717d9a1bf5659cc44e67b8f4206ad0c8ba7314a173c4931338645b108aff0fd",
    "faces 3 (2, 0)": "a2eeb51913bd53709e289490ce7f865106fd157f3a8191d558f5095a94c0b952",
    "faces 3 (2, 1)": "f3fc7f7858928056da01ad7f88dc09278e7eb01c7714f88fcf11c28d2b477e6d",
    "faces 3 (3, 0)": "1ae60b8bb07abd85047e4581c3de07bbaee49a129eeb6810dd73892d000c7c05",
    "faces 3 (3, 1)": "37d95387cf020b7e30f7f3ae8eb74fb9d64ea54353b989758e890015185297de",
    "degens 1 1": "9936adea84071d57140aa58ac93689250f08b84d35719cf27163040069ab9a19",
    "degens 2 1": "aed3dbe70bad139ae8133d72b50c0156f16a8acd9ed103abba130675ee10a267",
    "degens 2 2": "a6cecdd11a528facf1e7eaa30fae2984430e3d656a15506bdf0443f996b75530",
    "degens 3 1": "4c5fe8f9a0cb9dc16ff1545208636b2433f0b5fd07845c42485cdabaee58426e",
    "degens 3 2": "c31e0dc1de5f760371efb764605704e6ea5f4201f2fd46e833aed631673f9570",
    "degens 3 3": "872c81730930735cedac9c446f7c7e25dcc617add3a9563cefd002cf1263086c",
    "connections 2 (1, 0)": "74cc3d3337c0c47aaf83fb40ffdd596f7c0493ec9e58a36566f524a7ee11e02c",
    "connections 2 (1, 1)": "8aa3c6a21f37296d5585588e763db5fae8d4cd5a5eb621dfe0064e44003aa7da",
    "connections 3 (1, 0)": "a5bbdbcf05dab0dc72c26afe8ee5111b86eec2e83576f48f3e29cb2e9401688e",
    "connections 3 (1, 1)": "c7dadb633516cd7c07e0310bb26f9deca3efba2cdfb936a5185db1d61b9d8b69",
    "connections 3 (2, 0)": "acea97f5eb36ecfa16e1f8f7c772a8092ad1f583e8fe5207c5379d850a3b84d0",
    "connections 3 (2, 1)": "e9f242d5f336a963badb5cbdab0ba21d81658d41751feb2dca6c1e2f915bb358",
}
C2000_M1_K3 = {
    "columns 0": "ba74f8a6c5959f9bfec884078028cee52d196b4c7463c8596e69f69ca765644c",
    "columns 1": "8cdf145d212c85a000352674edc0864b4beff9e318032c7119ff0bdf21fff02c",
    "faces 1 (1, 0)": "37020d64d5d9eff21f7f92357df00cf2c69e9bdf32eaa01f7c989bdd4cd66f27",
    "faces 1 (1, 1)": "801ba384d8043f6edc2b1b2eb21577c00a8b88ab24f0308f16ae322aad758ef3",
    "faces 2 (1, 0)": "1abc128ddf444fd9eb38fa6f9048d514f04eb36c49b70037181efa2bcd97fa30",
    "faces 2 (1, 1)": "4729f5f842ae9c26c4d4e551ac7cc83c66450f785fc73a43f9e7267b29dce03a",
    "faces 2 (2, 0)": "fe60b3aeaef38d9263da369fbdb06f84a31563d174c98be3b3979c0f01a52197",
    "faces 2 (2, 1)": "08410ba8fef926f0fc75fe60696db1435f92879f936501d4353c113efcc1aa83",
    "faces 3 (1, 0)": "ba74f8a6c5959f9bfec884078028cee52d196b4c7463c8596e69f69ca765644c",
    "faces 3 (1, 1)": "8cdf145d212c85a000352674edc0864b4beff9e318032c7119ff0bdf21fff02c",
    "faces 3 (2, 0)": "53ff2f8d6fb57aef0ee487c7271797f07dbe649b0d9832a4d4204c16482a7b07",
    "faces 3 (2, 1)": "8b95ff178532b3f0fcc7656aaad8a3315e01bfac50bbd203177f6aec93343d6c",
    "faces 3 (3, 0)": "2861bc10439cb3175800f9e9836e79383e3009dd7b90596c5fc55408b67abcf4",
    "faces 3 (3, 1)": "85a8c1a040130684ddc88eb2d968ce3acf0632195a8569a6056186328e64f838",
    "degens 1 1": "9588ad882b5217746f5d48c93bb69ea24776a37ce242604d41113ae7f04e278b",
    "degens 2 1": "bb75541d07bfd3c9ae39981c59cbba3c14b075fe4c5216fc0c9d6d8b98eb9b08",
    "degens 2 2": "a4fc6d17308f9f7001007a6089a8c6edb2b10e8b5c77f16e8c02dab766221ef4",
    "degens 3 1": "f0971ef83b1c2d2e48bd1f39bc285873c0eebf972f1e303d6ab594b10df89ea5",
    "degens 3 2": "5c0431f7dcf713f7d947e4c411c1355f491a4854cde1d6de238355b4d0742a62",
    "degens 3 3": "1a50e65babc1c519f12238c4348b246e247fdce1ab8fc30af6543846e7bb8995",
    "connections 2 (1, 0)": "f243c22d88e86dcceea6d99e95bd3ac7e4a5372005a5f488be06913d03ea95f0",
    "connections 2 (1, 1)": "cb7f0c2a2afb75d25d0dbfcff2f91dcbaf118fca2ec51a9666ae3ec90fc80c25",
    "connections 3 (1, 0)": "978faa6d2bdc8d21f1c3a075164e82657249acbddb876dccfffee728001390c9",
    "connections 3 (1, 1)": "6cdb1f824ffc03d00c12246f8ce2e84f171d590048de665f6c197ae7803218b0",
    "connections 3 (2, 0)": "a96d2c094cde3e9bafe0ed139c1fb9add8ac60a342a321c3b5d673e29c314f70",
    "connections 3 (2, 1)": "7bc16f0669e7539e2df8c0529ac5db08019489ef82756620763d62fbaed18d72",
}


@pytest.fixture(scope="module")
def big_nerves():
    return {
        "c3": nerve_levels(cycle(3), 2, 1, 3),
        "c2000": nerve_levels(cycle(2000), 1, 1, 3),
    }


@pytest.mark.parametrize(
    "name, cubes, pins",
    [
        ("c3", [3, 12, 246, 426342], C3_M2_K3),
        ("c2000", [2000, 4000, 12000, 76000], C2000_M1_K3),
    ],
)
def test_big_tables_are_pinned(big_nerves, name, cubes, pins):
    x = big_nerves[name]
    assert x.counts()["cubes"] == cubes
    assert _table_digests(x) == pins
