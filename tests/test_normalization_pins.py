"""Byte-identity pins for the normalization recursion and its fixtures:
sha256 of `serialize.dumps` of each result, taken at commit 1527931.  A
whole result is pinned as the object that `dumps` wrote for it then, with
its flat curve, witness and per-order log."""

import hashlib
import json

import pytest

from sympconn.generate import conjugated_flat_fixture
from sympconn.normalization import normalize_curve
from sympconn.serialize import FORMAT_VERSION, dumps, to_json

FIXTURES = {
    "dim4_cap4": dict(seed=11, dim=4, cap=4),
    "dim6_cap3": dict(seed=12, dim=6, cap=3),
    "one_step": dict(seed=13, dim=4, cap=3, orders=(2,)),
}

PINS = {
    "dim4_cap4": {
        "flat": "6d388417da23deb028aba32f3e0b95e196832a40fea02133ecfad7231f085016",
        "psi": "ccb1ef129e3a07f94610e4681953617d2037002e3800b9d1fd02b89bdc9b24ce",
        "moved": "22b246ade2b74fb20cbc8fc4a90c2c270b04049c073c8f292a33d788138b57b3",
        "result_flat": "6d388417da23deb028aba32f3e0b95e196832a40fea02133ecfad7231f085016",
        "result_witness": "56b6797c0cfb20b4717f48f439e37ecade3578e6f47983f9b9b40859c7004158",
        "result": "ea84e8b3f4c55334a2d4ec3b25f55432163514e4058e5c0b2d4f4b7769957d61",
    },
    "dim6_cap3": {
        "flat": "457e1c689726b5b8f00451b9f9ae357d04da9c459a992903d9111fc4f16dc9e2",
        "psi": "92a09f57a46df66986b97cd9c7352bee41bc9ca4926b27ec7db3529f33d9c9b4",
        "moved": "7eaf8d673a8fb960790b91ca6dd3c5201a9bb90d99d657a195658aedb71ac78e",
        "result_flat": "457e1c689726b5b8f00451b9f9ae357d04da9c459a992903d9111fc4f16dc9e2",
        "result_witness": "b3270a4675ba3e89c19e944911c424db5a4053091ba2c7756521e127c6865a6d",
        "result": "f9d50c38d0bdd2bc89427c9180562f46fc6544d3f61c99d99d9598a6cac6f31f",
    },
    "one_step": {
        "flat": "89236d296cfbea0332f61c6d09a6e7808da14198e15230f795e40a38cb5b8810",
        "psi": "32e2639cf30574e01ff93910180b493fa120810cbe3dea6e52f5a647383c7982",
        "moved": "0b67b652e1dc0d18bf9a7cdfcd743cf91091a0522fb5d18855d320bd2a9c5718",
        "result_flat": "89236d296cfbea0332f61c6d09a6e7808da14198e15230f795e40a38cb5b8810",
        "result_witness": "363544ff20fd62b88e5e926f884aa284114aca4d68289b3bcf5c82b199155827",
        "result": "ef3b09b1e18e848f8b981568413cd380ebaa27984b251dd86959565dfe545ef4",
    },
}


def sha(value):
    return hashlib.sha256(dumps(value).encode()).hexdigest()


def result_sha(result):
    tree = {"kind": "normalization_result", "version": FORMAT_VERSION,
            "flat": to_json(result.flat_curve), "witness": to_json(result.witness),
            "log": result.per_order_log}
    return hashlib.sha256((json.dumps(tree, indent=1) + "\n").encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_and_normalization_are_byte_identical(name):
    flat, psi, moved = conjugated_flat_fixture(**FIXTURES[name])
    result = normalize_curve(moved)
    got = {
        "flat": sha(flat),
        "psi": sha(psi),
        "moved": sha(moved),
        "result_flat": sha(result.flat_curve),
        "result_witness": sha(result.witness),
        "result": result_sha(result),
    }
    assert got == PINS[name]


# Every-order fixtures, moved at each order 1..cap (seed 7): the flat curve
# and the witness of `normalize_curve`, pinned at commit c468bcf.
EVERY_ORDER_PINS = {
    (4, 4): ("8d425ff47f2f51374116858225755f08d9c57531f5d2ee50ba3978adb37fee2b",
             "52c09689ee10d7cdd0c41dd83d47f4ccde5df592736edc48af4206c8f8102104"),
    (4, 8): ("e37e55fb8d24680219d602701c5ba4d45d07b8b0254fe838cb90973bb5ffe443",
             "8964e8ba780016fc7df8a92521d5e5a474df37fe339f9287f5c04d0c63e63937"),
    (4, 12): ("9b7c5a9119135b4fe2886433ae00752f47a374b979c7260ed6e650dd270d82cf",
              "a3bb9b01c5aabf13dec612e81bc0a5946b262816d6f0d3533dd9aec8d641b9c0"),
    (6, 8): ("188775e4c920afebe1d4a72c16315f5c0f28fec6783183ecf1aeef6e3bc85dcc",
             "64f4ada802a74b66b00cfee229a7288eb9d557f4144c5371fa0599a057676a24"),
}


@pytest.mark.parametrize("dim, cap", sorted(EVERY_ORDER_PINS))
def test_every_order_normalization_is_byte_identical(dim, cap):
    _, _, moved = conjugated_flat_fixture(7, dim=dim, cap=cap, orders=tuple(range(1, cap + 1)))
    result = normalize_curve(moved)
    assert (sha(result.flat_curve), sha(result.witness)) == EVERY_ORDER_PINS[(dim, cap)]
