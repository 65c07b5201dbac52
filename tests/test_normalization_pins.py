"""Byte-identity pins for the normalization recursion and its fixtures:
sha256 of `serialize.dumps` of each result, taken at commit 1527931."""

import hashlib

import pytest

from sympconn.generate import conjugated_flat_fixture
from sympconn.normalization import normalize_curve
from sympconn.serialize import dumps

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
        "result": sha(result),
    }
    assert got == PINS[name]
