"""Golden byte-identity of every registered chain and its baseline.

Each theorem is built at dim 3 on fixed seeds, for every map kind it
accepts and every function among exp, pow:p=-1 and pow:p=2 that fits its
hypotheses.  The canonical JSON of the full-chain report and of the
baseline report of every case feeds one SHA-256 per theorem, so a change
in any term value, label or floating-point grouping names the theorem it
touched.
"""

import hashlib

import pytest

from loewner_lab.chains import (
    THEOREMS,
    baseline_chain,
    build_chain,
    evaluate_chain,
    sample_instance_for,
)
from loewner_lab.functions import parse_function_spec
from loewner_lab.maps import sample_map
from loewner_lab.seeding import spawn_rng
from loewner_lab.serialize import dumps_canonical

DIM = 3
M_LO, M_HI = 0.5, 2.0
SEED = 4242
FUNCTIONS = ("exp", "pow:p=-1", "pow:p=2")
SINGLE_MAPS = ("identity", "pinching", "compression", "mixed")

GOLDEN = {
    "JM-BASE": "f367fb919efac1a517342c21c20a7b30281a9572bfb6992057e875c9873e32ae",
    "LC-MAP": "38f2788e9b6fc2b615dcb81939ffac9529659273c6d1ec8f4405b20cca27d8fa",
    "LC-MAP-V2": "2ce6a82d82b5b09f30f6dfa800bf5260b1ba72bf3591e1f54e37ec52a1af6cac",
    "LC-MAP-V3": "1430811621d1b19ecef84ad4c950d9d2bf84e8df2b76d92aec9301c64d559cd3",
    "LC-MERCER": "c102015124cfb7d06337348543ece319e74f9dfd367723d9c470bad6d6d674fa",
    "LC-MID": "2cebd03b4dc4b2e612325f0d18a950c7d8ec14b0d525d811e4d3a340c4bf9248",
    "LC-MULTI": "f078bd549ef68ecee052974e6095d77f340a0de748565594824440cdb431a326",
    "LC-POW": "d820099cecbafa0c9bc07e9c1236fb841612d6f4c7693fc47a23e8a73bcedc42",
    "LC-QUAD": "3fcfd1d9ffd9b3211694eebe446bcdfa58b982999ec05398a5ad2825d5c36b91",
    "MOS-BASE": "a91f45cd81b213e1b21aaead922f403c8bb9c7c9016234cffda61f26be47a062",
    "SQ-MAP": "c2a73d810ee18592b08860db6513a2150cc221e1a0df730fb523539be7313bc9",
    "SQ-MAP-V2": "6a5fc367814b5c5ea0ab815c4766175cdaba3885d4c902ed64b06e518b629971",
    "SQ-MAP-V3": "cdbb5e942f2a83e50d769590c315ea7c556036c41bb3379f3a770ed35cd74b5f",
    "SQ-MERCER": "14fd8a01033ebfb5e1aa2dce774b6628eb7ce4567c0fed1246051f9f3bcbf2e1",
    "SQ-MID": "cf97fd17d3d695ee4fcf2adbc3fdb32a35c1f4127b8bc5398dead37d5d22d029",
    "SQ-MULTI-A": "be593321e4a4d02ab3b6bb18a52a86eb8094f26937f1bf64cd451f884dcdccbf",
    "SQ-MULTI-B": "ca5d64fd827dc227aa70f00080bbceb44be38bd3d479a2e1b33ee287098ccc0f",
    "SQ-POW": "81f66c9d076a03f1821f0d88ac426d366c0528fa02f59c0e6ed1302c7eaaf81f",
    "SQ-QUAD": "2ca76573edc366aeba3ad14100a149f03f7cda6bb36a5d7dab12dd66d79a8d8b",
}


def _fits(spec, f) -> bool:
    if spec.required_class not in f.classes:
        return False
    if spec.power_predicate is not None:
        p = f.params.get("p")
        return p is not None and spec.power_predicate(p)
    return True


def _cases(spec):
    maps = {"single": SINGLE_MAPS, "family": ("family:n=3",), "none": (None,)}[spec.map_mode]
    for f_spec in FUNCTIONS:
        if _fits(spec, parse_function_spec(f_spec)):
            for map_spec in maps:
                yield f_spec, map_spec


def theorem_digest(tid: str) -> str:
    spec = THEOREMS[tid]
    tid_index = sorted(THEOREMS).index(tid)
    h = hashlib.sha256()
    for case, (f_spec, map_spec) in enumerate(_cases(spec)):
        f = parse_function_spec(f_spec)
        rng = spawn_rng(SEED, tid_index, case)
        inst = sample_instance_for(spec, f, DIM, M_LO, M_HI, rng)
        maps = sample_map(map_spec, DIM, rng) if spec.map_mode == "single" else None
        full = evaluate_chain(build_chain(tid, inst, f, maps), seed=case)
        base = evaluate_chain(baseline_chain(tid, inst, f, maps), seed=case)
        h.update(f"{f_spec}|{map_spec}\n".encode())
        h.update(dumps_canonical(full.to_dict()).encode() + b"\n")
        h.update(dumps_canonical(base.to_dict()).encode() + b"\n")
    return h.hexdigest()


def test_golden_covers_every_theorem():
    assert sorted(GOLDEN) == sorted(THEOREMS)


@pytest.mark.parametrize("tid", sorted(GOLDEN))
def test_chain_reports_are_byte_identical(tid):
    assert theorem_digest(tid) == GOLDEN[tid], tid
