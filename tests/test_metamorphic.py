"""Metamorphic relations between chains (Chen et al., ACM CSUR 51(1), 2018).

Each relation says that chains the library builds separately must agree,
without knowing the right value of either:

* with the identity map, LC-MAP, LC-MAP-V2 and LC-MAP-V3 reproduce LC-QUAD's
  link min-eigenvalues on the same equal-sum instance;
* with the identity map, SQ-MAP, SQ-MAP-V2 and SQ-MAP-V3 coincide;
* conjugating every operator of an instance by one Haar unitary leaves the
  link spectra of LC-QUAD, LC-MID, SQ-QUAD and SQ-MID unchanged.

Each holds to 1e-10 relative to the largest term (at least 1), at dims 2 to 6.
"""

import dataclasses

import numpy as np
import pytest

from loewner_lab.chains import THEOREMS, build_chain, evaluate_chain, sample_instance_for
from loewner_lab.functions import parse_function_spec
from loewner_lab.hermitian import HermitianMatrix, eigenvalues_of
from loewner_lab.maps import IdentityMap, random_isometry
from loewner_lab.seeding import spawn_rng

REL = 1e-10
DIMS = range(2, 7)
SEEDS = range(3)


def _scale(*chains) -> float:
    return max(1.0, *(term.fro_norm for chain in chains for term in chain.terms))


def _link_minima(chain) -> np.ndarray:
    return np.array([link.min_eigenvalue for link in evaluate_chain(chain).links])


def _identity_chains(tids, f_spec, dim, seed, reference=None):
    """The chains of ``tids`` (and of ``reference``, first) on one sampled
    equal-sum instance, every map the identity."""
    f = parse_function_spec(f_spec)
    inst = sample_instance_for(THEOREMS[tids[0]], f, dim, 0.5, 2.0, spawn_rng(811, dim, seed))
    chains = [build_chain(tid, inst, f, IdentityMap(dim)) for tid in tids]
    return ([build_chain(reference, inst, f)] if reference else []) + chains


@pytest.mark.parametrize("f_spec", ["exp", "pow:p=-1"])
@pytest.mark.parametrize("dim", DIMS)
def test_identity_map_lc_chains_reproduce_lc_quad(dim, f_spec):
    for seed in SEEDS:
        quad, *mapped = _identity_chains(["LC-MAP", "LC-MAP-V2", "LC-MAP-V3"], f_spec, dim, seed,
                                         reference="LC-QUAD")
        scale, expected = _scale(quad, *mapped), _link_minima(quad)
        for chain in mapped:
            assert np.max(np.abs(_link_minima(chain) - expected)) <= REL * scale, chain.theorem


@pytest.mark.parametrize("f_spec", ["pow:p=2", "pow:p=2.5"])
@pytest.mark.parametrize("dim", DIMS)
def test_identity_map_sq_chains_coincide(dim, f_spec):
    for seed in SEEDS:
        first, *others = _identity_chains(["SQ-MAP", "SQ-MAP-V2", "SQ-MAP-V3"], f_spec, dim, seed)
        scale, expected = _scale(first, *others), _link_minima(first)
        for chain in others:
            for term, ref in zip(chain.terms, first.terms):
                assert np.linalg.norm(term.entries - ref.entries) <= REL * scale, chain.theorem
            assert np.max(np.abs(_link_minima(chain) - expected)) <= REL * scale, chain.theorem


def _conjugated(inst, u: np.ndarray):
    """The instance with every operator X replaced by U* X U."""
    return dataclasses.replace(inst, **{
        field.name: HermitianMatrix(u.conj().T @ getattr(inst, field.name).entries @ u)
        for field in dataclasses.fields(inst)
        if isinstance(getattr(inst, field.name), HermitianMatrix)})


def _link_spectra(chain) -> list:
    return [eigenvalues_of(upper - lower) for lower, upper in zip(chain.terms, chain.terms[1:])]


@pytest.mark.parametrize("tid, f_spec", [("LC-QUAD", "exp"), ("LC-QUAD", "pow:p=-1"),
                                         ("LC-MID", "exp"), ("LC-MID", "pow:p=-1"),
                                         ("SQ-QUAD", "pow:p=2"), ("SQ-QUAD", "pow:p=2.5"),
                                         ("SQ-MID", "pow:p=2"), ("SQ-MID", "pow:p=2.5")])
@pytest.mark.parametrize("dim", DIMS)
def test_haar_conjugation_keeps_link_spectra(tid, f_spec, dim):
    f = parse_function_spec(f_spec)
    for seed in SEEDS:
        rng = spawn_rng(812, dim, seed)
        inst = sample_instance_for(THEOREMS[tid], f, dim, 0.5, 2.0, rng)
        chain = build_chain(tid, inst, f)
        turned = build_chain(tid, _conjugated(inst, random_isometry(dim, dim, rng)), f)
        scale = _scale(chain, turned)
        for lam, turned_lam in zip(_link_spectra(chain), _link_spectra(turned)):
            assert np.max(np.abs(lam - turned_lam)) <= REL * scale, (seed, lam, turned_lam)
