"""Random complexes of any dimension against Steiner's theorem and the
brute-force oracle.

``conftest.attached_complex`` attaches generators along parallel cells, so
its outputs are chain complexes of dimension up to the one asked for,
strong Steiner or not.  On a strong Steiner complex the atoms form a loop-
free unital basis, so the closure of the atoms is all of nu(K) and
linearizing it recovers K (Steiner, "Omega-categories and chain
complexes", HHA 6, 2004): the certificate must pass, and the closure must
equal the cells found from the cell conditions alone.  Every cell seen on
those outputs has coefficients 0 or 1.
"""

from collections import Counter
from functools import cache

from conftest import attached_complex, largest_coeff
from polyadc import (
    brute_force_nu,
    enumerate_nu,
    is_strong_steiner_complex,
    validate_adc,
    verify_equivalence,
)

# (seed, top dimension, acyclic): edges and attachments that only go
# forward, up to dimension 5, and edges in either direction up to 4
INPUTS = ([(seed, 5, True) for seed in range(300)]
          + [(seed, 4, False) for seed in range(150)])


@cache
def outputs():
    return [attached_complex(seed, top_dim, acyclic=acyclic)
            for seed, top_dim, acyclic in INPUTS]


@cache
def steiner_outputs():
    return [(complex_, enumerate_nu(complex_)) for complex_ in outputs()
            if is_strong_steiner_complex(complex_)]


def test_the_outputs_are_chain_complexes_of_every_dimension():
    assert all(validate_adc(complex_).ok for complex_ in outputs())
    forward = Counter(complex_.max_degree for complex_ in outputs()[:300])
    either = Counter(complex_.max_degree for complex_ in outputs()[300:])
    assert sum(n for dim, n in forward.items() if dim >= 4) >= 50
    # pinned, so that a run under another hash seed must build the same ones
    assert forward == {1: 46, 2: 11, 3: 4, 4: 2, 5: 237}
    assert either == {1: 111, 2: 34, 3: 2, 4: 3}
    assert len(steiner_outputs()) == 275
    assert max(sum(map(len, complex_.basis)) for complex_ in outputs()) == 25


def test_a_strong_steiner_complex_certifies():
    for complex_, _ in steiner_outputs():
        report = verify_equivalence(complex_)
        assert report.ok, (complex_.basis, report.reason)


def test_the_closure_equals_the_cells_the_brute_force_finds_at_cap_1():
    # the candidate cap admits every degree of these outputs
    for complex_, enum in steiner_outputs():
        for q in range(complex_.max_degree + 1):
            found = brute_force_nu(complex_, q, 1)
            assert set(found) == set(enum.cells[q]), (complex_.basis, q)


def test_the_cells_of_a_strong_steiner_complex_have_coefficients_0_or_1():
    for complex_, enum in steiner_outputs():
        for q, cells in enum.cells.items():
            assert all(largest_coeff(cell) <= 1 for cell in cells), (complex_.basis, q)
