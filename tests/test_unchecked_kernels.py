"""The boundary and augmentation kernels, and vector construction, against
the per-term checked loops they replace when a norm bound allows.

``Adc.boundary_vec`` and ``Adc.eps`` add plain ints when the chain's L1
norm times the complex's largest differential L1 norm (or largest
|augmentation|) lies in the checked 64-bit range, and ``IntVector`` calls
``_ck`` only on a value outside it.  The reference loops below check every
product and every partial sum, in name order.  On random complexes and
vectors, with coefficients both small and near 2**61 to 2**63, each kernel
must give the same entries in the same order as its reference, or raise
CoefficientOverflow with the same message.
"""

import random

import pytest

from polyadc import Adc, IntVector
from polyadc import adc as adc_mod
from polyadc.zlin import INT64_MAX, CoefficientOverflow, _ck


# ---------------------------------------------------------------------------
# the checked loops, every term through _ck

def checked_boundary(complex_, vector):
    acc = {}
    for name, coeff in sorted(vector._entries.items()):
        for below, c in sorted(complex_._diff[name]._entries.items()):
            acc[below] = _ck(acc.get(below, 0) + _ck(coeff * c))
    return checked_of(acc)


def checked_eps(complex_, vector):
    total = 0
    for name, coeff in sorted(vector._entries.items()):
        total = _ck(total + _ck(complex_._aug[name] * coeff))
    return total


def checked_of(data):
    return {k: _ck(v) for k, v in data.items() if v}


def checked_sum(a, b, sign):
    data = dict(a._entries)
    for k, c in b._entries.items():
        data[k] = data.get(k, 0) + sign * c
    return checked_of(data)


def outcome(compute):
    """The entries (as an ordered list) or int a computation returns, or
    the message of the CoefficientOverflow it raises."""
    try:
        value = compute()
    except CoefficientOverflow as exc:
        return "overflow", str(exc)
    if isinstance(value, IntVector):
        value = value._entries
    return "value", list(value.items()) if isinstance(value, dict) else value


# ---------------------------------------------------------------------------
# random inputs

def coefficient(rng, big, share=0.5):
    """A nonzero coefficient: small, or with probability ``share`` near
    2**61 to 2**63 and at most ``big``."""
    if rng.random() >= share:
        value = rng.randint(1, 3)
    else:
        value = rng.choice([rng.randint(2**61, big), big, 2**62, 2**61])
    return value if rng.random() < 0.5 else -value


def random_vector(rng, names, big=INT64_MAX, share=0.5):
    chosen = rng.sample(names, rng.randint(1, len(names)))
    return {name: coefficient(rng, big, share) for name in chosen}


def random_complex(rng, share):
    basis = [["v%d" % i for i in range(rng.randint(1, 4))]]
    for q in range(1, rng.randint(2, 4)):
        basis.append(["g%d_%d" % (q, i) for i in range(rng.randint(1, 4))])
    diff = {name: IntVector(random_vector(rng, basis[q - 1], share=share))
            for q in range(1, len(basis)) for name in basis[q]}
    aug = {name: coefficient(rng, INT64_MAX, share) for name in basis[0]}
    return Adc(basis, diff, aug)


@pytest.mark.parametrize("seed", range(8))
def test_kernels_match_the_checked_loops_on_random_complexes(seed, monkeypatch):
    rng = random.Random(seed)
    calls = []
    monkeypatch.setattr(adc_mod, "_ck", lambda v: calls.append(v) or _ck(v))
    paths = {"plain": 0, "checked": 0}
    for _ in range(150):
        # a third of the complexes, and their chains, hold only small coefficients
        share = rng.choice([0.0, 0.1, 0.5])
        complex_ = random_complex(rng, share)
        for _ in range(4):
            q = rng.randint(1, complex_.max_degree)
            vec = IntVector(random_vector(rng, list(complex_.generators(q)), share=share))
            chain = IntVector(random_vector(rng, list(complex_.generators(0)), share=share))
            for got, want in ((lambda: complex_.boundary_vec(q, vec),
                               lambda: checked_boundary(complex_, vec)),
                              (lambda: complex_.eps(chain),
                               lambda: checked_eps(complex_, chain))):
                del calls[:]
                assert outcome(got) == outcome(want)
                paths["checked" if calls else "plain"] += 1
    # both the plain sum and the per-term checked loop ran
    assert min(paths.values()) > 200, paths


@pytest.mark.parametrize("seed", range(8))
def test_vector_construction_and_sums_match_the_checked_loop(seed):
    rng = random.Random(100 + seed)
    names = ["a", "b", "c", "d", "e"]
    for _ in range(400):
        # up to 2**63, one past the window
        a = random_vector(rng, names, 2**63)
        b = random_vector(rng, names, 2**63)
        assert outcome(lambda: IntVector._of(dict(a))) == outcome(lambda: checked_of(a))
        pairs = list(a.items()) + list(b.items())
        rng.shuffle(pairs)
        summed = {}
        for name, c in pairs:
            summed[name] = summed.get(name, 0) + c
        assert outcome(lambda: IntVector(pairs)) == outcome(lambda: checked_of(summed))
        x, y = IntVector(random_vector(rng, names)), IntVector(random_vector(rng, names))
        assert outcome(lambda: x + y) == outcome(lambda: checked_sum(x, y, 1))
        assert outcome(lambda: x - y) == outcome(lambda: checked_sum(x, y, -1))
    # the first value out of range, in insertion order, is the one named
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % -2**63):
        IntVector._of({"b": 1, "a": -2**63, "c": 2**64})


# ---------------------------------------------------------------------------
# the edges of the bound

def two_edges():
    """Edges e1, e2 with boundaries 2**62 x and 2**62 y; vertices x, y with
    augmentations 2**62 and -2**62."""
    big = 2**62
    return Adc([["x", "y"], ["e1", "e2"]],
               {"e1": IntVector({"x": big}), "e2": IntVector({"y": big})},
               {"x": big, "y": -big})


def test_a_failed_bound_with_every_sum_in_range_gives_the_exact_result(monkeypatch):
    k = two_edges()
    calls = []
    monkeypatch.setattr(adc_mod, "_ck", lambda v: calls.append(v) or _ck(v))
    # the bound is 2 * 2**62 = 2**63, one past the window: every term is checked
    assert k.boundary_vec(1, IntVector({"e1": 1, "e2": 1})) == \
        IntVector({"x": 2**62, "y": 2**62})
    assert len(calls) == 4
    del calls[:]
    assert k.eps(IntVector({"x": 1, "y": 1})) == 0
    assert len(calls) == 4
    # and past it the same terms overflow where the checked loop does
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % 2**63):
        k.boundary_vec(1, IntVector({"e1": 2, "e2": 1}))
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % 2**63):
        k.eps(IntVector({"x": 2, "y": 1}))


def test_a_bound_met_with_equality_takes_the_plain_sum(monkeypatch):
    # 2**63 - 1 = 7 * m: a differential of L1 norm 7 on a chain of norm m
    m = INT64_MAX // 7
    assert 7 * m == INT64_MAX
    k = Adc([["x", "y"], ["e"]], {"e": IntVector({"x": 3, "y": 4})}, {"x": 7, "y": 1})
    calls = []
    monkeypatch.setattr(adc_mod, "_ck", lambda v: calls.append(v) or _ck(v))
    assert k.boundary_vec(1, IntVector({"e": m})) == IntVector({"x": 3 * m, "y": 4 * m})
    assert k.eps(IntVector({"x": m})) == INT64_MAX
    assert k.eps(IntVector({"x": -m})) == -INT64_MAX
    assert calls == []
    # one more and the bound fails: every term is checked, and 7 * (m + 1)
    # leaves the window
    with pytest.raises(CoefficientOverflow, match="coefficient %d exceeds" % (7 * (m + 1))):
        k.eps(IntVector({"x": m + 1}))
    assert calls
