"""btpgeo.tensor: einsum over maps {index tuple: nonzero entry}, against
numpy.einsum on the dense object arrays of the same maps."""

import itertools
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from btpgeo.scalars import EC
from btpgeo.tensor import Map, conj, ein

SIZES = {"a": 2, "b": 3, "c": 2, "d": 3, "e": 1}


@st.composite
def einsum_cases(draw):
    """A spec of 1 to 4 operands, none with a repeated index, an output of
    distinct indices of the operands (none at all too), and a sparse map of
    small ints, Fractions or ExactComplex per operand."""
    ops = [draw(st.permutations(list(SIZES)))[:draw(st.integers(1, 3))]
           for _ in range(draw(st.integers(1, 4)))]
    used = sorted(set().union(*ops))
    out = draw(st.permutations(used))[:draw(st.integers(0, len(used)))]
    value = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3),
                      st.builds(EC, st.integers(-2, 2), st.integers(-2, 2)))
    maps = []
    for op in ops:
        keys = list(itertools.product(*(range(SIZES[c]) for c in op)))
        entries = draw(st.dictionaries(st.sampled_from(keys), value))
        maps.append({k: v for k, v in entries.items() if v})
    spec = ",".join("".join(op) for op in ops) + "->" + "".join(out)
    return spec, ops, maps


def _dense(entries, op):
    a = np.zeros([SIZES[c] for c in op], object)
    for k, v in entries.items():
        a[k] = v
    return a


@settings(max_examples=300, deadline=None)
@given(einsum_cases())
def test_ein_equals_numpy_einsum_on_dense_object_arrays(case):
    spec, ops, maps = case
    got = ein(spec, *maps)
    assert type(got) is Map and all(type(k) is tuple and v for k, v in got.items())
    out = spec.split("->")[1]
    want = np.einsum(spec, *(_dense(m, op) for m, op in zip(maps, ops)))
    for k in itertools.product(*(range(SIZES[c]) for c in out)):
        assert got.get(k, 0) == (want[k] if out else want), (spec, k)


def test_a_single_output_index_keys_by_a_tuple():
    X = {(0, 0): 2, (1, 2): 3}
    assert ein("ma,ma->m", X, X) == {(0,): 4, (1,): 9}
    assert ein("ab->", X) == {(): 5}


def test_map_sums_negation_scalars_and_conjugate():
    x = Map({(0,): EC(1, 1), (1,): EC(2)})
    y = Map({(0,): EC(-1, -1), (2,): EC(3)})
    assert x + y == {(1,): 2, (2,): 3}         # a cancelled entry is dropped
    assert x - x == {} and -x == {(0,): EC(-1, -1), (1,): -2}
    assert 2 * x == x * 2 == {(0,): EC(2, 2), (1,): 4}
    assert conj(x) == {(0,): EC(1, -1), (1,): 2}
    assert ein("a,a->a", {(0,): Fraction(1, 2)}, {(0,): 4}) == {(0,): 2}
