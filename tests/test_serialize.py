"""Canonical JSON bytes, pinned as literals.

Every report digest depends on these bytes: integral floats below 1e16 keep
one decimal, other floats print with 17 significant digits, keys are sorted,
and strings escape only '"', '\\' and code points below 0x20.
"""

import pytest

from loewner_lab.serialize import digest, dumps_canonical

CASES = [
    ([0.0, 1.0, -2.0, 3.0e15, 9999999999999998.0],
     "[0.0,1.0,-2.0,3000000000000000.0,9999999999999998.0]"),
    (-0.0, "-0.0"),
    # The switch at 1e16: integral floats at or above it print with .17g.
    ([1e16, -1e16, 1e16 - 2.0, 1.5e16],
     "[10000000000000000,-10000000000000000,9999999999999998.0,15000000000000000]"),
    ([0.1, 1 / 3, -2.5, 1e-300, 5e-324, 1.7976931348623157e308, 123456789.123],
     "[0.10000000000000001,0.33333333333333331,-2.5,1e-300,4.9406564584124654e-324,"
     "1.7976931348623157e+308,123456789.123]"),
    ([0, -7, 2**70, True, False, None], "[0,-7,1180591620717411303424,true,false,null]"),
    ({"b": [1, (2.5, "x")], "a": {"z": 1, "y": None}, "": 0},
     '{"":0,"a":{"y":null,"z":1},"b":[1,[2.5,"x"]]}'),
    ({'k"\n': "v"}, '{"k\\"\\n":"v"}'),
    ("".join(chr(c) for c in range(0x20)),
     '"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007\\b\\t\\n\\u000b\\f\\r'
     '\\u000e\\u000f\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017\\u0018\\u0019'
     '\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f"'),
    # DEL, non-ASCII text and a lone surrogate pass through as written.
    ('"\\\x7fé€\U0001d11e\ud800', '"\\"\\\\\x7fé€\U0001d11e\ud800"'),
]


@pytest.mark.parametrize("obj, text", CASES)
def test_canonical_bytes(obj, text):
    assert dumps_canonical(obj) == text


def test_digest_is_a_prefix_of_the_sha256_of_the_text():
    assert digest({"a": 1}) == "015abd7f5cc57a2d"


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_floats_are_refused(value):
    with pytest.raises(ValueError, match="cannot enter a canonical report"):
        dumps_canonical({"x": [value]})


@pytest.mark.parametrize("obj, message", [
    ({1: 2}, "non-string key 1"),
    ({(1,): 2}, r"non-string key \(1,\)"),
    ({1, 2}, "cannot serialize set"),
    (b"x", "cannot serialize bytes"),
    (1 + 2j, "cannot serialize complex"),
])
def test_unsupported_input_is_a_type_error(obj, message):
    with pytest.raises(TypeError, match=message):
        dumps_canonical(obj)
