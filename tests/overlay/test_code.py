"""Unit and property tests for binary node codes."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.overlay import code as code_module
from repro.overlay.code import Code, intern_code

bits_st = st.text(alphabet="01", max_size=24)


def test_empty_code():
    c = Code()
    assert len(c) == 0
    assert str(c) == "ε"
    with pytest.raises(ValueError):
        c.sibling()
    with pytest.raises(ValueError):
        c.shorten()


def test_invalid_bits_rejected():
    with pytest.raises(ValueError):
        Code("012")


@pytest.mark.parametrize("bits", ["0_1", " 01", "0 1", "\n", "2", "10a"])
def test_non_binary_characters_rejected(bits):
    # int(bits, 2) alone accepts "0_1" and surrounding whitespace.
    with pytest.raises(ValueError):
        Code(bits)


@pytest.mark.parametrize("bits", ["", "0110", "1"])
def test_valid_bits_accepted(bits):
    assert Code(bits).bits == bits
    assert len(Code(bits)) == len(bits)


def test_immutable():
    c = Code("01")
    with pytest.raises(AttributeError):
        c.bits = "10"


def test_prefix_relations():
    assert Code("0").is_prefix_of(Code("01"))
    assert not Code("01").is_prefix_of(Code("0"))
    assert Code("").is_prefix_of(Code("1101"))
    assert Code("01").comparable(Code("0"))
    assert not Code("01").comparable(Code("00"))


def test_common_prefix_len():
    assert Code("0101").common_prefix_len(Code("0110")) == 2
    assert Code("0101").common_prefix_len(Code("0101")) == 4
    assert Code("").common_prefix_len(Code("111")) == 0


def test_first_diff():
    assert Code("0101").first_diff(Code("0110")) == 2
    assert Code("01").first_diff(Code("0100")) == -1


def test_sibling_and_shorten():
    assert Code("0100").sibling() == Code("0101")
    assert Code("0101").sibling() == Code("0100")
    assert Code("0101").shorten() == Code("010")


def test_flip():
    assert Code("0000").flip(1) == Code("0100")
    with pytest.raises(IndexError):
        Code("00").flip(2)


def test_prefix():
    assert Code("0101").prefix(2) == Code("01")
    with pytest.raises(ValueError):
        Code("01").prefix(3)


def test_extend():
    assert Code("01").extend("1") == Code("011")
    with pytest.raises(ValueError):
        Code("01").extend("x")


def test_hash_and_eq():
    assert Code("01") == Code("01")
    assert hash(Code("01")) == hash(Code("01"))
    assert Code("01") != Code("10")
    assert len({Code("0"), Code("0"), Code("1")}) == 2


@given(bits_st)
def test_sibling_involution(bits):
    if bits:
        c = Code(bits)
        assert c.sibling().sibling() == c
        assert c.sibling() != c
        assert c.sibling().shorten() == c.shorten()


@given(bits_st, bits_st)
def test_common_prefix_symmetry(a, b):
    ca, cb = Code(a), Code(b)
    assert ca.common_prefix_len(cb) == cb.common_prefix_len(ca)
    cpl = ca.common_prefix_len(cb)
    assert a[:cpl] == b[:cpl]


@given(bits_st, bits_st)
def test_comparable_iff_full_prefix_match(a, b):
    ca, cb = Code(a), Code(b)
    assert ca.comparable(cb) == (ca.common_prefix_len(cb) == min(len(a), len(b)))


@pytest.fixture
def small_generations(monkeypatch):
    """An empty intern table whose generations hold four codes each."""
    monkeypatch.setattr(code_module, "_GENERATION", 4)
    monkeypatch.setattr(code_module, "_young", {})
    monkeypatch.setattr(code_module, "_old", {})


def test_intern_table_keeps_at_most_two_generations(small_generations):
    for i in range(50):
        intern_code(format(i, "08b"))
        assert len(code_module._young) < 4
        assert len(code_module._old) <= 4
    assert set(code_module._old) | set(code_module._young) <= {
        format(i, "08b") for i in range(40, 50)
    }


def test_old_generation_hit_is_shared_and_survives_the_next_turnover(small_generations):
    held = intern_code("0")
    for bits in ("1", "10", "11"):
        intern_code(bits)
    assert "0" in code_module._old and "0" not in code_module._young
    assert intern_code("0") is held
    for bits in ("100", "101", "110"):
        intern_code(bits)
    assert intern_code("0") is held  # back in the young generation, not dropped


def test_evicted_code_is_rebuilt_equal_to_the_one_a_caller_holds(small_generations):
    held = intern_code("0101")
    for i in range(8):
        intern_code(format(i, "06b"))
    rebuilt = intern_code("0101")
    assert rebuilt is not held
    assert rebuilt == held and hash(rebuilt) == hash(held)
    assert {held: "region"}[rebuilt] == "region"
    assert held.comparable(rebuilt) and rebuilt.common_prefix_len(held) == 4
