"""The manifest's config hash: SHA-256 written out in the CLI, checked against
FIPS 180-4's known answers, against hashlib (which the package never imports)
and against round constants derived here from the primes."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from sonicbh.cli import _SHA256_H0, _SHA256_K, _sha256_hex, main
from sonicbh.params import DEFAULT_CONFIG_TEXT


@pytest.mark.parametrize("message, digest", [
    (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
    (b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
     "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"),
], ids=["empty", "abc", "two-blocks"])
def test_fips_180_4_known_answers(message, digest):
    assert _sha256_hex(message) == digest


@pytest.mark.parametrize("length", [55, 56, 63, 64, 119, 120])
def test_every_padding_boundary(length):
    """55 bytes is the longest message whose padding fits its last block, 56
    the shortest that spills into another; 63, 64, 119 and 120 sit at the
    block edges and one block on."""
    message = bytes(range(256))[:length]
    assert _sha256_hex(message) == hashlib.sha256(message).hexdigest()


def test_manifest_hashes_non_ascii_config_as_utf8(tmp_path):
    """config_sha256 is the first 16 hex digits of SHA-256 of the config text
    as UTF-8, so sha256sum of the file verifies it."""
    text = "# Schallhorizont im Ionenring: ħ = 1, τ ≈ 1 s, Γ → 0\n" + DEFAULT_CONFIG_TEXT
    config = tmp_path / "ring.cfg"
    config.write_bytes(text.encode("utf-8"))
    out = tmp_path / "hawking.csv"
    assert main(["hawking", "--config", str(config), "--output", str(out)]) == 0
    manifest = out.read_text(encoding="utf-8").splitlines()[0].split()
    expected = hashlib.sha256(config.read_bytes()).hexdigest()[:16]
    assert f"config_sha256={expected}" in manifest


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=300))
def test_matches_hashlib_on_arbitrary_bytes(message):
    assert _sha256_hex(message) == hashlib.sha256(message).hexdigest()


def _primes(count):
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _integer_root(n, k):
    """The largest r with r**k <= n, by bisection on integers."""
    lo, hi = 0, 1 << (n.bit_length() // k + 1)
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if mid ** k <= n:
            lo = mid
        else:
            hi = mid - 1
    return lo


def test_constants_are_the_fractional_bits_of_prime_roots():
    """K[i] is the first 32 fractional bits of the cube root of the i-th prime,
    H0[i] those of its square root: floor(p^(1/k) 2^32) mod 2^32, computed
    exactly as the integer k-th root of p 2^(32 k)."""
    primes = _primes(64)
    assert _SHA256_K == tuple(_integer_root(p << 96, 3) % 2 ** 32 for p in primes)
    assert _SHA256_H0 == tuple(_integer_root(p << 64, 2) % 2 ** 32 for p in primes[:8])
