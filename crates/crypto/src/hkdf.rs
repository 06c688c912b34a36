//! HKDF-SHA256 key derivation as specified in RFC 5869.
//!
//! Used throughout the workspace to derive independent sub-keys (e.g.
//! an encryption key and a MAC key for [`crate::keywrap`]) from a
//! single key-encryption key, and by the OFT scheme to derive node keys
//! from blinded child keys.

use crate::hmac::HmacKey;
use crate::sha256::DIGEST_LEN;

/// HKDF-Extract: derives a pseudorandom key from input keying material.
pub fn extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    extract_with(&HmacKey::new(salt), ikm)
}

/// HKDF-Extract under a salt already scheduled as an HMAC key —
/// callers that extract many keys under one fixed salt (as
/// [`crate::Key::derive`] does) skip the salt's two pad compressions.
pub fn extract_with(salt: &HmacKey, ikm: &[u8]) -> [u8; DIGEST_LEN] {
    let mut mac = salt.mac();
    mac.update(ikm);
    mac.finalize()
}

/// HKDF-Expand: expands `prk` into `out.len()` bytes of output keying
/// material, bound to `info`.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC 5869 limit).
pub fn expand(prk: &[u8], info: &[u8], out: &mut [u8]) {
    expand_with(&HmacKey::new(prk), info, out);
}

/// HKDF-Expand from a PRK already scheduled as an HMAC key, so several
/// labels expanded from one PRK share its pad compressions.
/// Allocation-free.
///
/// # Panics
///
/// Panics if `out.len() > 255 * 32` (the RFC 5869 limit).
pub fn expand_with(prk: &HmacKey, info: &[u8], out: &mut [u8]) {
    assert!(
        out.len() <= 255 * DIGEST_LEN,
        "HKDF-Expand output too long: {} bytes",
        out.len()
    );
    // T(0) is empty; T(i) = HMAC(PRK, T(i-1) || info || i).
    let mut t = [0u8; DIGEST_LEN];
    for (i, chunk) in out.chunks_mut(DIGEST_LEN).enumerate() {
        let mut mac = prk.mac();
        if i > 0 {
            mac.update(&t);
        }
        mac.update(info);
        mac.update(&[i as u8 + 1]);
        t = mac.finalize();
        chunk.copy_from_slice(&t[..chunk.len()]);
    }
}

/// Convenience: extract-then-expand in one call.
pub fn derive(salt: &[u8], ikm: &[u8], info: &[u8], out: &mut [u8]) {
    rekey_obs::count("crypto.hkdf", 1);
    let prk = extract(salt, ikm);
    expand(&prk, info, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    #[test]
    fn rfc5869_case_1() {
        let ikm = [0x0bu8; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    /// Case 2: long inputs and a three-block (82-byte) expansion, so
    /// the `T(i-1)` chaining is exercised.
    #[test]
    fn rfc5869_case_2() {
        let ikm: Vec<u8> = (0x00..=0x4f).collect();
        let salt: Vec<u8> = (0x60..=0xaf).collect();
        let info: Vec<u8> = (0xb0..=0xff).collect();
        let prk = extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "06a6b88c5853361a06104c9ceb35b45cef760014904671014a193f40c15fc244"
        );
        let mut okm = [0u8; 82];
        expand(&prk, &info, &mut okm);
        assert_eq!(
            hex(&okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c\
             59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71\
             cc30c58179ec3e87c14c01d5c1f3434f1d87"
        );
    }

    /// Case 3: empty salt and info.
    #[test]
    fn rfc5869_case_3() {
        let ikm = [0x0bu8; 22];
        let prk = extract(&[], &ikm);
        assert_eq!(
            hex(&prk),
            "19ef24a32c717b167f33a91d6f648bdf96596776afdb6377ac434c1c293ccb04"
        );
        let mut okm = [0u8; 42];
        expand(&prk, &[], &mut okm);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn derive_matches_extract_expand() {
        let mut a = [0u8; 64];
        let mut b = [0u8; 64];
        derive(b"salt", b"ikm", b"info", &mut a);
        let prk = extract(b"salt", b"ikm");
        expand(&prk, b"info", &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn scheduled_variants_match_plain() {
        let salt = HmacKey::new(b"salt");
        let prk = extract(b"salt", b"ikm");
        assert_eq!(extract_with(&salt, b"ikm"), prk);
        let mut a = [0u8; 100];
        let mut b = [0u8; 100];
        expand(&prk, b"info", &mut a);
        expand_with(&HmacKey::new(&prk), b"info", &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn different_info_different_output() {
        let mut a = [0u8; 32];
        let mut b = [0u8; 32];
        derive(b"s", b"k", b"enc", &mut a);
        derive(b"s", b"k", b"mac", &mut b);
        assert_ne!(a, b);
    }

    #[test]
    fn multi_block_expansion_is_prefix_consistent() {
        let prk = extract(b"s", b"k");
        let mut long = [0u8; 100];
        let mut short = [0u8; 32];
        expand(&prk, b"i", &mut long);
        expand(&prk, b"i", &mut short);
        assert_eq!(&long[..32], &short[..]);
    }

    #[test]
    #[should_panic(expected = "output too long")]
    fn expand_rejects_oversize() {
        let mut out = vec![0u8; 255 * 32 + 1];
        expand(&[0u8; 32], b"", &mut out);
    }
}
