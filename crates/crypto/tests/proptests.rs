//! Property-based tests for the cryptographic primitives.

use proptest::prelude::*;
use rekey_crypto::keywrap::{WrapKek, NONCE_LEN, TAG_LEN, WRAPPED_LEN};
use rekey_crypto::{chacha20, hkdf, hmac, keywrap, sha256, Key};

/// A wrap built the way `WrapKek::new` used to build it: two full
/// RFC 5869 derivations (each with its own salt schedule, extract and
/// PRK schedule), then ChaCha20 and a truncated HMAC-SHA256 tag over
/// `nonce || ciphertext`.
fn two_derive_wrap(kek: &Key, payload: &Key, nonce: [u8; NONCE_LEN]) -> [u8; WRAPPED_LEN] {
    let mut enc_key = [0u8; 32];
    let mut mac_key = [0u8; 32];
    hkdf::derive(
        b"rekey-key-derive",
        kek.as_bytes(),
        b"wrap-enc",
        &mut enc_key,
    );
    hkdf::derive(
        b"rekey-key-derive",
        kek.as_bytes(),
        b"wrap-mac",
        &mut mac_key,
    );
    let mut ciphertext = *payload.as_bytes();
    chacha20::xor_in_place(&enc_key, &nonce, 1, &mut ciphertext);
    let mut mac = hmac::HmacSha256::new(&mac_key);
    mac.update(&nonce);
    mac.update(&ciphertext);
    let tag = mac.finalize();
    let mut out = [0u8; WRAPPED_LEN];
    out[..NONCE_LEN].copy_from_slice(&nonce);
    out[NONCE_LEN..NONCE_LEN + 32].copy_from_slice(&ciphertext);
    out[NONCE_LEN + 32..].copy_from_slice(&tag[..TAG_LEN]);
    out
}

proptest! {
    /// Incremental hashing over arbitrary chunk splits matches the
    /// one-shot digest.
    #[test]
    fn sha256_incremental_equals_oneshot(data in proptest::collection::vec(any::<u8>(), 0..2048),
                                         split in 0usize..2048) {
        let split = split.min(data.len());
        let mut h = sha256::Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        prop_assert_eq!(h.finalize(), sha256::digest(&data));
    }

    /// SHA-256 output differs whenever a single byte is flipped
    /// (collision would be astronomically unlikely; this catches
    /// state-handling bugs such as ignored tail bytes).
    #[test]
    fn sha256_sensitive_to_flips(mut data in proptest::collection::vec(any::<u8>(), 1..512),
                                 idx in any::<prop::sample::Index>()) {
        let original = sha256::digest(&data);
        let i = idx.index(data.len());
        data[i] ^= 0xFF;
        prop_assert_ne!(sha256::digest(&data), original);
    }

    /// HMAC differs under different keys.
    #[test]
    fn hmac_key_separation(key1 in proptest::collection::vec(any::<u8>(), 1..80),
                           key2 in proptest::collection::vec(any::<u8>(), 1..80),
                           msg in proptest::collection::vec(any::<u8>(), 0..256)) {
        prop_assume!(key1 != key2);
        prop_assert_ne!(hmac::hmac(&key1, &msg), hmac::hmac(&key2, &msg));
    }

    /// ChaCha20 is an involution under XOR.
    #[test]
    fn chacha20_roundtrip(key in any::<[u8; 32]>(),
                          nonce in any::<[u8; 12]>(),
                          counter in any::<u32>(),
                          data in proptest::collection::vec(any::<u8>(), 0..512)) {
        let mut buf = data.clone();
        chacha20::xor_in_place(&key, &nonce, counter, &mut buf);
        chacha20::xor_in_place(&key, &nonce, counter, &mut buf);
        prop_assert_eq!(buf, data);
    }

    /// HKDF expansion is deterministic and prefix-consistent.
    #[test]
    fn hkdf_prefix_consistency(salt in proptest::collection::vec(any::<u8>(), 0..64),
                               ikm in proptest::collection::vec(any::<u8>(), 1..64),
                               info in proptest::collection::vec(any::<u8>(), 0..64),
                               short_len in 1usize..64,
                               long_len in 64usize..256) {
        let mut long = vec![0u8; long_len];
        let mut short = vec![0u8; short_len];
        hkdf::derive(&salt, &ikm, &info, &mut long);
        hkdf::derive(&salt, &ikm, &info, &mut short);
        prop_assert_eq!(&long[..short_len], &short[..]);
    }

    /// Key wrap always roundtrips under the correct KEK and never
    /// under a different KEK.
    #[test]
    fn keywrap_roundtrip_and_auth(kek_bytes in any::<[u8; 32]>(),
                                  other_bytes in any::<[u8; 32]>(),
                                  payload_bytes in any::<[u8; 32]>(),
                                  nonce in any::<[u8; 12]>()) {
        prop_assume!(kek_bytes != other_bytes);
        let kek = Key::from_bytes(kek_bytes);
        let other = Key::from_bytes(other_bytes);
        let payload = Key::from_bytes(payload_bytes);
        let wrapped = keywrap::wrap_with_nonce(&kek, &payload, nonce);
        prop_assert_eq!(keywrap::unwrap(&kek, &wrapped).unwrap(), payload);
        prop_assert!(keywrap::unwrap(&other, &wrapped).is_err());
    }

    /// The one-extract `WrapKek::new` is byte-identical to the
    /// two-derive construction for arbitrary KEKs and nonces, and
    /// `Key::derive` (cached salt schedule) is plain RFC 5869 HKDF.
    #[test]
    fn wrap_kek_matches_two_derive_construction(kek in any::<[u8; 32]>(),
                                                payload in any::<[u8; 32]>(),
                                                nonces in proptest::collection::vec(any::<[u8; 12]>(), 1..4)) {
        let kek = Key::from_bytes(kek);
        let payload = Key::from_bytes(payload);
        let prepared = WrapKek::new(&kek);
        for nonce in nonces {
            let expected = two_derive_wrap(&kek, &payload, nonce);
            let wrapped = prepared.wrap_with_nonce(&payload, nonce);
            prop_assert_eq!(wrapped.to_bytes(), expected);
            prop_assert_eq!(prepared.unwrap(&wrapped).unwrap(), payload.clone());
        }
        for label in [&b"wrap-enc"[..], b"wrap-mac", b"oft-blind"] {
            let mut expected = [0u8; 32];
            hkdf::derive(b"rekey-key-derive", kek.as_bytes(), label, &mut expected);
            prop_assert_eq!(kek.derive(label), Key::from_bytes(expected));
        }
    }

    /// Serialized wrapped keys survive a parse roundtrip.
    #[test]
    fn keywrap_wire_roundtrip(kek in any::<[u8; 32]>(),
                              payload in any::<[u8; 32]>(),
                              nonce in any::<[u8; 12]>()) {
        let wrapped = keywrap::wrap_with_nonce(
            &Key::from_bytes(kek), &Key::from_bytes(payload), nonce);
        let parsed = keywrap::WrappedKey::from_bytes(&wrapped.to_bytes()).unwrap();
        prop_assert_eq!(parsed, wrapped);
    }
}
