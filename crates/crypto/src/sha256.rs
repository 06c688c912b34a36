//! SHA-256 as specified in FIPS 180-4.
//!
//! Provides an incremental [`Sha256`] hasher and a one-shot [`digest`]
//! convenience function. Validated against the standard test vectors
//! (empty message, `"abc"`, and the two-block NIST message).
//!
//! # SIMD message schedule
//!
//! The 64-round compression is a serial dependency chain, but the
//! message-schedule expansion (`w[16..64]`) is only *mostly* serial:
//! `w[i]` needs `w[i-2]`, so four words can be produced per pass with
//! the `σ₀`/`w[i-16]`/`w[i-7]` terms computed four-wide and the `σ₁`
//! term applied in two half-vector steps. On SSE2-class hardware (and
//! above) the hasher dispatches to that vector schedule via
//! [`crate::simd`]; the scalar schedule remains the reference and the
//! two are pinned identical by `tests/simd_equiv.rs`.

use crate::simd::{self, Backend};

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// Block size of SHA-256 in bytes (relevant for HMAC).
pub const BLOCK_LEN: usize = 64;

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use rekey_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let d = h.finalize();
/// assert_eq!(d, rekey_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; BLOCK_LEN],
    buf_len: usize,
    total_len: u64,
    backend: Backend,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for Sha256 {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sha256")
            .field("bytes_absorbed", &self.total_len)
            .finish()
    }
}

impl Sha256 {
    /// Creates a hasher in the initial state, on the process-wide SIMD
    /// backend.
    pub fn new() -> Self {
        Self::new_with(simd::active())
    }

    /// Creates a hasher pinned to an explicit backend — entry point
    /// for the SIMD equivalence tests and per-backend benches. The
    /// digest is byte-identical for every backend.
    pub fn new_with(backend: Backend) -> Self {
        Sha256 {
            state: H0,
            buf: [0u8; BLOCK_LEN],
            buf_len: 0,
            total_len: 0,
            backend,
        }
    }

    /// The chaining state after a whole number of blocks — what
    /// [`crate::hmac::HmacKey`] keeps of its pad states.
    pub(crate) fn block_state(&self) -> [u32; 8] {
        debug_assert_eq!(self.buf_len, 0, "state taken mid-block");
        self.state
    }

    /// Resumes hashing from a [`Sha256::block_state`] taken after
    /// `absorbed` bytes, on the process-wide SIMD backend in force now.
    pub(crate) fn resume(state: [u32; 8], absorbed: u64) -> Self {
        Sha256 {
            state,
            total_len: absorbed,
            ..Self::new()
        }
    }

    /// Absorbs `data` into the hash state.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len = self.total_len.wrapping_add(data.len() as u64);
        let mut data = data;
        if self.buf_len > 0 {
            let need = BLOCK_LEN - self.buf_len;
            let take = need.min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == BLOCK_LEN {
                let block = self.buf;
                self.compress(&block);
                self.buf_len = 0;
            }
        }
        while data.len() >= BLOCK_LEN {
            let mut block = [0u8; BLOCK_LEN];
            block.copy_from_slice(&data[..BLOCK_LEN]);
            self.compress(&block);
            data = &data[BLOCK_LEN..];
        }
        if !data.is_empty() {
            self.buf[..data.len()].copy_from_slice(data);
            self.buf_len = data.len();
        }
    }

    /// Finishes the hash and returns the 32-byte digest.
    pub fn finalize(mut self) -> [u8; DIGEST_LEN] {
        let bit_len = self.total_len.wrapping_mul(8);
        // Append 0x80, pad with zeros to 56 mod 64 (spilling into one
        // more block when the 0x80 lands past byte 55), then the length.
        let mut end = self.buf_len;
        self.buf[end] = 0x80;
        end += 1;
        if end > 56 {
            self.buf[end..].fill(0);
            let block = self.buf;
            self.compress(&block);
            end = 0;
        }
        self.buf[end..56].fill(0);
        self.buf[56..].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        self.compress(&block);

        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in self.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        rekey_obs::count(
            match self.backend {
                Backend::Scalar => "crypto.sha256_digests.scalar",
                Backend::Sse2 => "crypto.sha256_digests.sse2",
                Backend::Avx2 => "crypto.sha256_digests.avx2",
            },
            1,
        );
        out
    }

    fn compress(&mut self, block: &[u8; BLOCK_LEN]) {
        let mut w = [0u32; 64];
        for i in 0..16 {
            w[i] = u32::from_be_bytes([
                block[4 * i],
                block[4 * i + 1],
                block[4 * i + 2],
                block[4 * i + 3],
            ]);
        }
        match self.backend {
            Backend::Scalar => schedule_scalar(&mut w),
            #[cfg(target_arch = "x86_64")]
            Backend::Sse2 | Backend::Avx2 => x86::schedule(&mut w),
            #[cfg(not(target_arch = "x86_64"))]
            _ => schedule_scalar(&mut w),
        }

        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = self.state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }

        self.state[0] = self.state[0].wrapping_add(a);
        self.state[1] = self.state[1].wrapping_add(b);
        self.state[2] = self.state[2].wrapping_add(c);
        self.state[3] = self.state[3].wrapping_add(d);
        self.state[4] = self.state[4].wrapping_add(e);
        self.state[5] = self.state[5].wrapping_add(f);
        self.state[6] = self.state[6].wrapping_add(g);
        self.state[7] = self.state[7].wrapping_add(h);
    }
}

/// Scalar reference message-schedule expansion: fills `w[16..64]`.
fn schedule_scalar(w: &mut [u32; 64]) {
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }
}

/// Vectorized message schedule. Four words per pass: the
/// `w[i-16] + σ₀(w[i-15]) + w[i-7]` partial is computed four-wide
/// (all inputs at least four slots old), then the `σ₁(w[i-2])` term —
/// whose upper two lanes depend on the lower two — is folded in with
/// two half-vector steps.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    use core::arch::x86_64::*;

    /// Rotate each 32-bit lane right by a literal amount. A macro
    /// because the shift intrinsics take legacy-const-generic
    /// immediates that cannot be computed from a generic parameter.
    macro_rules! ror {
        ($x:expr, $n:literal) => {{
            let x = $x;
            _mm_or_si128(_mm_srli_epi32(x, $n), _mm_slli_epi32(x, 32 - $n))
        }};
    }

    /// `σ₀(x) = ror⁷ ⊕ ror¹⁸ ⊕ shr³`, lane-wise.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sigma0(x: __m128i) -> __m128i {
        _mm_xor_si128(_mm_xor_si128(ror!(x, 7), ror!(x, 18)), _mm_srli_epi32(x, 3))
    }

    /// `σ₁(x) = ror¹⁷ ⊕ ror¹⁹ ⊕ shr¹⁰`, lane-wise.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn sigma1(x: __m128i) -> __m128i {
        _mm_xor_si128(
            _mm_xor_si128(ror!(x, 17), ror!(x, 19)),
            _mm_srli_epi32(x, 10),
        )
    }

    /// Safe entry: expands the message schedule with the SSE2 kernel.
    ///
    /// Soundness of the `unsafe` block: SSE2 is part of the x86_64
    /// baseline ABI, so the kernel's required target feature is always
    /// present on this architecture (this module is only compiled for
    /// `target_arch = "x86_64"`).
    pub fn schedule(w: &mut [u32; 64]) {
        // SAFETY: SSE2 is baseline on x86_64.
        unsafe { schedule_sse2(w) }
    }

    /// # Safety
    ///
    /// Requires SSE2 (baseline on x86_64).
    /// `[b, c]` u32-concatenation: lanes `[b₁, b₂, b₃, c₀]` — the SSE2
    /// spelling of SSSE3 `palignr` by 4 bytes.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn alignr4(hi: __m128i, lo: __m128i) -> __m128i {
        _mm_or_si128(_mm_srli_si128(lo, 4), _mm_slli_si128(hi, 12))
    }

    unsafe fn schedule_sse2(w: &mut [u32; 64]) {
        let p = w.as_mut_ptr();
        // The sliding 16-word window lives entirely in four registers:
        // q0 = w[i-16..i-12], …, q3 = w[i-4..i]. The -15/-7/-2 taps are
        // register shuffles, never loads — a load that partially
        // overlaps a recent store (as any in-place schedule's taps do)
        // stalls store-forwarding on every iteration.
        let mut q0 = _mm_loadu_si128(p as *const __m128i);
        let mut q1 = _mm_loadu_si128(p.add(4) as *const __m128i);
        let mut q2 = _mm_loadu_si128(p.add(8) as *const __m128i);
        let mut q3 = _mm_loadu_si128(p.add(12) as *const __m128i);
        for i in (16..64).step_by(4) {
            let wm15 = alignr4(q1, q0);
            let wm7 = alignr4(q3, q2);
            // part = w[i-16] + σ₀(w[i-15]) + w[i-7], lanes i..i+4.
            let part = _mm_add_epi32(_mm_add_epi32(q0, sigma0(wm15)), wm7);
            // Lanes 0–1: σ₁ of w[i-2], w[i-1] — the top half of q3.
            let lo = _mm_add_epi32(part, sigma1(_mm_srli_si128(q3, 8)));
            // Lanes 2–3: σ₁ of the w[i], w[i+1] just computed in the
            // low half of `lo`, shifted up (σ₁(0) = 0 fills the rest).
            let hi = _mm_add_epi32(part, sigma1(_mm_slli_si128(lo, 8)));
            // [lo₀, lo₁, hi₂, hi₃] — one store per pass, no reload.
            let out = _mm_unpacklo_epi64(lo, _mm_srli_si128(hi, 8));
            _mm_storeu_si128(p.add(i) as *mut __m128i, out);
            (q0, q1, q2, q3) = (q1, q2, q3, out);
        }
    }
}

/// Computes the SHA-256 digest of `data` in one shot.
///
/// ```
/// let d = rekey_crypto::sha256::digest(b"abc");
/// assert_eq!(d[0], 0xba);
/// ```
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// [`digest`] on an explicit backend (SIMD equivalence tests and
/// per-backend benches).
pub fn digest_with(backend: Backend, data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new_with(backend);
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn vector_two_blocks() {
        // NIST test vector for the 448-bit message.
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn vector_million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&digest(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_matches_oneshot() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for chunk in [1usize, 3, 7, 63, 64, 65, 130] {
            let mut h = Sha256::new();
            for part in data.chunks(chunk) {
                h.update(part);
            }
            assert_eq!(h.finalize(), digest(&data), "chunk size {chunk}");
        }
    }

    /// FIPS 180-4 padding spelled out on a materialized message, then
    /// block-by-block compression: an independent check of `finalize`.
    fn padded_reference(data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut padded = data.to_vec();
        padded.push(0x80);
        while padded.len() % BLOCK_LEN != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
        let mut h = Sha256::new_with(Backend::Scalar);
        for block in padded.chunks_exact(BLOCK_LEN) {
            h.compress(block.try_into().unwrap());
        }
        let mut out = [0u8; DIGEST_LEN];
        for (i, word) in h.state.iter().enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }

    #[test]
    fn length_boundaries() {
        // Exercise padding across the 55/56/63/64-byte boundaries.
        for len in [0usize, 1, 54, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128] {
            let data = vec![0xABu8; len];
            let mut h = Sha256::new();
            h.update(&data);
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
        for len in 0..=2 * BLOCK_LEN + 2 {
            let data: Vec<u8> = (0..len).map(|i| i as u8).collect();
            assert_eq!(digest(&data), padded_reference(&data), "len {len}");
        }
    }

    #[test]
    fn debug_is_nonempty() {
        assert!(!format!("{:?}", Sha256::new()).is_empty());
    }

    /// The SIMD message schedule is byte-identical to the scalar
    /// reference on every supported backend, across padding
    /// boundaries.
    #[test]
    fn backends_match_scalar_reference() {
        let feats = simd::detect();
        let mut backends = Vec::new();
        if feats.sse2 {
            backends.push(Backend::Sse2);
        }
        if feats.avx2 {
            backends.push(Backend::Avx2);
        }
        for len in [0usize, 1, 55, 56, 63, 64, 65, 127, 128, 1000] {
            let data: Vec<u8> = (0..len).map(|i| (i * 131 + 17) as u8).collect();
            let reference = digest_with(Backend::Scalar, &data);
            for &backend in &backends {
                assert_eq!(
                    digest_with(backend, &data),
                    reference,
                    "len={len} {backend}"
                );
            }
        }
    }
}
