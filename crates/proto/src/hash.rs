//! SHA-256, HMAC-SHA256 and hex encoding.
//!
//! The REST baseline authenticates every request with an HMAC signature
//! over a canonical request (the way AWS SigV4 does); that per-request
//! hashing is part of the statelessness cost the paper calls out. The
//! implementation follows FIPS 180-4 / RFC 2104 and is verified against
//! published test vectors in the unit tests.
//!
//! # Compression dispatch
//!
//! All block hashing goes through one function pointer, chosen once per
//! process. On x86-64 CPUs whose `is_x86_feature_detected!` reports
//! `sha`, `sse2`, `ssse3` and `sse4.1`, it is the SHA-NI kernel in
//! `shani`; everywhere else it is the portable loop
//! `compress_blocks_portable`. The two produce identical digests (the
//! unit tests run the portable loop on the published vectors, and a
//! property test compares the two paths on random input), so host speed
//! never changes a signature, a wire byte or a virtual-time result.
//! There is no setting that picks a path: [`Sha256::portable`] exists
//! only so tests can cross-check the kernel.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

/// A 32-byte SHA-256 digest.
pub type Digest = [u8; DIGEST_LEN];

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

const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Compresses whole 64-byte blocks of `data` into `state`.
type CompressFn = fn(&mut [u32; 8], &[u8]);

/// The fastest compressor this CPU supports, detected on first use.
fn compress_dispatched() -> CompressFn {
    static CHOSEN: std::sync::OnceLock<CompressFn> = std::sync::OnceLock::new();
    *CHOSEN.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        if let Some(kernel) = shani::detect() {
            return kernel;
        }
        compress_blocks_portable
    })
}

/// Incremental SHA-256 hasher.
///
/// # Examples
///
/// ```
/// use pcsi_proto::hash::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     pcsi_proto::hash::hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// ```
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buffer: [u8; 64],
    buffer_len: usize,
    total_len: u64,
    compress: CompressFn,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::with_compressor(compress_dispatched())
    }

    /// Creates a hasher that always uses the portable compressor,
    /// whatever the CPU supports. Its digests equal those of
    /// [`Sha256::new`]; it exists so tests can check the accelerated
    /// path against the portable one on the same machine.
    pub fn portable() -> Self {
        Self::with_compressor(compress_blocks_portable)
    }

    fn with_compressor(compress: CompressFn) -> Self {
        Sha256 {
            state: H0,
            buffer: [0; 64],
            buffer_len: 0,
            total_len: 0,
            compress,
        }
    }

    /// One-shot convenience digest.
    pub fn digest(data: &[u8]) -> Digest {
        let mut h = Sha256::new();
        h.update(data);
        h.finalize()
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_len += data.len() as u64;
        let mut rest = data;
        if self.buffer_len > 0 {
            let take = rest.len().min(64 - self.buffer_len);
            self.buffer[self.buffer_len..self.buffer_len + take].copy_from_slice(&rest[..take]);
            self.buffer_len += take;
            rest = &rest[take..];
            if self.buffer_len < 64 {
                return;
            }
            (self.compress)(&mut self.state, &self.buffer);
            self.buffer_len = 0;
        }
        let (blocks, tail) = rest.split_at(rest.len() - rest.len() % 64);
        if !blocks.is_empty() {
            (self.compress)(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffer_len = tail.len();
    }

    /// Completes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros, then the 64-bit message bit length, filling
        // one block, or two when fewer than 9 bytes remain in the first.
        let n = self.buffer_len;
        let mut pad = [0u8; 128];
        pad[..n].copy_from_slice(&self.buffer[..n]);
        pad[n] = 0x80;
        let end = if n < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&(self.total_len * 8).to_be_bytes());
        (self.compress)(&mut self.state, &pad[..end]);
        let mut out = [0u8; DIGEST_LEN];
        for (o, word) in out.chunks_exact_mut(4).zip(self.state) {
            o.copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// The portable compressor: FIPS 180-4 §6.2.2 on each 64-byte block of
/// `data`, whose length must be a multiple of 64.
fn compress_blocks_portable(state: &mut [u32; 8], data: &[u8]) {
    debug_assert_eq!(data.len() % 64, 0);
    for block in data.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (wi, chunk) in w.iter_mut().zip(block.chunks_exact(4)) {
            *wi = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ ((!e) & g);
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
        for (s, v) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *s = s.wrapping_add(v);
        }
    }
}

/// The x86-64 SHA extensions kernel (Intel SHA-NI).
///
/// Each `sha256rnds2` runs two rounds on a state split across two
/// registers, `ABEF` and `CDGH`; `sha256msg1`/`sha256msg2` extend the
/// message schedule four words at a time.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    use super::{CompressFn, K};

    /// The kernel, when this CPU has every extension it uses.
    pub(super) fn detect() -> Option<CompressFn> {
        let supported = is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("sse2")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1");
        supported.then_some(compress_blocks as CompressFn)
    }

    /// Compresses whole 64-byte blocks of `data` into `state`. Private:
    /// the only way to reach it is the pointer [`detect`] returns.
    fn compress_blocks(state: &mut [u32; 8], data: &[u8]) {
        // SAFETY: `detect` hands out this function only after
        // `is_x86_feature_detected!` confirmed `sha`, `sse2`, `ssse3` and
        // `sse4.1`, the target features `compress_blocks_shani` needs.
        unsafe { compress_blocks_shani(state, data) }
    }

    /// # Safety
    ///
    /// The CPU must support `sha`, `sse2`, `ssse3` and `sse4.1`.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    unsafe fn compress_blocks_shani(state: &mut [u32; 8], data: &[u8]) {
        debug_assert_eq!(data.len() % 64, 0);
        // Byte-swaps each 32-bit lane: the message words are big-endian.
        let bswap = _mm_set_epi64x(0x0c0d_0e0f_0809_0a0b, 0x0405_0607_0001_0203);
        // Every raw load and store below is unaligned (`loadu`/`storeu`)
        // and in bounds: two 16-byte lanes of the 32-byte `state`, four of
        // each 64-byte block, and quad `group` < 16 of the 64-word `K`.
        let state_ptr = state.as_mut_ptr().cast::<__m128i>();
        let dcba = _mm_loadu_si128(state_ptr);
        let hgfe = _mm_loadu_si128(state_ptr.add(1));
        let badc = _mm_shuffle_epi32(dcba, 0xb1);
        let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
        let mut abef = _mm_alignr_epi8(badc, efgh, 8);
        let mut cdgh = _mm_blend_epi16(efgh, badc, 0xf0);

        // Four rounds on message words `$w`, the `$group`th quad of `K`.
        macro_rules! rounds4 {
            ($w:expr, $group:expr) => {{
                let k = _mm_loadu_si128(K.as_ptr().add(4 * $group).cast::<__m128i>());
                let wk = _mm_add_epi32($w, k);
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }};
        }
        // The next quad of message words from the previous four, oldest
        // first; the result replaces the oldest.
        macro_rules! schedule {
            ($w0:ident, $w1:ident, $w2:ident, $w3:ident) => {{
                let t = _mm_sha256msg1_epu32($w0, $w1);
                let t = _mm_add_epi32(t, _mm_alignr_epi8($w3, $w2, 4));
                $w0 = _mm_sha256msg2_epu32(t, $w3);
            }};
        }

        for block in data.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            let p = block.as_ptr().cast::<__m128i>();
            let mut w0 = _mm_shuffle_epi8(_mm_loadu_si128(p), bswap);
            let mut w1 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(1)), bswap);
            let mut w2 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(2)), bswap);
            let mut w3 = _mm_shuffle_epi8(_mm_loadu_si128(p.add(3)), bswap);
            rounds4!(w0, 0);
            rounds4!(w1, 1);
            rounds4!(w2, 2);
            rounds4!(w3, 3);
            for group in [4, 8, 12] {
                schedule!(w0, w1, w2, w3);
                rounds4!(w0, group);
                schedule!(w1, w2, w3, w0);
                rounds4!(w1, group + 1);
                schedule!(w2, w3, w0, w1);
                rounds4!(w2, group + 2);
                schedule!(w3, w0, w1, w2);
                rounds4!(w3, group + 3);
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }

        let feba = _mm_shuffle_epi32(abef, 0x1b);
        let dchg = _mm_shuffle_epi32(cdgh, 0xb1);
        _mm_storeu_si128(state_ptr, _mm_blend_epi16(feba, dchg, 0xf0));
        _mm_storeu_si128(state_ptr.add(1), _mm_alignr_epi8(dchg, feba, 8));
    }
}

/// HMAC-SHA256 per RFC 2104.
///
/// # Examples
///
/// ```
/// use pcsi_proto::hash::{hmac_sha256, hex};
///
/// let mac = hmac_sha256(b"key", b"The quick brown fox jumps over the lazy dog");
/// assert_eq!(
///     hex(&mac),
///     "f7bc83f430538424b13298e6aa6fb143ef4d59a14946175997479dbc2d1a3cd8"
/// );
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> Digest {
    hmac_with(Sha256::new, key, message)
}

/// A hasher constructor: [`Sha256::new`] or [`Sha256::portable`].
type MakeHasher = fn() -> Sha256;

/// HMAC-SHA256 over hashers made by `hasher`.
fn hmac_with(hasher: MakeHasher, key: &[u8], message: &[u8]) -> Digest {
    let mut ipad = [0x36u8; 64];
    let mut opad = [0x5cu8; 64];
    let hashed;
    let key = if key.len() > 64 {
        let mut h = hasher();
        h.update(key);
        hashed = h.finalize();
        &hashed[..]
    } else {
        key
    };
    for ((i, o), k) in ipad.iter_mut().zip(opad.iter_mut()).zip(key) {
        *i ^= k;
        *o ^= k;
    }
    let mut inner = hasher();
    inner.update(&ipad);
    inner.update(message);
    let inner_digest = inner.finalize();

    let mut outer = hasher();
    outer.update(&opad);
    outer.update(&inner_digest);
    outer.finalize()
}

/// Lowercase hex encoding.
pub fn hex(data: &[u8]) -> String {
    const TABLE: &[u8; 16] = b"0123456789abcdef";
    let mut out = String::with_capacity(data.len() * 2);
    for &b in data {
        out.push(TABLE[(b >> 4) as usize] as char);
        out.push(TABLE[(b & 0xF) as usize] as char);
    }
    out
}

/// Constant-time equality for MACs (prevents timing side channels; also the
/// correct idiom to model, even in a simulator).
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut acc = 0u8;
    for (x, y) in a.iter().zip(b) {
        acc |= x ^ y;
    }
    acc == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both compressors: the one this CPU dispatches to, and the portable
    /// loop, which must stay tested on hosts that never dispatch to it.
    const HASHERS: [(&str, MakeHasher); 2] =
        [("dispatched", Sha256::new), ("portable", Sha256::portable)];

    fn digest_with(hasher: MakeHasher, data: &[u8]) -> Digest {
        let mut h = hasher();
        h.update(data);
        h.finalize()
    }

    /// FIPS 180-4 / NIST CAVP vectors.
    #[test]
    fn sha256_known_vectors() {
        let cases: &[(&[u8], &str)] = &[
            (
                b"",
                "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
            ),
            (
                b"abc",
                "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
            ),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for (name, hasher) in HASHERS {
            for (input, expect) in cases {
                assert_eq!(hex(&digest_with(hasher, input)), *expect, "{name}");
            }
        }
    }

    #[test]
    fn sha256_million_a() {
        for (name, hasher) in HASHERS {
            let mut h = hasher();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update(&chunk);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{name}"
            );
        }
    }

    #[test]
    fn sha256_incremental_matches_oneshot() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1337).collect();
        for split in [0, 1, 55, 56, 63, 64, 65, 119, 120, 1000, 1337] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), Sha256::digest(&data), "split {split}");
        }
    }

    #[test]
    fn padding_boundaries_match_across_compressors() {
        // 55 bytes pad into one block, 56..=63 need a second; 64 and 119/120
        // repeat the boundary one block on.
        let data: Vec<u8> = (0..200u8).collect();
        for len in [0, 1, 55, 56, 57, 63, 64, 65, 119, 120, 127, 128, 200] {
            assert_eq!(
                digest_with(Sha256::new, &data[..len]),
                digest_with(Sha256::portable, &data[..len]),
                "len {len}"
            );
        }
    }

    /// RFC 4231 test cases 1, 2 and 3.
    #[test]
    fn hmac_known_vectors() {
        for (name, hasher) in HASHERS {
            assert_eq!(
                hex(&hmac_with(hasher, &[0x0b; 20], b"Hi There")),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
                "{name}"
            );
            assert_eq!(
                hex(&hmac_with(hasher, b"Jefe", b"what do ya want for nothing?")),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
                "{name}"
            );
            assert_eq!(
                hex(&hmac_with(hasher, &[0xaa; 20], &[0xdd; 50])),
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
                "{name}"
            );
        }
    }

    #[test]
    fn hmac_long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa; 131];
        for (name, hasher) in HASHERS {
            assert_eq!(
                hex(&hmac_with(
                    hasher,
                    &key,
                    b"Test Using Larger Than Block-Size Key - Hash Key First"
                )),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
                "{name}"
            );
        }
    }

    #[test]
    fn ct_eq_basic() {
        assert!(ct_eq(b"same", b"same"));
        assert!(!ct_eq(b"same", b"sAme"));
        assert!(!ct_eq(b"short", b"longer"));
        assert!(ct_eq(b"", b""));
    }

    #[test]
    fn hex_encodes() {
        assert_eq!(hex(&[0x00, 0xff, 0x0a]), "00ff0a");
        assert_eq!(hex(&[]), "");
    }
}
