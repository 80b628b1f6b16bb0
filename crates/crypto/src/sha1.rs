//! SHA-1 (FIPS 180-1), implemented from the specification.
//!
//! The paper uses "a collision resistant hash function (e.g., SHA-1) to
//! compute a digest of each chunk" (§6). Incremental hashing matters: the
//! terminal hands the SOE *intermediate* hash states so that the SOE only
//! hashes the bytes it actually reads (Appendix A).
//!
//! # Which kernel runs
//!
//! Every compression goes through one private dispatcher, which hands a
//! whole run of 64-byte blocks to one kernel call, so the chaining state
//! stays in registers from block to block:
//!
//! * **SHA extensions** (`shani`). On an x86-64 CPU that reports `sha`
//!   (with SSSE3 and SSE4.1, which every such CPU has), each block is 20
//!   `sha1rnds4` steps of four rounds, the message schedule is expanded
//!   four words at a time by `sha1msg1`/`sha1msg2`, and `sha1nexte`
//!   carries E between steps. The check is made at run time, on every
//!   call, from the standard library's cached CPUID probe.
//! * **Portable** (`portable`). Everywhere else — no SHA extension, or
//!   not x86-64 — the fully unrolled scalar rounds below run. It is also
//!   the hardware kernel's differential reference, block for block, in
//!   the tests at the end of this file, as `des::reference` is for 3DES.
//!
//! Nothing selects the kernel but the CPU, and both produce the same
//! digest for every input.
//!
//! A hasher compresses the input's whole blocks straight from the slice,
//! then lays its tail and padding out in one or two blocks on the stack:
//! a 128-byte ECB-MHT fragment costs three compressions (two data blocks
//! and a padding block), in two kernel calls. A Merkle combine is 40
//! bytes, so `merkle::combine` lays it out as a single pre-padded block
//! and compresses it once.

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

/// The initial chaining state (FIPS 180-1 §7).
const IV: [u32; 5] = [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0];

/// Incremental SHA-1 hasher.
#[derive(Clone)]
pub struct Sha1 {
    state: [u32; 5],
    /// Bytes processed so far (for the length suffix).
    len: u64,
    buf: [u8; 64],
    buf_len: usize,
}

impl Default for Sha1 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha1 {
    /// Fresh hasher.
    pub fn new() -> Sha1 {
        Sha1 { state: IV, len: 0, buf: [0; 64], buf_len: 0 }
    }

    /// Resumes from a saved compression state (used by the cooperative
    /// integrity protocol: the terminal sends the intermediate hash of the
    /// bytes preceding the SOE's read position). `blocks` is the number of
    /// 64-byte blocks already compressed.
    pub fn resume(state: [u32; 5], blocks: u64) -> Sha1 {
        Sha1 { state, len: blocks * 64, buf: [0; 64], buf_len: 0 }
    }

    /// The current compression state, valid at block boundaries.
    pub fn state(&self) -> ([u32; 5], u64) {
        debug_assert_eq!(self.buf_len, 0, "state() is meaningful at block boundaries");
        (self.state, self.len / 64)
    }

    /// Feeds bytes. The whole 64-byte blocks of `data` go to the kernel
    /// in one call, straight from the input slice — no intermediate copy;
    /// only a sub-block tail is staged in the internal buffer.
    pub fn update(&mut self, data: &[u8]) {
        self.update_with(compress, data);
    }

    /// Finishes, producing the digest: the staged tail and the padding
    /// are laid out in one or two blocks and compressed in one call.
    pub fn finish(self) -> Digest {
        self.finish_with(compress)
    }

    fn update_with(&mut self, kernel: impl Fn(&mut [u32; 5], &[u8]), mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len < 64 {
                // Everything was absorbed into the buffer.
                return;
            }
            kernel(&mut self.state, &self.buf);
            self.buf_len = 0;
        }
        let whole = data.len() - data.len() % 64;
        if whole > 0 {
            kernel(&mut self.state, &data[..whole]);
        }
        self.buf[..data.len() - whole].copy_from_slice(&data[whole..]);
        self.buf_len = data.len() - whole;
    }

    fn finish_with(mut self, kernel: impl Fn(&mut [u32; 5], &[u8])) -> Digest {
        let tail = self.buf_len;
        let mut pad = [0u8; 128];
        pad[..tail].copy_from_slice(&self.buf[..tail]);
        pad[tail] = 0x80;
        // The length suffix fits after a tail of up to 55 bytes;
        // otherwise it takes a second block.
        let n = if tail < 56 { 64 } else { 128 };
        pad[n - 8..n].copy_from_slice(&(self.len * 8).to_be_bytes());
        kernel(&mut self.state, &pad[..n]);
        to_digest(&self.state)
    }
}

fn to_digest(state: &[u32; 5]) -> Digest {
    let mut out = [0u8; DIGEST_LEN];
    for (o, w) in out.chunks_exact_mut(4).zip(state) {
        o.copy_from_slice(&w.to_be_bytes());
    }
    out
}

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finish()
}

/// The digest of a message the caller has already laid out with its
/// padding, as whole blocks: one kernel call from the initial state. A
/// 40-byte Merkle combine is one such block.
pub(crate) fn sha1_padded(blocks: &[u8]) -> Digest {
    let mut state = IV;
    compress(&mut state, blocks);
    to_digest(&state)
}

/// Compresses a run of whole 64-byte blocks into `state`: with the SHA
/// extensions when the CPU has them, with [`portable`] otherwise.
fn compress(state: &mut [u32; 5], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0, "whole blocks only");
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: the CPU reports every feature `shani::compress` is
        // compiled for (`sha`, `ssse3`, `sse4.1`).
        unsafe { shani::compress(state, blocks) };
        return;
    }
    portable(state, blocks);
}

/// The portable kernel: [`compress_block`] over each block of the run.
fn portable(state: &mut [u32; 5], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        compress_block(state, block.try_into().expect("64"));
    }
}

/// The SHA-1 compression function over one block, in portable Rust.
///
/// The 80 rounds are fully unrolled with the message schedule kept as a
/// 16-word circular buffer (`w[t] = w[t & 15]`, expanded in place), and
/// the five working variables rotate through the round macro's argument
/// order instead of being shuffled — no 80-word schedule array, no
/// per-round `match`, no register moves. On a CPU without the SHA
/// extensions, this loop is the terminal *and* SOE hot path of ECB-MHT
/// sessions (every fragment fetched is hashed, plus one combine per proof
/// sibling).
// The ring writes of the final five expansions are never read again; the
// expansion macro stays uniform (and the optimizer drops the dead stores).
#[allow(unused_assignments)]
fn compress_block(state: &mut [u32; 5], block: &[u8; 64]) {
    let mut w = [0u32; 16];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4"));
    }
    let [mut a, mut b, mut c, mut d, mut e] = *state;

    // Schedule expansion for round `t ≥ 16`, in place in the ring.
    macro_rules! wexp {
        ($t:expr) => {{
            let x = (w[($t + 13) & 15] ^ w[($t + 8) & 15] ^ w[($t + 2) & 15] ^ w[$t & 15])
                .rotate_left(1);
            w[$t & 15] = x;
            x
        }};
    }
    // One round: `e += rotl5(a) + f(b,c,d) + k + w`, `b = rotl30(b)`.
    // Callers pass the working variables rotated one position per round,
    // so the permutation costs nothing.
    macro_rules! round {
        ($a:expr, $b:expr, $c:expr, $d:expr, $e:expr, $f:expr, $k:expr, $w:expr) => {
            $e = $e
                .wrapping_add($a.rotate_left(5))
                .wrapping_add($f)
                .wrapping_add($k)
                .wrapping_add($w);
            $b = $b.rotate_left(30);
        };
    }
    macro_rules! r5 {
        ($t:expr, $ff:ident, $k:expr, $wi:ident) => {
            round!(a, b, c, d, e, $ff!(b, c, d), $k, $wi!($t));
            round!(e, a, b, c, d, $ff!(a, b, c), $k, $wi!($t + 1));
            round!(d, e, a, b, c, $ff!(e, a, b), $k, $wi!($t + 2));
            round!(c, d, e, a, b, $ff!(d, e, a), $k, $wi!($t + 3));
            round!(b, c, d, e, a, $ff!(c, d, e), $k, $wi!($t + 4));
        };
    }
    macro_rules! ch {
        ($x:expr, $y:expr, $z:expr) => {
            ($x & $y) | (!$x & $z)
        };
    }
    macro_rules! parity {
        ($x:expr, $y:expr, $z:expr) => {
            $x ^ $y ^ $z
        };
    }
    macro_rules! maj {
        ($x:expr, $y:expr, $z:expr) => {
            ($x & $y) | ($x & $z) | ($y & $z)
        };
    }
    macro_rules! wload {
        ($t:expr) => {
            w[$t]
        };
    }

    r5!(0, ch, 0x5A82_7999, wload);
    r5!(5, ch, 0x5A82_7999, wload);
    r5!(10, ch, 0x5A82_7999, wload);
    // Boundary group: round 15 still loads, 16..19 start expanding.
    round!(a, b, c, d, e, ch!(b, c, d), 0x5A82_7999, wload!(15));
    round!(e, a, b, c, d, ch!(a, b, c), 0x5A82_7999, wexp!(16));
    round!(d, e, a, b, c, ch!(e, a, b), 0x5A82_7999, wexp!(17));
    round!(c, d, e, a, b, ch!(d, e, a), 0x5A82_7999, wexp!(18));
    round!(b, c, d, e, a, ch!(c, d, e), 0x5A82_7999, wexp!(19));
    r5!(20, parity, 0x6ED9_EBA1, wexp);
    r5!(25, parity, 0x6ED9_EBA1, wexp);
    r5!(30, parity, 0x6ED9_EBA1, wexp);
    r5!(35, parity, 0x6ED9_EBA1, wexp);
    r5!(40, maj, 0x8F1B_BCDC, wexp);
    r5!(45, maj, 0x8F1B_BCDC, wexp);
    r5!(50, maj, 0x8F1B_BCDC, wexp);
    r5!(55, maj, 0x8F1B_BCDC, wexp);
    r5!(60, parity, 0xCA62_C1D6, wexp);
    r5!(65, parity, 0xCA62_C1D6, wexp);
    r5!(70, parity, 0xCA62_C1D6, wexp);
    r5!(75, parity, 0xCA62_C1D6, wexp);

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
}

/// The SHA-extension kernel (x86-64).
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::*;

    /// Does this CPU have every feature [`compress`] is compiled for?
    #[inline]
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Compresses a run of whole 64-byte blocks into `state`.
    ///
    /// ABCD live in one vector (A in the top lane); E rides in the top
    /// lane of the vector that `sha1rnds4` adds to the round inputs. A
    /// block is 20 steps of four rounds. Step 0 adds E to W0..3; step
    /// g ≥ 1 derives its E from the ABCD that entered step g − 1
    /// (`sha1nexte`: E after four rounds is that A rotated by 30). From
    /// step 4 on, the four message words of step g are expanded from those
    /// of steps g − 4 .. g − 1, kept in a four-vector ring.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 5], blocks: &[u8]) {
        // Reverses the 16 bytes of a load: four big-endian words, W0 in
        // the top lane.
        let bswap = _mm_set_epi64x(0x0001_0203_0405_0607, 0x0809_0A0B_0C0D_0E0F);
        let [a, b, c, d, e] = state.map(|x| x as i32);
        let mut abcd = _mm_set_epi32(a, b, c, d);
        let mut e0 = _mm_set_epi32(e, 0, 0, 0);
        for block in blocks.chunks_exact(64) {
            let load = |i: usize| {
                let bytes = &block[16 * i..16 * i + 16];
                // SAFETY: `bytes` is 16 readable bytes, and `loadu`
                // has no alignment requirement.
                _mm_shuffle_epi8(unsafe { _mm_loadu_si128(bytes.as_ptr().cast()) }, bswap)
            };
            let mut w = [load(0), load(1), load(2), load(3)];
            let (abcd_in, e_in) = (abcd, e0);
            // `prev`: the ABCD that entered the previous step.
            let mut prev = abcd;
            // Step g runs rounds 4g..4g + 3 with round function g / 5.
            macro_rules! steps {
                ($($g:literal)*) => {$(
                    let x = if $g == 0 {
                        _mm_add_epi32(e0, w[0])
                    } else {
                        if $g >= 4 {
                            w[$g % 4] = _mm_sha1msg2_epu32(
                                _mm_xor_si128(
                                    _mm_sha1msg1_epu32(w[$g % 4], w[($g + 1) % 4]),
                                    w[($g + 2) % 4],
                                ),
                                w[($g + 3) % 4],
                            );
                        }
                        _mm_sha1nexte_epu32(prev, w[$g % 4])
                    };
                    prev = abcd;
                    abcd = _mm_sha1rnds4_epu32(abcd, x, $g / 5);
                )*};
            }
            steps!(0 1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19);
            abcd = _mm_add_epi32(abcd, abcd_in);
            e0 = _mm_sha1nexte_epu32(prev, e_in);
        }
        *state = [
            _mm_extract_epi32(abcd, 3),
            _mm_extract_epi32(abcd, 2),
            _mm_extract_epi32(abcd, 1),
            _mm_extract_epi32(abcd, 0),
            _mm_extract_epi32(e0, 3),
        ]
        .map(|x| x as u32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The two kernels the dispatcher chooses between. `compress` runs
    /// the SHA-extension kernel whenever the CPU reports `sha`, so every
    /// test below compares the hardware kernel with the portable one
    /// there, and the portable one with itself elsewhere.
    const KERNELS: [(&str, Kernel); 2] = [("dispatched", compress), ("portable", portable)];

    type Kernel = fn(&mut [u32; 5], &[u8]);

    /// xorshift64*: random states, blocks and messages, reproducibly.
    fn rng(mut x: u64) -> impl FnMut() -> u64 {
        move || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }
    }

    fn bytes(next: &mut impl FnMut() -> u64, len: usize) -> Vec<u8> {
        (0..len).map(|_| next() as u8).collect()
    }

    /// Hashes `data` through `kernel` in updates split at `splits`.
    fn hash_with(kernel: Kernel, data: &[u8], splits: &[usize]) -> Digest {
        let mut h = Sha1::new();
        let mut at = 0;
        for &split in splits.iter().chain([&data.len()]) {
            h.update_with(kernel, &data[at..split]);
            at = split;
        }
        h.finish_with(kernel)
    }

    /// Random messages of every length 0..=300 and 64 KiB, each with the
    /// split points and resume blocks to try: all of them for the short
    /// messages; the block and padding boundaries at each end and the
    /// middle of the long one.
    fn messages() -> impl Iterator<Item = (Vec<u8>, Vec<usize>, Vec<usize>)> {
        let mut next = rng(0xD16E57);
        (0..=300).chain([64 * 1024]).map(move |len| {
            let data = bytes(&mut next, len);
            if len <= 300 {
                (data, (0..=len).collect(), (0..=len / 64).collect())
            } else {
                let edges = vec![0, 1, 55, 56, 63, 64, 65, len / 2, len - 64, len - 1, len];
                (data, edges, vec![0, 1, len / 128, len / 64 - 1, len / 64])
            }
        })
    }

    #[test]
    fn fips_vectors() {
        for (name, kernel) in KERNELS {
            let sha1 = |data: &[u8]| hex(&hash_with(kernel, data, &[]));
            assert_eq!(sha1(b"abc"), "a9993e364706816aba3e25717850c26c9cd0d89d", "{name}");
            assert_eq!(sha1(b""), "da39a3ee5e6b4b0d3255bfef95601890afd80709", "{name}");
            assert_eq!(
                sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
                "84983e441c3bd26ebaae4aa1f95129e5e54670f1",
                "{name}"
            );
        }
    }

    #[test]
    fn million_a() {
        for (name, kernel) in KERNELS {
            let mut h = Sha1::new();
            let chunk = [b'a'; 1000];
            for _ in 0..1000 {
                h.update_with(kernel, &chunk);
            }
            let digest = hex(&h.finish_with(kernel));
            assert_eq!(digest, "34aa973cd4c4daa4f61eeb2bdbad27316534016f", "{name}");
        }
    }

    #[test]
    fn hardware_kernel_matches_portable_block_for_block() {
        let mut next = rng(0x5EED);
        for runs in 0..500 {
            let mut state = [0u32; 5].map(|_| next() as u32);
            let blocks = bytes(&mut next, 64 * (1 + runs % 4));
            let mut want = state;
            let mut got = state;
            portable(&mut want, &blocks);
            compress(&mut got, &blocks);
            assert_eq!(got, want, "run of {} blocks", blocks.len() / 64);
            // The same run one block per call: the state carried between
            // calls equals the state carried in registers.
            for block in blocks.chunks_exact(64) {
                compress(&mut state, block);
            }
            assert_eq!(state, want, "block by block");
        }
    }

    #[test]
    fn incremental_equals_oneshot() {
        for (data, splits, _) in messages() {
            let want = hash_with(portable, &data, &[]);
            assert_eq!(sha1(&data), want, "len {}", data.len());
            for (name, kernel) in KERNELS {
                for &split in &splits {
                    let got = hash_with(kernel, &data, &[split]);
                    assert_eq!(got, want, "{name}: len {} split at {split}", data.len());
                }
            }
        }
    }

    #[test]
    fn resume_from_intermediate_state() {
        // Terminal hashes the first blocks; SOE resumes and hashes the
        // rest — final digest must match a full hash.
        for (data, _, resumes) in messages() {
            let want = sha1(&data);
            for (name, kernel) in KERNELS {
                for &blocks in &resumes {
                    let mut terminal = Sha1::new();
                    terminal.update_with(kernel, &data[..64 * blocks]);
                    let (state, n) = terminal.state();
                    let mut soe = Sha1::resume(state, n);
                    soe.update_with(kernel, &data[64 * blocks..]);
                    let got = soe.finish_with(kernel);
                    assert_eq!(got, want, "{name}: len {} resume at {blocks}", data.len());
                }
            }
        }
    }

    #[test]
    fn tamper_changes_digest() {
        let mut data = vec![7u8; 100];
        let d1 = sha1(&data);
        data[50] ^= 1;
        assert_ne!(sha1(&data), d1);
    }
}
