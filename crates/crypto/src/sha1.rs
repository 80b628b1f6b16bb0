//! SHA-1 (FIPS 180-1), implemented from the specification.
//!
//! The paper uses "a collision resistant hash function (e.g., SHA-1) to
//! compute a digest of each chunk" (§6). Incremental hashing matters: the
//! terminal hands the SOE *intermediate* hash states so that the SOE only
//! hashes the bytes it actually reads (Appendix A).

/// Digest size in bytes.
pub const DIGEST_LEN: usize = 20;

/// A SHA-1 digest.
pub type Digest = [u8; DIGEST_LEN];

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
        Sha1 {
            state: [0x6745_2301, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476, 0xC3D2_E1F0],
            len: 0,
            buf: [0; 64],
            buf_len: 0,
        }
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

    /// Feeds bytes. Whole 64-byte blocks of `data` are compressed
    /// directly from the input slice — no intermediate copy; only a
    /// sub-block tail is staged in the internal buffer.
    pub fn update(&mut self, mut data: &[u8]) {
        self.len += data.len() as u64;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                compress(&mut self.state, &self.buf);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything was absorbed into the buffer; the tail
                // assignment below must not clobber `buf_len`.
                return;
            }
        }
        let mut whole = data.chunks_exact(64);
        for block in whole.by_ref() {
            compress(&mut self.state, block.try_into().expect("64"));
        }
        data = whole.remainder();
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Finishes, producing the digest. Padding is laid out directly in
    /// the internal buffer (at most two compressions, no per-byte loop).
    pub fn finish(mut self) -> Digest {
        let bit_len = self.len * 8;
        self.buf[self.buf_len] = 0x80;
        if self.buf_len + 1 > 56 {
            // No room for the length suffix: pad out this block and
            // compress, then the length goes in a second, zero block.
            self.buf[self.buf_len + 1..].fill(0);
            compress(&mut self.state, &self.buf);
            self.buf = [0; 64];
        } else {
            self.buf[self.buf_len + 1..56].fill(0);
        }
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        compress(&mut self.state, &self.buf);
        let mut out = [0u8; DIGEST_LEN];
        for (i, w) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&w.to_be_bytes());
        }
        out
    }
}

/// The SHA-1 compression function. A free function over disjoint borrows
/// so callers can compress straight out of input slices or the staging
/// buffer without copying the block first.
///
/// The 80 rounds are fully unrolled with the message schedule kept as a
/// 16-word circular buffer (`w[t] = w[t & 15]`, expanded in place), and
/// the five working variables rotate through the round macro's argument
/// order instead of being shuffled — no 80-word schedule array, no
/// per-round `match`, no register moves. ECB-MHT sessions are hash-bound
/// (every fragment fetched is hashed, plus two digests per proof sibling),
/// so this loop is the terminal *and* SOE hot path.
// The ring writes of the final five expansions are never read again; the
// expansion macro stays uniform (and the optimizer drops the dead stores).
#[allow(unused_assignments)]
fn compress(state: &mut [u32; 5], block: &[u8; 64]) {
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

/// One-shot SHA-1.
pub fn sha1(data: &[u8]) -> Digest {
    let mut h = Sha1::new();
    h.update(data);
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &Digest) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vectors() {
        assert_eq!(hex(&sha1(b"abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
        assert_eq!(hex(&sha1(b"")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
        assert_eq!(
            hex(&sha1(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha1::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(hex(&h.finish()), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
    }

    #[test]
    fn incremental_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0, 1, 63, 64, 65, 500, 999, 1000] {
            let mut h = Sha1::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finish(), sha1(&data), "split at {split}");
        }
    }

    #[test]
    fn resume_from_intermediate_state() {
        // Terminal hashes the first two blocks; SOE resumes and hashes the
        // rest — final digest must match a full hash.
        let data: Vec<u8> = (0..256u32).map(|i| i as u8).collect();
        let mut terminal = Sha1::new();
        terminal.update(&data[..128]);
        let (state, blocks) = terminal.state();
        let mut soe = Sha1::resume(state, blocks);
        soe.update(&data[128..]);
        assert_eq!(soe.finish(), sha1(&data));
    }

    #[test]
    fn tamper_changes_digest() {
        let mut data = vec![7u8; 100];
        let d1 = sha1(&data);
        data[50] ^= 1;
        assert_ne!(sha1(&data), d1);
    }
}
