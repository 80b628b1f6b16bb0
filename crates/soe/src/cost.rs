//! The cost model — Table 1 of the paper.
//!
//! | context | communication | decryption |
//! |---|---|---|
//! | hardware (future smart cards) | 0.5 MB/s | 0.15 MB/s |
//! | software, Internet connection | 0.1 MB/s | 1.2 MB/s |
//! | software, LAN connection | 10 MB/s | 1.2 MB/s |
//!
//! "The number given for the smart card communication bandwidth
//! corresponds to a worst case where each data entering the SOE takes
//! part in the result. The decryption cost corresponds to the 3DES
//! algorithm, hardwired in the smart card (line 1) and measured on a PC
//! at 1 GHz (lines 2 and 3)."
//!
//! Hashing and evaluator-operation rates are not in Table 1; they are
//! calibrated so that the relative costs reported in §7 hold (integrity
//! adds 32–38% under ECB-MHT — Figure 11; access control accounts for
//! 2–15% of execution time — Figure 9). See `docs/BENCHMARKS.md` for how
//! host-measured rates (`BENCH_crypto.json`) slot in: the fields of
//! [`CostModel`] are public, so a context is one struct literal.
//!
//! Only SOE-side work is charged time: the terminal is free (§2 — it is
//! untrusted, abundant hardware). Terminal hashing under ECB-MHT is still
//! *metered* (`AccessCost::terminal_bytes_hashed`) for load reporting,
//! and since the reader's per-chunk leaf-hash cache it is amortized to
//! one chunk-length per visited chunk regardless of how many fragments of
//! the chunk are fetched.

use xsac_crypto::AccessCost;

const MB: f64 = 1_000_000.0;

/// Byte/operation throughputs of one target context.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Terminal → SOE channel throughput (bytes/s).
    pub comm_bw: f64,
    /// 3DES decryption throughput inside the SOE (bytes/s).
    pub decrypt_bw: f64,
    /// SHA-1 throughput inside the SOE (bytes/s).
    pub hash_bw: f64,
    /// Evaluator throughput (token operations + events per second).
    pub evaluator_ops: f64,
}

impl CostModel {
    /// Table-1 line 1: hardware SOE (the paper's main platform).
    pub fn smartcard() -> CostModel {
        CostModel {
            comm_bw: 0.5 * MB,
            decrypt_bw: 0.15 * MB,
            hash_bw: 1.5 * MB,
            evaluator_ops: 0.6 * MB,
        }
    }

    /// Table-1 line 2: software SOE behind an Internet connection.
    pub fn software_internet() -> CostModel {
        CostModel {
            comm_bw: 0.1 * MB,
            decrypt_bw: 1.2 * MB,
            hash_bw: 3.6 * MB,
            evaluator_ops: 50.0 * MB,
        }
    }

    /// Table-1 line 3: software SOE on a LAN.
    pub fn software_lan() -> CostModel {
        CostModel {
            comm_bw: 10.0 * MB,
            decrypt_bw: 1.2 * MB,
            hash_bw: 3.6 * MB,
            evaluator_ops: 50.0 * MB,
        }
    }

    /// Synthesizes the execution time of measured quantities.
    pub fn time(
        &self,
        comm_bytes: u64,
        decrypt_bytes: u64,
        hash_bytes: u64,
        evaluator_ops: u64,
    ) -> TimeBreakdown {
        TimeBreakdown {
            comm_s: comm_bytes as f64 / self.comm_bw,
            decrypt_s: decrypt_bytes as f64 / self.decrypt_bw,
            hash_s: hash_bytes as f64 / self.hash_bw,
            ac_s: evaluator_ops as f64 / self.evaluator_ops,
        }
    }

    /// Synthesizes the execution time of a metered [`AccessCost`]. Only
    /// SOE-side quantities are charged; `terminal_bytes_hashed` (already
    /// amortized per visited chunk by the reader's leaf-hash cache) is
    /// free terminal work and contributes no time.
    pub fn time_of(&self, cost: &AccessCost, evaluator_ops: u64) -> TimeBreakdown {
        self.time(cost.bytes_to_soe, cost.bytes_decrypted, cost.bytes_hashed, evaluator_ops)
    }
}

/// A synthesized execution-time breakdown (the stacked bars of Figure 9).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBreakdown {
    /// Communication time (terminal → SOE).
    pub comm_s: f64,
    /// Decryption time.
    pub decrypt_s: f64,
    /// Hashing time (integrity).
    pub hash_s: f64,
    /// Access-control (evaluator) time.
    pub ac_s: f64,
}

impl TimeBreakdown {
    /// Total execution time.
    pub fn total(&self) -> f64 {
        self.comm_s + self.decrypt_s + self.hash_s + self.ac_s
    }

    /// Percentage split `(comm, decrypt, hash, ac)`.
    pub fn split(&self) -> (f64, f64, f64, f64) {
        let t = self.total().max(f64::MIN_POSITIVE);
        (
            self.comm_s / t * 100.0,
            self.decrypt_s / t * 100.0,
            self.hash_s / t * 100.0,
            self.ac_s / t * 100.0,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let sc = CostModel::smartcard();
        assert_eq!(sc.comm_bw, 500_000.0);
        assert_eq!(sc.decrypt_bw, 150_000.0);
        let inet = CostModel::software_internet();
        assert_eq!(inet.comm_bw, 100_000.0);
        assert_eq!(inet.decrypt_bw, 1_200_000.0);
        let lan = CostModel::software_lan();
        assert_eq!(lan.comm_bw, 10_000_000.0);
    }

    #[test]
    fn smartcard_is_decrypt_bound_internet_is_comm_bound() {
        let sc = CostModel::smartcard();
        let t = sc.time(1_000_000, 1_000_000, 0, 0);
        assert!(t.decrypt_s > t.comm_s);
        let inet = CostModel::software_internet();
        let t = inet.time(1_000_000, 1_000_000, 0, 0);
        assert!(t.comm_s > t.decrypt_s);
    }

    #[test]
    fn custom_context() {
        let m = CostModel { comm_bw: 1e6, decrypt_bw: 2e6, hash_bw: 3e6, evaluator_ops: 4e6 };
        assert_eq!(m.decrypt_bw, 2e6);
        let t = m.time(0, 2_000_000, 0, 0);
        assert!((t.decrypt_s - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_of_charges_soe_side_only() {
        let m = CostModel { comm_bw: 100.0, decrypt_bw: 50.0, hash_bw: 200.0, evaluator_ops: 10.0 };
        let cost = AccessCost {
            bytes_to_soe: 100,
            bytes_decrypted: 100,
            bytes_hashed: 100,
            digests_decrypted: 3,
            terminal_bytes_hashed: 1_000_000, // free: terminal work
            reads: 7,
            bytes_refetched: 50, // already part of bytes_to_soe
        };
        let t = m.time_of(&cost, 10);
        assert_eq!(t, m.time(100, 100, 100, 10));
    }

    #[test]
    fn time_composition() {
        let m = CostModel { comm_bw: 100.0, decrypt_bw: 50.0, hash_bw: 200.0, evaluator_ops: 10.0 };
        let t = m.time(100, 100, 100, 10);
        assert!((t.comm_s - 1.0).abs() < 1e-9);
        assert!((t.decrypt_s - 2.0).abs() < 1e-9);
        assert!((t.hash_s - 0.5).abs() < 1e-9);
        assert!((t.ac_s - 1.0).abs() < 1e-9);
        assert!((t.total() - 4.5).abs() < 1e-9);
        let (c, d, h, a) = t.split();
        assert!((c + d + h + a - 100.0).abs() < 1e-6);
    }
}
