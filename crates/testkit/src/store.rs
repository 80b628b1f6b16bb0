//! Storage-side test machinery: a fault-injecting [`ChunkStore`] wrapper
//! and a self-removing temp path for file-backed tests.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use xsac_crypto::{ChunkStore, ResidencyMeter, StoreError};

/// Which failure a [`FaultStore`] injects for a scheduled read.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// The backend delivers fewer bytes than asked.
    ShortRead,
    /// The backend fails with a transient I/O error.
    Io,
}

#[derive(Default)]
struct FaultPlan {
    /// `(read index, fault)` — fires when the matching read arrives.
    scheduled: Vec<(u64, InjectedFault)>,
    /// Persistently corrupted stored bytes: `(offset, xor mask)`.
    corrupt: Vec<(usize, u8)>,
}

/// A store wrapper injecting storage faults on a deterministic
/// schedule: short reads, transient I/O errors, and persistent byte
/// corruption (a flipped bit on the medium, visible to *every* read that
/// covers it). Wraps any backend.
pub struct FaultStore<S: ChunkStore> {
    inner: S,
    reads: AtomicU64,
    plan: Mutex<FaultPlan>,
}

impl<S: ChunkStore> FaultStore<S> {
    /// Wraps a backend with an empty fault plan (behaves identically to
    /// the backend until faults are scheduled).
    pub fn new(inner: S) -> FaultStore<S> {
        FaultStore { inner, reads: AtomicU64::new(0), plan: Mutex::new(FaultPlan::default()) }
    }

    /// Schedules `fault` for the `nth` store read (0-based, counted
    /// across all sessions sharing the store).
    pub fn fail_read(&self, nth: u64, fault: InjectedFault) {
        self.plan.lock().expect("fault plan").scheduled.push((nth, fault));
    }

    /// Corrupts the stored byte at `offset` (XOR `mask`) for every
    /// subsequent read covering it.
    pub fn corrupt(&self, offset: usize, mask: u8) {
        assert!(mask != 0, "a zero mask corrupts nothing");
        self.plan.lock().expect("fault plan").corrupt.push((offset, mask));
    }

    /// Number of reads served (or failed) so far.
    pub fn reads_seen(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }
}

impl<S: ChunkStore> ChunkStore for FaultStore<S> {
    fn len(&self) -> usize {
        self.inner.len()
    }

    fn read_at(&self, offset: usize, buf: &mut [u8]) -> Result<(), StoreError> {
        let idx = self.reads.fetch_add(1, Ordering::Relaxed);
        let fault = {
            let plan = self.plan.lock().expect("fault plan");
            plan.scheduled.iter().find(|(n, _)| *n == idx).map(|(_, f)| *f)
        };
        match fault {
            Some(InjectedFault::ShortRead) => {
                return Err(StoreError::ShortRead { offset, wanted: buf.len(), got: buf.len() / 2 })
            }
            Some(InjectedFault::Io) => {
                return Err(StoreError::Io {
                    offset,
                    kind: io::ErrorKind::Other,
                    msg: "injected transient I/O error".to_owned(),
                })
            }
            None => {}
        }
        self.inner.read_at(offset, buf)?;
        let plan = self.plan.lock().expect("fault plan");
        for &(pos, mask) in &plan.corrupt {
            if pos >= offset && pos < offset + buf.len() {
                buf[pos - offset] ^= mask;
            }
        }
        Ok(())
    }

    fn meter(&self) -> Option<&ResidencyMeter> {
        self.inner.meter()
    }
}

/// A unique path under the system temp directory, removed on drop —
/// shared cleanup helper for the file-backed tests, benches and
/// examples (keeps the CI temp-dir hygiene check green without an
/// external `tempfile` crate).
pub struct TempPath {
    path: PathBuf,
}

static TEMP_COUNTER: AtomicU64 = AtomicU64::new(0);

impl TempPath {
    /// A fresh `xsac-<label>-<pid>-<n>` path (not yet created).
    pub fn new(label: &str) -> TempPath {
        let n = TEMP_COUNTER.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!("xsac-{label}-{}-{n}", std::process::id()));
        TempPath { path }
    }

    /// The path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempPath {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_crypto::MemStore;

    fn data(n: usize) -> Vec<u8> {
        (0..n).map(|i| (i * 13 % 251) as u8).collect()
    }

    #[test]
    fn fault_store_schedule_and_corruption() {
        let s = FaultStore::new(MemStore::new(data(1000)));
        s.fail_read(1, InjectedFault::Io);
        s.fail_read(2, InjectedFault::ShortRead);
        s.corrupt(500, 0x01);
        let mut buf = [0u8; 8];
        s.read_at(0, &mut buf).unwrap(); // read 0: clean
        assert!(matches!(s.read_at(0, &mut buf), Err(StoreError::Io { .. })));
        assert!(matches!(s.read_at(0, &mut buf), Err(StoreError::ShortRead { .. })));
        s.read_at(496, &mut buf).unwrap(); // read 3: corrupted byte visible
        assert_eq!(buf[4], data(1000)[500] ^ 0x01);
        // And the corruption is persistent across reads.
        s.read_at(496, &mut buf).unwrap();
        assert_eq!(buf[4], data(1000)[500] ^ 0x01);
        assert_eq!(s.reads_seen(), 5);
    }

    #[test]
    fn temp_path_removed_on_drop() {
        let path = {
            let tmp = TempPath::new("droptest");
            std::fs::write(tmp.path(), b"x").unwrap();
            assert!(tmp.path().exists());
            tmp.path().to_path_buf()
        };
        assert!(!path.exists(), "TempPath must clean up after itself");
    }
}
