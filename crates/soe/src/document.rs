//! Server-side document preparation: skip-index encoding, encryption and
//! chunk digests. This is what the (trusted) publisher runs once before
//! handing the encrypted document to servers and terminals.
//!
//! Two preparation paths share one chunk-at-a-time protection core:
//!
//! * [`ServerDoc::prepare`] — ciphertext into memory (documents that fit
//!   in RAM);
//! * [`ServerDoc::prepare_to_store`] — one pass parse → encode → encrypt
//!   → disk: the skip-index encoder streams its bytes straight into a
//!   [`xsac_crypto::chunk::ChunkProtector`] writing to a file, so neither
//!   the encoded plaintext nor the ciphertext is ever materialized. The
//!   document is then served through a [`FileStore`] resident window —
//!   the out-of-core path for documents larger than RAM.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use xsac_crypto::chunk::{ChunkLayout, ChunkProtector, DIGEST_RECORD};
use xsac_crypto::store::{ChunkStore, FileStore, MemStore};
use xsac_crypto::{IntegrityScheme, ProtectedDoc, TripleDes};
use xsac_index::encode::{encode_document, encode_tcsbr_stream, Encoding};
use xsac_obs::{Phase, PhaseProfile, Tick};
use xsac_xml::{Document, TagDict};

/// A published document: TCSBR-encoded, encrypted and authenticated,
/// generic over where the ciphertext lives. The encoded plaintext exists
/// only transiently during preparation — sessions stream it back out of
/// the ciphertext through the integrity layer, so a live document costs
/// O(layout), not O(plaintext), on both ends.
pub struct ServerDoc<S: ChunkStore = MemStore> {
    /// Tag dictionary (shared with the SOE over the secure channel,
    /// like the decryption keys — Figure 2).
    pub dict: TagDict,
    /// Which skip-index encoding the ciphertext holds.
    pub encoding: Encoding,
    /// The encrypted + authenticated form stored on the terminal.
    pub protected: ProtectedDoc<S>,
}

/// Residency accounting for a one-pass [`ServerDoc::prepare_to_store`].
#[derive(Clone, Copy, Debug)]
pub struct PrepareStats {
    /// Total encoded plaintext bytes produced (and encrypted).
    pub encoded_len: usize,
    /// Peak bytes buffered by the encode→encrypt pipeline itself: the
    /// bit-sink's flush buffer plus the protector's one chunk under
    /// assembly. Independent of document size.
    pub peak_buffered: usize,
    /// Wall time per protect phase: cipher work as
    /// [`xsac_obs::Phase::Decrypt`], digests as
    /// [`xsac_obs::Phase::Hash`], the write sink as
    /// [`xsac_obs::Phase::Io`] (all from the [`ChunkProtector`]);
    /// parse-and-encode as [`xsac_obs::Phase::Encode`], derived as the
    /// pass's wall time minus the protector's share. Telemetry only —
    /// zero when runtime-disabled.
    pub phases: PhaseProfile,
}

impl ServerDoc {
    /// Prepares a document for publication with in-memory ciphertext.
    pub fn prepare(
        doc: &Document,
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
    ) -> ServerDoc {
        let encoded = encode_document(doc, Encoding::TCSBR);
        let protected = ProtectedDoc::protect(&encoded.bytes, key, scheme, layout);
        ServerDoc { dict: doc.dict.clone(), encoding: encoded.encoding, protected }
    }

    /// Re-homes the ciphertext (bytes as stored, tampering included) into
    /// a file at `path` behind a resident window of `window_bytes` — the
    /// differential harness's bridge between backends.
    pub fn to_file_backed(
        &self,
        path: &Path,
        window_bytes: usize,
    ) -> io::Result<ServerDoc<FileStore>> {
        Ok(ServerDoc {
            dict: self.dict.clone(),
            encoding: self.encoding,
            protected: self.protected.to_file_backed(path, window_bytes)?,
        })
    }
}

impl ServerDoc<FileStore> {
    /// Prepares a document for publication in one streaming pass: the
    /// skip-index encoder's bytes feed a [`ChunkProtector`] that encrypts
    /// and digests chunk-at-a-time straight to `path`. Neither the
    /// encoded plaintext nor the ciphertext ever exists whole in memory;
    /// the document is then served through a [`FileStore`] window of
    /// `window_bytes`.
    pub fn prepare_to_store(
        doc: &Document,
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
        path: &Path,
        window_bytes: usize,
    ) -> io::Result<ServerDoc<FileStore>> {
        Self::prepare_to_store_with_stats(doc, key, scheme, layout, path, window_bytes)
            .map(|(server, _)| server)
    }

    /// [`prepare_to_store`](Self::prepare_to_store), also reporting how
    /// many bytes the pipeline held resident at its peak.
    pub fn prepare_to_store_with_stats(
        doc: &Document,
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
        path: &Path,
        window_bytes: usize,
    ) -> io::Result<(ServerDoc<FileStore>, PrepareStats)> {
        let pass = Tick::now();
        let file = std::fs::File::create(path)?;
        let mut w = BufWriter::new(file);
        let mut protector = ChunkProtector::new(key, scheme, layout, |chunk| w.write_all(chunk));
        let streamed = encode_tcsbr_stream(doc, |slice| protector.push(slice))?;
        let peak_buffered = streamed.peak_buffered + protector.peak_buffered();
        let (digests, plain_len, mut phases) = protector.finish_with_phases()?;
        let t = Tick::now();
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        phases.record(Phase::Io, t);
        // What the whole pass spent beyond cipher/digest/io is the
        // tokenize-and-encode work itself.
        phases.add_nanos(Phase::Encode, pass.elapsed_nanos().saturating_sub(phases.total()));
        let store = FileStore::open(path, layout.chunk_size, window_bytes)?;
        let protected = ProtectedDoc { scheme, layout, store, digests, plain_len };
        let server = ServerDoc { dict: doc.dict.clone(), encoding: Encoding::TCSBR, protected };
        Ok((server, PrepareStats { encoded_len: streamed.encoded_len, peak_buffered, phases }))
    }
}

/// Everything a client needs — besides the ciphertext itself — to run
/// sessions against a published document: the dissemination payload of
/// `GetMeta` in the networked front (`xsac-net`).
///
/// Two kinds of material travel together here, mirroring Figure 2:
///
/// * **integrity/layout material** (scheme, chunk geometry, the encrypted
///   per-chunk digest table, lengths) — safe to obtain from the untrusted
///   server; every digest is itself encrypted and position-bound, so a
///   lying server can only cause verification *failures*;
/// * **secure-channel material** (the tag dictionary and the encoding
///   selector) — in the paper these reach the SOE over the same secure
///   channel as the decryption keys.
///
/// Everything here is O(layout): the digest table is one record per
/// chunk, and nothing scales with the plaintext. The encoded document
/// itself never travels — the SOE streams it back out of the ciphertext,
/// decrypting and verifying ranges on demand.
#[derive(Clone)]
pub struct DocMeta {
    /// Tag dictionary (secure channel).
    pub dict: TagDict,
    /// Which skip-index encoding the ciphertext holds (secure channel).
    pub encoding: Encoding,
    /// Integrity scheme in force.
    pub scheme: IntegrityScheme,
    /// Chunk/fragment geometry.
    pub layout: ChunkLayout,
    /// Per-chunk encrypted digest records.
    pub digests: Vec<[u8; DIGEST_RECORD]>,
    /// Plaintext length before padding.
    pub plain_len: usize,
    /// Stored ciphertext length (padded).
    pub ciphertext_len: usize,
}

impl<S: ChunkStore> ServerDoc<S> {
    /// Size of the encrypted document + digests on the terminal.
    pub fn stored_len(&self) -> usize {
        self.protected.stored_len()
    }

    /// The document's dissemination metadata (see [`DocMeta`]).
    pub fn meta(&self) -> DocMeta {
        DocMeta {
            dict: self.dict.clone(),
            encoding: self.encoding,
            scheme: self.protected.scheme,
            layout: self.protected.layout,
            digests: self.protected.digests.clone(),
            plain_len: self.protected.plain_len,
            ciphertext_len: self.protected.ciphertext_len(),
        }
    }

    /// Reassembles a servable document from its metadata and a
    /// ciphertext store — the client side of dissemination. The caller
    /// is responsible for `store.len() == meta.ciphertext_len` (the
    /// networked client checks it during the handshake).
    pub fn from_meta(meta: DocMeta, store: S) -> ServerDoc<S> {
        ServerDoc {
            dict: meta.dict,
            encoding: meta.encoding,
            protected: xsac_crypto::ProtectedDoc {
                scheme: meta.scheme,
                layout: meta.layout,
                store,
                digests: meta.digests,
                plain_len: meta.plain_len,
            },
        }
    }
}

impl<S: ChunkStore + Send + Sync + 'static> ServerDoc<S> {
    /// Type-erases the ciphertext store, so documents over different
    /// backends (in-memory, file-backed, pooled) live side by side in
    /// one collection — the shape a multi-tenant registry serves.
    pub fn into_dyn(self) -> ServerDoc<xsac_crypto::DynChunkStore> {
        let xsac_crypto::ProtectedDoc { scheme, layout, store, digests, plain_len } =
            self.protected;
        ServerDoc {
            dict: self.dict,
            encoding: self.encoding,
            protected: xsac_crypto::ProtectedDoc {
                scheme,
                layout,
                store: Box::new(store),
                digests,
                plain_len,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsac_crypto::store::TempPath;

    fn key() -> TripleDes {
        TripleDes::new(*b"secret-key-secret-key-24")
    }

    #[test]
    fn prepare_roundtrip_sizes() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let s = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
        assert!(s.stored_len() >= s.protected.plain_len);
        assert_eq!(s.encoding, Encoding::TCSBR);
        assert!(s.dict.get("b").is_some());
    }

    #[test]
    fn meta_roundtrip_reassembles_an_equivalent_document() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let s = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
        let meta = s.meta();
        assert_eq!(meta.ciphertext_len, s.protected.ciphertext_len());
        let rebuilt = ServerDoc::from_meta(meta, s.protected.store.clone());
        assert_eq!(rebuilt.encoding, s.encoding);
        assert_eq!(rebuilt.protected.digests, s.protected.digests);
        assert_eq!(rebuilt.protected.scheme, s.protected.scheme);
        assert_eq!(rebuilt.protected.layout, s.protected.layout);
        assert_eq!(rebuilt.protected.plain_len, s.protected.plain_len);
        assert_eq!(rebuilt.dict.len(), s.dict.len());
    }

    #[test]
    fn meta_is_o_layout_not_o_plaintext() {
        // Metadata size must track the digest table (one record per
        // chunk), not the document text: a 100× bigger document with the
        // same chunk count grows meta by dict entries only.
        let mut big = String::from("<a>");
        for i in 0..400 {
            big.push_str(&format!("<b>text payload number {i} with some length</b>"));
        }
        big.push_str("</a>");
        let doc = Document::parse(&big).unwrap();
        let layout = ChunkLayout::default();
        let s = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, layout);
        let meta = s.meta();
        let meta_variable_bytes = meta.digests.len() * DIGEST_RECORD;
        assert!(
            meta_variable_bytes
                <= s.protected.ciphertext_len() / layout.chunk_size * DIGEST_RECORD + DIGEST_RECORD,
            "digest table must be one record per chunk"
        );
        assert!(meta.plain_len > 8 * 1024, "document should be non-trivial");
    }

    #[test]
    fn prepare_to_store_matches_prepare() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let mem = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
        let tmp = TempPath::new("prepare-to-store");
        let file = ServerDoc::prepare_to_store(
            &doc,
            &key(),
            IntegrityScheme::EcbMht,
            ChunkLayout::default(),
            tmp.path(),
            4096,
        )
        .unwrap();
        assert_eq!(std::fs::read(tmp.path()).unwrap(), mem.protected.ciphertext());
        assert_eq!(file.protected.digests, mem.protected.digests);
        assert_eq!(file.protected.plain_len, mem.protected.plain_len);
        assert_eq!(file.stored_len(), mem.stored_len());
    }

    #[test]
    fn prepare_to_store_peak_is_o_chunk() {
        // The one-pass pipeline must never hold O(document): its peak is
        // the bit-sink flush buffer plus one chunk under assembly.
        let mut big = String::from("<a>");
        for i in 0..600 {
            big.push_str(&format!("<b>streamed protection payload number {i}</b>"));
        }
        big.push_str("</a>");
        let doc = Document::parse(&big).unwrap();
        let layout = ChunkLayout { chunk_size: 2048, fragment_size: 128 };
        let tmp = TempPath::new("prepare-peak");
        let (s, stats) = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::CbcShac,
            layout,
            tmp.path(),
            8 * 1024,
        )
        .unwrap();
        assert_eq!(stats.encoded_len, s.protected.plain_len);
        assert!(
            stats.encoded_len > 8 * layout.chunk_size,
            "document must span many chunks: {}",
            stats.encoded_len
        );
        assert!(
            stats.peak_buffered <= layout.chunk_size + 2048,
            "pipeline residency must be O(chunk): peak {} for {} encoded",
            stats.peak_buffered,
            stats.encoded_len
        );
    }
}
