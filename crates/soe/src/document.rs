//! Server-side document preparation: skip-index encoding, encryption and
//! chunk digests. This is what the (trusted) publisher runs once before
//! handing the encrypted document to servers and terminals.
//!
//! Every document goes through one streamed pass: the TCSBR encoder
//! (`encode_tcsbr_stream`) feeds a [`ChunkProtector`], which encrypts and
//! digests chunk-at-a-time into a sink, so the encoded plaintext is never
//! materialized whole. The two entry points differ only in the sink:
//!
//! * [`ServerDoc::prepare`] — a `Vec`: in-memory ciphertext (documents
//!   that fit in RAM);
//! * [`ServerDoc::prepare_to_store_with_stats`] — a buffered file: the
//!   ciphertext never exists whole in memory either, and the document is
//!   then served through a [`FileStore`] resident window — the out-of-core
//!   path for documents larger than RAM.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use xsac_crypto::chunk::{ChunkLayout, ChunkProtector, DIGEST_RECORD};
use xsac_crypto::store::{ChunkStore, FileStore, MemStore};
use xsac_crypto::{IntegrityScheme, ProtectedDoc, TripleDes};
use xsac_index::encode::encode_tcsbr_stream;
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
    /// The encrypted + authenticated form stored on the terminal.
    pub protected: ProtectedDoc<S>,
}

/// Residency accounting for one publish pass
/// ([`ServerDoc::prepare_to_store_with_stats`]).
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
    /// [`xsac_obs::Phase::Io`] (from the [`ChunkProtector`], plus the
    /// file's creation and final flush);
    /// parse-and-encode as [`xsac_obs::Phase::Encode`], derived as the
    /// pass's wall time minus the protector's share. Telemetry only —
    /// zero when runtime-disabled.
    pub phases: PhaseProfile,
}

/// The one publish pass: streams the TCSBR encoding of `doc` through a
/// [`ChunkProtector`] into `sink`, returning the digest table and the
/// pass's stats (its `Encode` phase is left for the caller to derive).
fn publish<E>(
    doc: &Document,
    key: &TripleDes,
    scheme: IntegrityScheme,
    layout: ChunkLayout,
    sink: impl FnMut(&[u8]) -> Result<(), E>,
) -> Result<(Vec<[u8; DIGEST_RECORD]>, PrepareStats), E> {
    let mut protector = ChunkProtector::new(key, scheme, layout, sink);
    let streamed = encode_tcsbr_stream(doc, |slice| protector.push(slice))?;
    let peak_buffered = streamed.peak_buffered + protector.peak_buffered();
    let (digests, _, phases) = protector.finish()?;
    Ok((digests, PrepareStats { encoded_len: streamed.encoded_len, peak_buffered, phases }))
}

impl ServerDoc {
    /// Prepares a document for publication with in-memory ciphertext.
    pub fn prepare(
        doc: &Document,
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
    ) -> ServerDoc {
        let mut ciphertext = Vec::new();
        let (digests, stats) = publish(doc, key, scheme, layout, |chunk: &[u8]| {
            ciphertext.extend_from_slice(chunk);
            Ok::<(), std::convert::Infallible>(())
        })
        .unwrap_or_else(|e| match e {});
        let store = MemStore::new(ciphertext);
        let protected =
            ProtectedDoc { scheme, layout, store, digests, plain_len: stats.encoded_len };
        ServerDoc { dict: doc.dict.clone(), protected }
    }
}

impl ServerDoc<FileStore> {
    /// Prepares a document for publication straight to `path`, reporting
    /// how many bytes the pass held resident at its peak. Neither the
    /// encoded plaintext nor the ciphertext ever exists whole in memory;
    /// the document is then served through a [`FileStore`] window of
    /// `window_bytes`.
    pub fn prepare_to_store_with_stats(
        doc: &Document,
        key: &TripleDes,
        scheme: IntegrityScheme,
        layout: ChunkLayout,
        path: &Path,
        window_bytes: usize,
    ) -> io::Result<(ServerDoc<FileStore>, PrepareStats)> {
        let pass = Tick::now();
        let mut w = BufWriter::new(std::fs::File::create(path)?);
        let created = pass.elapsed_nanos();
        let (digests, mut stats) = publish(doc, key, scheme, layout, |chunk| w.write_all(chunk))?;
        stats.phases.add_nanos(Phase::Io, created);
        let t = Tick::now();
        w.flush()?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        stats.phases.record(Phase::Io, t);
        // What the whole pass spent beyond cipher/digest/io is the
        // tokenize-and-encode work itself.
        let encode = pass.elapsed_nanos().saturating_sub(stats.phases.total());
        stats.phases.add_nanos(Phase::Encode, encode);
        let store = FileStore::open(path, layout.chunk_size, window_bytes)?;
        let protected =
            ProtectedDoc { scheme, layout, store, digests, plain_len: stats.encoded_len };
        Ok((ServerDoc { dict: doc.dict.clone(), protected }, stats))
    }
}

/// Everything a client needs — besides the ciphertext itself — to run
/// sessions against a published document: the dissemination payload of
/// the `Hello` reply in the networked front (`xsac-net`).
///
/// Two kinds of material travel together here, mirroring Figure 2:
///
/// * **integrity/layout material** (scheme, chunk geometry, the encrypted
///   per-chunk digest table, lengths) — safe to obtain from the untrusted
///   server; every digest is itself encrypted and position-bound, so a
///   lying server can only cause verification *failures*;
/// * **secure-channel material** (the tag dictionary) — in the paper it
///   reaches the SOE over the same secure channel as the decryption keys.
///   The encoding itself is always the TCSBR skip index, so no selector
///   travels.
///
/// Everything here is O(layout): the digest table is one record per
/// chunk, and nothing scales with the plaintext. The encoded document
/// itself never travels — the SOE streams it back out of the ciphertext,
/// decrypting and verifying ranges on demand.
#[derive(Clone)]
pub struct DocMeta {
    /// Tag dictionary (secure channel).
    pub dict: TagDict,
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
    use xsac_testkit::TempPath;

    fn key() -> TripleDes {
        TripleDes::new(*b"secret-key-secret-key-24")
    }

    #[test]
    fn prepare_roundtrip_sizes() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let s = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
        assert!(s.stored_len() >= s.protected.plain_len);
        assert!(s.dict.get("b").is_some());
    }

    #[test]
    fn meta_roundtrip_reassembles_an_equivalent_document() {
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let s = ServerDoc::prepare(&doc, &key(), IntegrityScheme::EcbMht, ChunkLayout::default());
        let meta = s.meta();
        assert_eq!(meta.ciphertext_len, s.protected.ciphertext_len());
        let rebuilt = ServerDoc::from_meta(meta, s.protected.store.clone());
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
        let file = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::EcbMht,
            ChunkLayout::default(),
            tmp.path(),
            4096,
        )
        .unwrap()
        .0;
        assert_eq!(std::fs::read(tmp.path()).unwrap(), mem.protected.ciphertext());
        assert_eq!(file.protected.digests, mem.protected.digests);
        assert_eq!(file.protected.plain_len, mem.protected.plain_len);
        assert_eq!(file.stored_len(), mem.stored_len());
    }

    #[test]
    fn prepare_over_existing_file_charges_io_not_encode() {
        // Truncating an existing file is sink work: it lands in `Io`, and
        // the phases (Encode derived as the remainder) never exceed the
        // pass's wall time.
        let doc = Document::parse("<a><b>hello</b><c>world</c></a>").unwrap();
        let tmp = TempPath::new("prepare-existing");
        std::fs::write(tmp.path(), vec![0u8; 120 * 1024]).unwrap();
        let pass = Tick::now();
        let (s, stats) = ServerDoc::prepare_to_store_with_stats(
            &doc,
            &key(),
            IntegrityScheme::EcbMht,
            ChunkLayout::default(),
            tmp.path(),
            4096,
        )
        .unwrap();
        let wall = pass.elapsed_nanos();
        let written = std::fs::metadata(tmp.path()).unwrap().len() as usize;
        assert_eq!(written, s.protected.ciphertext_len(), "the old contents are truncated");
        if xsac_obs::enabled() {
            assert!(stats.phases.get(Phase::Io) > 0, "{:?}", stats.phases);
            assert!(stats.phases.get(Phase::Encode) > 0, "{:?}", stats.phases);
        }
        assert!(stats.phases.total() <= wall, "phases {} > wall {wall}", stats.phases.total());
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
