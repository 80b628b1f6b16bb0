//! Ciphertext pin: one fixed generated Hospital document, protected
//! under every integrity scheme, must produce exactly the stored bytes
//! (ciphertext and encrypted digest table) whose SHA-1s are recorded
//! below. A change to the cipher core, the modes or the chunk layout that
//! moved a single byte would leave every previously stored `.ct` file
//! unreadable; this test fails first. It also reads the pinned
//! ciphertext back through an SOE reader, so stored documents stay
//! readable, not just reproducible. (`tests/out_of_core.rs` checks that
//! the one-pass file path writes the same bytes as the in-memory one.)

use xsac::crypto::chunk::ChunkLayout;
use xsac::crypto::{sha1, IntegrityScheme, SoeReader, TripleDes};
use xsac::datagen::Dataset;
use xsac::index::encode::{encode_document, Encoding};
use xsac::soe::ServerDoc;

/// `(scheme, SHA-1 of the ciphertext, SHA-1 of the digest table)`. ECB
/// stores no digests (the SHA-1 of nothing); ECB-MHT and ECB share one
/// ciphertext, as do the two CBC schemes.
const PINS: [(IntegrityScheme, &str, &str); 4] = [
    (
        IntegrityScheme::Ecb,
        "eef25704dca2c7eb9d62708f32f208f1ee0a4921",
        "da39a3ee5e6b4b0d3255bfef95601890afd80709",
    ),
    (
        IntegrityScheme::CbcSha,
        "d942b3be911ecd0263859c944991bc7ae5f78d84",
        "c7749d7144a202556d21f699e1e9d40474e941a0",
    ),
    (
        IntegrityScheme::CbcShac,
        "d942b3be911ecd0263859c944991bc7ae5f78d84",
        "b68fb060d258281bbff6434a007484a0e7fadee7",
    ),
    (
        IntegrityScheme::EcbMht,
        "eef25704dca2c7eb9d62708f32f208f1ee0a4921",
        "6e056a5af7a06c0a7c4a09a4b72ffc696a3d6516",
    ),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn protected_bytes_match_pinned_digests() {
    let doc = Dataset::Hospital.generate(0.01, 42);
    let key = TripleDes::new(*b"ciphertext-pin-key-24b!!");
    let plain = encode_document(&doc, Encoding::TCSBR).bytes;
    for (scheme, ct_sha, digests_sha) in PINS {
        let server = ServerDoc::prepare(&doc, &key, scheme, ChunkLayout::default());
        let protected = &server.protected;
        assert_eq!(hex(&sha1(protected.ciphertext())), ct_sha, "{} ciphertext", scheme.name());
        let table = protected.digests.concat();
        assert_eq!(hex(&sha1(&table)), digests_sha, "{} digest table", scheme.name());
        let mut reader = SoeReader::new(protected, &key);
        assert_eq!(reader.read(0, plain.len()).unwrap(), plain, "{} readback", scheme.name());
    }
}
