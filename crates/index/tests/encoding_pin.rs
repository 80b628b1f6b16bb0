//! Encoding pin: the TCSBR bytes of every generated dataset must match
//! the SHA-1s recorded below. The Skip index is what every stored
//! document carries under its ciphertext, so a change to the encoder's
//! layout arithmetic (descendant-tag sets, the body-size fixed point,
//! the tag arrays, the bit packing) that moved a single byte would make
//! every published document unreadable by older SOEs; this test fails
//! first. Treebank (251 tags) and Hospital (90 tags) span several 64-bit
//! set words, so the multi-word paths are pinned too.

use xsac_crypto::sha1;
use xsac_datagen::Dataset;
use xsac_index::encode::{encode_document, Encoding};

/// `(dataset, SHA-1 of its TCSBR bytes)` at scale 0.05, seed 42.
const PINS: [(Dataset, &str); 4] = [
    (Dataset::Wsu, "19613e1dcf07dea1acfc1ef5582da490a96bbdf5"),
    (Dataset::Sigmod, "77d664b0db51ff283863d40b3a5a0112ae8157c5"),
    (Dataset::Treebank, "6a404a1209c9be7d881599f3b30be3c996e7cc2e"),
    (Dataset::Hospital, "5308b9fdfb18fc9fd1079e408fd995a79d270ffb"),
];

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn tcsbr_bytes_match_pinned_digests() {
    for (dataset, pin) in PINS {
        let doc = dataset.generate(0.05, 42);
        let bytes = encode_document(&doc, Encoding::TCSBR).bytes;
        assert_eq!(hex(&sha1(&bytes)), pin, "{} TCSBR bytes", dataset.name());
    }
}
