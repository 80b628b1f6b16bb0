//! Inputs: Hospital documents as XML text, the subjects' policies, the
//! seeded session mixes, and the DOM-oracle answer for every distinct
//! (document, view, subject, query).

use xsac_core::oracle::{oracle_query_string, oracle_view_string};
use xsac_core::output::{reassemble_to_string, LogItem};
use xsac_core::Policy;
use xsac_crypto::TripleDes;
use xsac_datagen::hospital::physician_name;
use xsac_datagen::profiles::{doctor_policy, figure10_query, researcher_policy, secretary_policy};
use xsac_datagen::Dataset;
use xsac_xml::{Document, TagDict};
use xsac_xpath::{parse_path, Automaton};

/// The publisher's and every subject's 3DES key.
pub fn key() -> TripleDes {
    TripleDes::new(*b"perfbench-3des-key-24-b!")
}

/// splitmix64: the source of the session sequences and the publish order.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// A generated Hospital document: the DOM the oracle reads and the XML
/// text the system is handed.
pub struct Source {
    pub dom: Document,
    pub text: String,
}

impl Source {
    pub fn hospital(scale: f64, seed: u64) -> Source {
        let dom = Dataset::Hospital.generate(scale, seed);
        let text = xsac_xml::writer::document_to_string(&dom);
        Source { dom, text }
    }
}

/// Which access-control policy a subject logs in with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Secretary,
    /// The Figure-1 Doctor policy; the subject is a physician id.
    Doctor,
    /// R1 + (R2, R3) for this many protocol groups.
    Researcher(usize),
}

/// One kind of session in a mix.
#[derive(Clone, Debug)]
pub struct ViewKind {
    /// Label in the per-view breakdown (`Sec`, `FTD`, `SR`, ...).
    pub label: &'static str,
    pub role: Role,
    pub subject: String,
    /// Age threshold of the Figure-10 query `//Folder[//Age > v]`.
    pub query_age: Option<u32>,
}

impl ViewKind {
    pub fn new(label: &'static str, role: Role, subject: &str) -> ViewKind {
        ViewKind { label, role, subject: subject.to_owned(), query_age: None }
    }

    pub fn doctor(label: &'static str, physician: usize) -> ViewKind {
        ViewKind::new(label, Role::Doctor, &physician_name(physician))
    }

    pub fn with_query(mut self, age: u32) -> ViewKind {
        self.query_age = Some(age);
        self
    }

    /// Compile-cache role name: subjects of one role share it.
    pub fn role_name(&self) -> &'static str {
        match self.role {
            Role::Secretary => "secretary",
            Role::Doctor => "doctor",
            Role::Researcher(_) => "researcher",
        }
    }

    fn policy(&self, dict: &mut TagDict) -> Policy {
        match self.role {
            Role::Secretary => secretary_policy(&self.subject, dict),
            Role::Doctor => doctor_policy(&self.subject, dict),
            Role::Researcher(groups) => researcher_policy(&self.subject, groups, dict),
        }
    }
}

/// A view ready to run against one published document: the policy and
/// query parsed against the published dictionary, and the oracle's answer.
pub struct Prepared {
    pub kind: ViewKind,
    pub policy: Policy,
    pub query: Option<Automaton>,
    /// The published dictionary extended by the policy's and query's tags
    /// (what the delivery log is reassembled with).
    pub dict: TagDict,
    pub expected: String,
}

impl Prepared {
    /// Parses the view against `published` (the dictionary sessions see)
    /// and asks the oracle for the answer over the generated DOM, whose
    /// tag numbering may differ — so the policy is parsed once per side.
    pub fn new(kind: &ViewKind, published: &TagDict, dom: &Document) -> Prepared {
        let query_text = kind.query_age.map(figure10_query);
        let mut dict = published.clone();
        let policy = kind.policy(&mut dict);
        let query =
            query_text.as_ref().map(|q| Automaton::parse(q, &mut dict).expect("static query"));
        let mut oracle_dict = dom.dict.clone();
        let oracle_policy = kind.policy(&mut oracle_dict);
        let expected = match &query_text {
            None => oracle_view_string(dom, &oracle_policy),
            Some(q) => oracle_query_string(dom, &oracle_policy, &parse_path(q).expect("query")),
        };
        Prepared { kind: kind.clone(), policy, query, dict, expected }
    }

    /// Whether a session's delivery log reassembles to the oracle's view.
    pub fn matches(&self, log: &[LogItem]) -> bool {
        reassemble_to_string(&self.dict, log) == self.expected
    }
}

/// A closed-loop session sequence with fixed proportions: each block holds
/// every entry `weight` times, shuffled by the seed. Any prefix of the
/// sequence is within one block of the nominal mix, so a time-bounded run
/// sees the same proportions whatever its length and seed.
pub struct Mix {
    block: Vec<usize>,
    pos: usize,
    rng: Rng,
}

impl Mix {
    pub fn new(weights: &[usize], seed: u64) -> Mix {
        let block: Vec<usize> =
            weights.iter().enumerate().flat_map(|(i, &w)| std::iter::repeat_n(i, w)).collect();
        assert!(!block.is_empty(), "empty mix");
        let mut mix = Mix { pos: block.len(), block, rng: Rng::new(seed) };
        mix.refill();
        mix
    }

    fn refill(&mut self) {
        self.rng.shuffle(&mut self.block);
        self.pos = 0;
    }

    pub fn next_index(&mut self) -> usize {
        if self.pos == self.block.len() {
            self.refill();
        }
        self.pos += 1;
        self.block[self.pos - 1]
    }
}
