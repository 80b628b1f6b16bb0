//! Serialization and exposition of the [`ServiceSnapshot`]: the
//! payload of the wire `Stats` frame, a Prometheus-style text render
//! for scraping, and a dependency-free JSON render for tooling.
//!
//! Each snapshot level ([`ServiceSnapshot`], [`RegistrySnapshot`],
//! [`DocRow`]) names its scalars **once**, in one table of counters and
//! one of gauges. The encoder, the decoder and both renderings walk
//! those tables, so a counter cannot be shipped but not rendered, or
//! decoded into the wrong field. A table name is the JSON key and the
//! stem of the Prometheus series: `xsac_<name>_total` for a counter,
//! `xsac_<name>` for a gauge, with `xsac_doc_` and a `doc` label for
//! per-document rows.
//!
//! The binary encoding is **versioned** ([`SNAPSHOT_VERSION`]) and
//! decoded with the same hostile-input discipline as the rest of the
//! wire layer: every read is bounds-checked through the frame
//! cursor, trailing bytes are rejected, and structural nonsense
//! (an unknown version, an out-of-range histogram bucket, indices out
//! of order) is a typed [`WireError::Malformed`] — never a panic or a
//! silent misread. Histograms travel **sparse** (only non-zero
//! buckets), so an idle service's snapshot stays small even though a
//! [`Histogram`] spans 64 buckets. The service-wide phase and latency
//! totals are the merge of the per-doc rows, so they are not encoded:
//! decode rebuilds them, and the round trip is value-exact.

use crate::registry::{DocRow, RegistrySnapshot};
use crate::server::ServiceSnapshot;
use crate::wire::{get_profile, put_profile, put_str, put_u32, put_u64, Cursor, WireError};
use std::fmt::Write as _;
use xsac_obs::{Histogram, Phase, PhaseProfile, HISTOGRAM_BUCKETS};

/// Version byte leading every serialized snapshot.
pub const SNAPSHOT_VERSION: u8 = 2;

/// One named scalar of a snapshot level: `(name, value)`.
type Entry = (&'static str, u64);

/// A snapshot scalar as it travels: every counter and gauge is one u64
/// on the wire.
trait Scalar {
    fn to_u64(self) -> u64;
    fn from_u64(v: u64) -> Self;
}

impl Scalar for u64 {
    fn to_u64(self) -> u64 {
        self
    }
    fn from_u64(v: u64) -> u64 {
        v
    }
}

impl Scalar for usize {
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(v: u64) -> usize {
        usize::try_from(v).unwrap_or(usize::MAX)
    }
}

impl Scalar for bool {
    fn to_u64(self) -> u64 {
        self as u64
    }
    fn from_u64(v: u64) -> bool {
        v != 0
    }
}

/// Declares one snapshot level's scalar tables, in wire order:
/// `counters()` and `gauges()` drive the encoder and both renderings,
/// and `get_scalars` decodes the same entries in the same order.
macro_rules! scalar_tables {
    ($ty:ty {
        counters: [$($c:literal => $cf:ident),* $(,)?],
        gauges: [$($g:literal => $gf:ident),* $(,)?] $(,)?
    }) => {
        impl $ty {
            fn counters(&self) -> Vec<Entry> {
                vec![$(($c, Scalar::to_u64(self.$cf))),*]
            }
            fn gauges(&self) -> Vec<Entry> {
                vec![$(($g, Scalar::to_u64(self.$gf))),*]
            }
            fn get_scalars(&mut self, c: &mut Cursor<'_>) -> Result<(), WireError> {
                $(self.$cf = Scalar::from_u64(c.u64()?);)*
                $(self.$gf = Scalar::from_u64(c.u64()?);)*
                Ok(())
            }
        }
    };
}

scalar_tables!(ServiceSnapshot {
    counters: [
        "connections" => connections,
        "requests" => requests,
        "chunks_served" => chunks_served,
        "bytes_served" => bytes_served,
        "fault_frames" => fault_frames,
        "slow_peer_evictions" => slow_peer_evictions,
        "budget_evictions" => budget_evictions,
        "admission_rejections" => admission_rejections,
    ],
    gauges: [],
});

scalar_tables!(RegistrySnapshot {
    counters: [
        "doc_opens" => doc_opens,
        "doc_closes" => doc_closes,
        "unknown_doc_rejections" => unknown_doc_rejections,
        "pool_fetches" => pool_fetches,
        "pool_refetches" => pool_refetches,
        "pool_evictions" => pool_evictions,
        "pool_purged_chunks" => pool_purged_chunks,
    ],
    gauges: [
        "pool_budget_bytes" => budget_bytes,
        "pool_resident_bytes" => resident_bytes_now,
        "pool_resident_bytes_peak" => resident_bytes_peak,
    ],
});

// Per-document series carry an `xsac_doc_` prefix, so the open/close
// counters take names that cannot collide with the registry-wide
// `xsac_doc_opens_total` / `xsac_doc_closes_total`.
scalar_tables!(DocRow {
    counters: [
        "requests" => requests,
        "chunks_served" => chunks_served,
        "bytes_served" => bytes_served,
        "fault_frames" => fault_frames,
        "open_events" => opens,
        "close_events" => closes,
    ],
    gauges: ["open" => open, "lazy" => lazy],
});

fn put_entries(out: &mut Vec<u8>, counters: Vec<Entry>, gauges: Vec<Entry>) {
    for (_, v) in counters.into_iter().chain(gauges) {
        put_u64(out, v);
    }
}

/// Serializes a snapshot into the `Stats` frame payload.
pub fn encode_snapshot(snap: &ServiceSnapshot) -> Vec<u8> {
    let mut out = vec![SNAPSHOT_VERSION];
    let r = &snap.registry;
    put_u32(&mut out, u32::try_from(r.docs.len()).expect("doc count fits u32"));
    for d in &r.docs {
        put_str(&mut out, &d.doc_id);
        put_entries(&mut out, d.counters(), d.gauges());
        put_profile(&mut out, &d.phases);
        put_histogram(&mut out, &d.request_latency);
    }
    put_entries(&mut out, r.counters(), r.gauges());
    put_entries(&mut out, snap.counters(), snap.gauges());
    out
}

/// Decodes a `Stats` frame payload produced by [`encode_snapshot`].
pub fn decode_snapshot(body: &[u8]) -> Result<ServiceSnapshot, WireError> {
    let mut c = Cursor::new(body);
    if c.u8()? != SNAPSHOT_VERSION {
        return Err(WireError::Malformed("unknown snapshot version"));
    }
    let mut snap = ServiceSnapshot::default();
    let n_docs = c.u32()? as usize;
    snap.registry.docs.reserve(n_docs.min(1024));
    for _ in 0..n_docs {
        let mut d = DocRow { doc_id: c.str()?.to_owned(), ..DocRow::default() };
        d.get_scalars(&mut c)?;
        d.phases = get_profile(&mut c)?;
        d.request_latency = get_histogram(&mut c)?;
        snap.registry.docs.push(d);
    }
    snap.registry.get_scalars(&mut c)?;
    snap.get_scalars(&mut c)?;
    c.finish("trailing snapshot bytes")?;
    Ok(snap.with_row_totals())
}

/// Sparse histogram encoding: non-zero bucket count, then
/// `(bucket index, count)` pairs in increasing index order, then the
/// value sum and max.
fn put_histogram(out: &mut Vec<u8>, h: &Histogram) {
    let nonzero = h.buckets().iter().filter(|&&c| c != 0).count();
    out.push(u8::try_from(nonzero).expect("≤64 buckets"));
    for (i, &count) in h.buckets().iter().enumerate() {
        if count != 0 {
            out.push(i as u8);
            put_u64(out, count);
        }
    }
    put_u64(out, h.sum());
    put_u64(out, h.max());
}

fn get_histogram(c: &mut Cursor<'_>) -> Result<Histogram, WireError> {
    let nonzero = c.u8()? as usize;
    if nonzero > HISTOGRAM_BUCKETS {
        return Err(WireError::Malformed("histogram bucket count out of range"));
    }
    let mut buckets = [0u64; HISTOGRAM_BUCKETS];
    let mut last: Option<usize> = None;
    for _ in 0..nonzero {
        let i = c.u8()? as usize;
        if i >= HISTOGRAM_BUCKETS || last.is_some_and(|prev| i <= prev) {
            return Err(WireError::Malformed("histogram bucket index out of order"));
        }
        buckets[i] = c.u64()?;
        last = Some(i);
    }
    Ok(Histogram::from_parts(buckets, c.u64()?, c.u64()?))
}

/// One labelled series set of a snapshot level: the service as a whole
/// (no labels) or one document (`doc="…"`).
struct Series<'a> {
    labels: String,
    counters: Vec<Entry>,
    gauges: Vec<Entry>,
    phases: &'a PhaseProfile,
    latency: &'a Histogram,
}

fn push_metric(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {value}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {value}");
    }
}

/// `labels` extended by one more `key="value"` pair.
fn with_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        extra.to_owned()
    } else {
        format!("{labels},{extra}")
    }
}

/// Escapes a label value per the Prometheus exposition format.
fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// One `# TYPE`d metric family with one sample per series in `rows`.
fn push_family(
    out: &mut String,
    name: &str,
    kind: &str,
    rows: &[Series<'_>],
    sample: impl Fn(&Series<'_>) -> u64,
) {
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for s in rows {
        push_metric(out, name, &s.labels, sample(s));
    }
}

/// Renders one snapshot level as one contiguous group per metric
/// family — the exposition format's grouping rule. Every row of a level
/// comes from the same tables, so entry `i` names the same family in
/// each.
fn push_level(out: &mut String, prefix: &str, rows: &[Series<'_>]) {
    let Some(first) = rows.first() else { return };
    for (i, (name, _)) in first.counters.iter().enumerate() {
        push_family(out, &format!("{prefix}{name}_total"), "counter", rows, |s| s.counters[i].1);
    }
    for (i, (name, _)) in first.gauges.iter().enumerate() {
        push_family(out, &format!("{prefix}{name}"), "gauge", rows, |s| s.gauges[i].1);
    }
    let phases = format!("{prefix}phase_nanos_total");
    let _ = writeln!(out, "# TYPE {phases} counter");
    for s in rows {
        for phase in Phase::ALL {
            let labels = with_label(&s.labels, &format!("phase=\"{}\"", phase.name()));
            push_metric(out, &phases, &labels, s.phases.get(phase));
        }
    }
    let latency = format!("{prefix}request_latency_nanos");
    let _ = writeln!(out, "# TYPE {latency} summary");
    for s in rows {
        let h = s.latency;
        for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
            push_metric(out, &latency, &with_label(&s.labels, &format!("quantile=\"{q}\"")), v);
        }
    }
    for s in rows {
        push_metric(out, &format!("{latency}_count"), &s.labels, s.latency.count());
    }
    for s in rows {
        push_metric(out, &format!("{latency}_sum"), &s.labels, s.latency.sum());
    }
    push_family(out, &format!("{latency}_max"), "gauge", rows, |s| s.latency.max());
}

/// Renders the snapshot in the Prometheus text exposition format:
/// service-wide counters and gauges, per-phase time totals and latency
/// quantiles, then the same per document under a `doc` label. Every
/// table entry of every level appears here.
pub fn render_text(snap: &ServiceSnapshot) -> String {
    let r = &snap.registry;
    let service = Series {
        labels: String::new(),
        counters: [snap.counters(), r.counters()].concat(),
        gauges: r.gauges(),
        phases: &snap.phase_totals,
        latency: &snap.request_latency,
    };
    let docs: Vec<Series<'_>> = r
        .docs
        .iter()
        .map(|d| Series {
            labels: format!("doc=\"{}\"", escape_label(&d.doc_id)),
            counters: d.counters(),
            gauges: d.gauges(),
            phases: &d.phases,
            latency: &d.request_latency,
        })
        .collect();
    let mut out = String::new();
    push_level(&mut out, "xsac_", &[service]);
    push_level(&mut out, "xsac_doc_", &docs);
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// `"name":value` members for every entry, comma-separated.
fn json_entries(entries: Vec<Entry>) -> String {
    let fields: Vec<String> = entries.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
    fields.join(",")
}

fn json_histogram(h: &Histogram) -> String {
    format!(
        "{{\"count\":{},\"sum\":{},\"max\":{},\"p50\":{},\"p90\":{},\"p99\":{}}}",
        h.count(),
        h.sum(),
        h.max(),
        h.p50(),
        h.p90(),
        h.p99()
    )
}

fn json_phases(p: &PhaseProfile) -> String {
    let fields: Vec<String> =
        Phase::ALL.iter().map(|&ph| format!("\"{}\":{}", ph.name(), p.get(ph))).collect();
    format!("{{{}}}", fields.join(","))
}

/// Renders the snapshot as one flat JSON object keyed by the table
/// names, plus `phase_totals`, `request_latency` and a `docs` array
/// (no external dependencies — hand-rolled).
pub fn render_json(snap: &ServiceSnapshot) -> String {
    let r = &snap.registry;
    let docs: Vec<String> = r
        .docs
        .iter()
        .map(|d| {
            format!(
                "{{\"doc_id\":\"{}\",{},\"phases\":{},\"request_latency\":{}}}",
                json_escape(&d.doc_id),
                json_entries([d.counters(), d.gauges()].concat()),
                json_phases(&d.phases),
                json_histogram(&d.request_latency)
            )
        })
        .collect();
    format!(
        "{{{},\"phase_totals\":{},\"request_latency\":{},\"docs\":[{}]}}",
        json_entries([snap.counters(), r.counters(), r.gauges()].concat()),
        json_phases(&snap.phase_totals),
        json_histogram(&snap.request_latency),
        docs.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// Every u64 scalar differs from every other and from 0 and 1 (the
    /// bool gauges), so a decode that swaps any two entries fails the
    /// round trip.
    fn sample() -> ServiceSnapshot {
        let mut latency_a = Histogram::new();
        let mut latency_b = Histogram::new();
        for v in [100, 2_000, 2_100, 65_000] {
            latency_a.record(v);
        }
        latency_b.record(1_500_000);
        let docs = vec![
            DocRow {
                doc_id: "alpha".to_owned(),
                open: true,
                lazy: false,
                requests: 12,
                chunks_served: 40,
                bytes_served: 10_240,
                fault_frames: 5,
                opens: 3,
                closes: 2,
                phases: PhaseProfile::from_nanos([10, 20, 30, 40, 50, 0, 0]),
                request_latency: latency_a,
            },
            DocRow {
                doc_id: "beta \"quoted\"".to_owned(),
                open: false,
                lazy: true,
                requests: 7,
                chunks_served: 9,
                bytes_served: 2_304,
                fault_frames: 6,
                opens: 14,
                closes: 13,
                phases: PhaseProfile::from_nanos([1, 2, 3, 4, 5, 6, 7]),
                request_latency: latency_b,
            },
        ];
        let registry = RegistrySnapshot {
            docs,
            doc_opens: 17,
            doc_closes: 15,
            unknown_doc_rejections: 21,
            budget_bytes: 512,
            resident_bytes_now: 256,
            resident_bytes_peak: 700,
            pool_fetches: 90,
            pool_refetches: 22,
            pool_evictions: 33,
            pool_purged_chunks: 18,
        };
        ServiceSnapshot {
            registry,
            connections: 26,
            requests: 19,
            chunks_served: 49,
            bytes_served: 12_544,
            fault_frames: 11,
            slow_peer_evictions: 23,
            budget_evictions: 31,
            admission_rejections: 47,
            ..ServiceSnapshot::default()
        }
        .with_row_totals()
    }

    #[test]
    fn snapshot_roundtrips() {
        let snap = sample();
        let r = &snap.registry;
        let mut values: Vec<u64> =
            [snap.counters(), r.counters(), r.gauges()].concat().into_iter().map(|e| e.1).collect();
        for d in &r.docs {
            values.extend(d.counters().into_iter().map(|e| e.1));
        }
        let n = values.len();
        values.sort_unstable();
        values.dedup();
        assert_eq!(values.len(), n, "sample scalars must be pairwise distinct");
        assert!(values[0] > 1, "sample scalars must differ from the bool gauges");
        let bytes = encode_snapshot(&snap);
        assert_eq!(decode_snapshot(&bytes).unwrap(), snap);
        // An empty service round-trips too.
        let empty = ServiceSnapshot::default();
        assert_eq!(decode_snapshot(&encode_snapshot(&empty)).unwrap(), empty);
    }

    #[test]
    fn hostile_snapshot_bytes_are_typed_errors() {
        let snap = sample();
        let bytes = encode_snapshot(&snap);
        // Unknown versions, including the retired version 1.
        for version in [99, 1] {
            let mut evil = bytes.clone();
            evil[0] = version;
            assert!(matches!(decode_snapshot(&evil), Err(WireError::Malformed(_))));
        }
        // Truncations at every prefix length decode as typed errors.
        for cut in 0..bytes.len() {
            assert!(decode_snapshot(&bytes[..cut]).is_err(), "truncation at {cut} must not decode");
        }
        // Trailing garbage is rejected.
        let mut long = bytes.clone();
        long.push(0);
        assert!(matches!(decode_snapshot(&long), Err(WireError::Malformed(_))));
        // An absurd doc count must not pre-allocate unboundedly (the
        // cursor runs dry first, typed-ly).
        let mut huge = vec![SNAPSHOT_VERSION];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(decode_snapshot(&huge).is_err());
    }

    #[test]
    fn hostile_histogram_encoding_is_rejected() {
        // Hand-build a histogram with out-of-order bucket indices.
        let mut body = Vec::new();
        body.push(2u8);
        body.push(5u8);
        put_u64(&mut body, 1);
        body.push(5u8); // duplicate index
        put_u64(&mut body, 1);
        put_u64(&mut body, 2);
        put_u64(&mut body, 2);
        let mut c = Cursor::new(&body);
        assert!(matches!(get_histogram(&mut c), Err(WireError::Malformed(_))));
        // Bucket index past the array.
        let mut body = Vec::new();
        body.push(1u8);
        body.push(64u8);
        put_u64(&mut body, 1);
        put_u64(&mut body, 1);
        put_u64(&mut body, 1);
        let mut c = Cursor::new(&body);
        assert!(matches!(get_histogram(&mut c), Err(WireError::Malformed(_))));
    }

    #[test]
    fn text_exposition_covers_every_counter() {
        let snap = sample();
        let text = render_text(&snap);
        for needle in [
            "xsac_connections_total 26",
            "xsac_admission_rejections_total 47",
            "xsac_pool_evictions_total 33",
            "xsac_pool_refetches_total 22",
            "xsac_pool_resident_bytes 256",
            "xsac_slow_peer_evictions_total 23",
            "xsac_budget_evictions_total 31",
            "xsac_unknown_doc_rejections_total 21",
            "xsac_doc_opens_total 17",
            "xsac_phase_nanos_total{phase=\"fetch\"} 11",
            "xsac_phase_nanos_total{phase=\"evaluate\"} 55",
            "xsac_request_latency_nanos{quantile=\"0.5\"}",
            "xsac_doc_requests_total{doc=\"alpha\"} 12",
            "xsac_doc_open_events_total{doc=\"alpha\"} 3",
            "xsac_doc_lazy{doc=\"alpha\"} 0",
            "xsac_doc_request_latency_nanos{doc=\"alpha\",quantile=\"0.99\"}",
            "doc=\"beta \\\"quoted\\\"\"",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Counters end in `_total` and gauges do not; every family is one
    /// contiguous group under a single `# TYPE` line; and no family mixes
    /// doc-labelled and unlabelled series.
    #[test]
    fn text_exposition_follows_the_naming_and_grouping_rules() {
        let text = render_text(&sample());
        let mut seen = HashSet::new();
        let mut family: Option<(&str, &str, Option<bool>)> = None;
        for line in text.lines() {
            if let Some(decl) = line.strip_prefix("# TYPE ") {
                let (name, kind) = decl.split_once(' ').expect("# TYPE name kind");
                assert!(seen.insert(name), "family {name} declared twice:\n{text}");
                match kind {
                    "counter" => assert!(name.ends_with("_total"), "counter {name} lacks _total"),
                    "gauge" | "summary" => assert!(!name.ends_with("_total"), "{kind} {name}"),
                    other => panic!("unknown metric type {other}"),
                }
                family = Some((name, kind, None));
                continue;
            }
            let (fam, kind, doc) = family.as_mut().expect("sample before any # TYPE");
            let end = line.find(['{', ' ']).expect("sample line");
            let name = &line[..end];
            let in_family = name == *fam
                || (*kind == "summary"
                    && [format!("{fam}_count"), format!("{fam}_sum")].iter().any(|n| n == name));
            assert!(in_family, "{name} sample outside its family {fam}:\n{text}");
            let labelled = line[end..].starts_with("{doc=");
            assert_eq!(*doc.get_or_insert(labelled), labelled, "{fam} mixes doc labels");
        }
        // Every table entry of every level made it into a family.
        let snap = sample();
        let r = &snap.registry;
        let d = &r.docs[0];
        for (prefix, counters, gauges) in [
            ("xsac_", [snap.counters(), r.counters()].concat(), r.gauges()),
            ("xsac_doc_", d.counters(), d.gauges()),
        ] {
            for (name, _) in counters {
                assert!(seen.contains(format!("{prefix}{name}_total").as_str()), "{name}");
            }
            for (name, _) in gauges {
                assert!(seen.contains(format!("{prefix}{name}").as_str()), "{name}");
            }
        }
    }

    #[test]
    fn json_render_is_parseable_shape() {
        let snap = sample();
        let json = render_json(&snap);
        // No serde in-tree: pin the structural anchors instead.
        assert!(json.starts_with('{') && json.ends_with('}'));
        for needle in [
            "\"connections\":26",
            "\"admission_rejections\":47",
            "\"pool_resident_bytes_peak\":700",
            "\"phase_totals\":{\"fetch\":11",
            "\"doc_id\":\"alpha\"",
            "\"open_events\":3",
            "\"doc_id\":\"beta \\\"quoted\\\"\"",
            "\"p99\":",
        ] {
            assert!(json.contains(needle), "missing {needle:?} in:\n{json}");
        }
        assert_eq!(json.matches("\"doc_id\"").count(), 2);
    }
}
