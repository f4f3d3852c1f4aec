//! Exposition: Prometheus text format and JSON, over one snapshot or the
//! process-global roll-up of every registry created so far. One writer
//! ([`render_prometheus_by_tenant`]) emits each family once, with the
//! OpenMetrics exemplars of the [`ExemplarStore`] and the server's
//! per-tenant samples inside it.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, Weak};

/// Every registry created and not yet dropped.
static LIVE: Mutex<Vec<Weak<Registry>>> = Mutex::new(Vec::new());

/// Final counts of dropped registries, merged. Without this, a CLI
/// `--metrics` dump taken after the knowledge bases it measured were
/// dropped would read all zeros.
static GRAVEYARD: Mutex<MetricsSnapshot> = Mutex::new(MetricsSnapshot {
    counters: BTreeMap::new(),
    gauges: BTreeMap::new(),
    histograms: BTreeMap::new(),
});

/// Enroll a registry in the process-global roll-up (called by
/// [`Registry::new`]). Holds only a `Weak`, so dropped registries fall
/// out of the live list (their final state moves to the graveyard).
pub(crate) fn enroll(r: &Arc<Registry>) {
    let mut g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
    g.retain(|w| w.strong_count() > 0);
    g.push(Arc::downgrade(r));
}

/// Fold a dropped registry's final counts into the roll-up (called by
/// `Registry`'s `Drop`). Its gauges are not folded: a gauge is a level
/// of the thing that held it, and that thing is gone.
pub(crate) fn bury(mut final_state: MetricsSnapshot) {
    final_state.gauges.clear();
    GRAVEYARD
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .merge(&final_state);
}

/// A merged snapshot of every registry the process has created — the
/// live ones plus the final state of every dropped one — with
/// same-named counters and histograms summed and a gauge at the largest
/// live level (a dropped registry's gauges are not kept). This is what `--metrics <path>` dumps: an
/// experiment or CLI run may create (and drop) many knowledge bases,
/// and the operator wants the totals.
pub fn snapshot_all() -> MetricsSnapshot {
    let regs: Vec<Arc<Registry>> = {
        let g = LIVE.lock().unwrap_or_else(|e| e.into_inner());
        g.iter().filter_map(|w| w.upgrade()).collect()
    };
    let mut merged = GRAVEYARD.lock().unwrap_or_else(|e| e.into_inner()).clone();
    for r in regs {
        merged.merge(&r.snapshot());
    }
    merged
}

/// Render the process-global roll-up in Prometheus text format.
pub fn render_all_prometheus() -> String {
    render_prometheus(&snapshot_all())
}

/// Render the process-global roll-up as JSON.
pub fn render_all_json() -> String {
    render_json(&snapshot_all())
}

/// The upper bound (inclusive) of log2 bucket `b` as a Prometheus `le`
/// label value.
fn le_of(bucket: usize) -> String {
    if bucket >= 64 {
        "+Inf".to_owned()
    } else {
        // Bucket b holds values of bit length b: upper bound 2^b - 1.
        ((1u64 << bucket) - 1).to_string()
    }
}

/// Render a snapshot in the Prometheus text exposition format
/// (`# HELP` / `# TYPE` comments, one sample per line; histograms emit
/// cumulative `_bucket{le=...}` samples plus `_sum` and `_count`).
pub fn render_prometheus(s: &MetricsSnapshot) -> String {
    render_prometheus_by_tenant(s, &[], &[])
}

/// One OpenMetrics exemplar: the trace id of a recent observation that
/// landed in a histogram bucket, with the observed value and a unix
/// timestamp (milliseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Exemplar {
    /// Trace id label value (hex, as rendered by [`crate::TraceId`]).
    pub trace_id: String,
    /// The observed value (same unit as the histogram).
    pub value: u64,
    /// Observation wall time, unix milliseconds.
    pub ts_ms: u64,
}

impl Exemplar {
    /// Render per the OpenMetrics exemplar grammar:
    /// `# {trace_id="…"} <value> <unix-seconds>`.
    pub fn render(&self) -> String {
        format!(
            "# {{trace_id=\"{}\"}} {} {}.{:03}",
            self.trace_id,
            self.value,
            self.ts_ms / 1_000,
            self.ts_ms % 1_000
        )
    }
}

/// Per-bucket exemplar slots for one histogram: each observation
/// overwrites its bucket's slot, so scrapes always see a *recent*
/// representative trace id per latency band. One short mutex hold per
/// observe; the server only feeds this at the request front, not on hot
/// kernel paths.
pub struct ExemplarStore {
    slots: Mutex<Vec<Option<Exemplar>>>,
}

impl ExemplarStore {
    /// An empty store with one slot per histogram bucket.
    pub fn new() -> ExemplarStore {
        ExemplarStore {
            slots: Mutex::new(vec![None; HISTOGRAM_BUCKETS]),
        }
    }

    /// Record `value` (observed under `trace_id`) into its bucket slot.
    pub fn observe(&self, value: u64, trace_id: &str) {
        let ts_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        let b = crate::metrics::bucket_of(value).min(HISTOGRAM_BUCKETS - 1);
        let mut slots = self.slots.lock().unwrap_or_else(|e| e.into_inner());
        slots[b] = Some(Exemplar {
            trace_id: trace_id.to_string(),
            value,
            ts_ms,
        });
    }

    /// Current per-bucket exemplars (index = bucket).
    pub fn snapshot(&self) -> Vec<Option<Exemplar>> {
        self.slots.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

impl Default for ExemplarStore {
    fn default() -> Self {
        ExemplarStore::new()
    }
}

/// Append one sample line: `name{labels} value`, or `name value` when
/// `labels` is empty.
fn sample(out: &mut String, name: &str, labels: &str, value: u64) {
    if labels.is_empty() {
        out.push_str(&format!("{name} {value}\n"));
    } else {
        out.push_str(&format!("{name}{{{labels}}} {value}\n"));
    }
}

/// Append a histogram's samples under `labels` (a label-set body, or
/// empty): cumulative `_bucket` lines, each with its exemplar if
/// `exemplars` holds one, then `_sum` and `_count`.
fn histogram_samples(
    out: &mut String,
    name: &str,
    labels: &str,
    h: &HistogramSnapshot,
    exemplars: &[Option<Exemplar>],
) {
    let le_prefix = if labels.is_empty() {
        String::new()
    } else {
        format!("{labels},")
    };
    let mut bucket = |le: &str, cum: u64, ex: Option<&Exemplar>| {
        out.push_str(&format!("{name}_bucket{{{le_prefix}le=\"{le}\"}} {cum}"));
        if let Some(ex) = ex {
            out.push(' ');
            out.push_str(&ex.render());
        }
        out.push('\n');
    };
    // Emit buckets up to the highest nonempty one, then +Inf; cumulative
    // counts stay exact and the output stays short.
    let top = h
        .buckets
        .iter()
        .rposition(|&c| c > 0)
        .map(|p| p.min(63))
        .unwrap_or(0);
    let mut cum = 0u64;
    for b in 0..=top {
        cum += h.buckets[b];
        bucket(&le_of(b), cum, exemplars.get(b).and_then(Option::as_ref));
    }
    // An exemplar above the last rendered bucket attaches to +Inf.
    let above = exemplars.iter().skip(top + 1).flatten().next();
    bucket("+Inf", h.count, above);
    sample(out, &format!("{name}_sum"), labels, h.sum);
    sample(out, &format!("{name}_count"), labels, h.count);
}

/// Escape a label value per the Prometheus text format.
fn escape_label(v: &str) -> String {
    v.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Render `roll_up` in the Prometheus text exposition format, each
/// family once and whole: its `# HELP` (when the help is not empty) and
/// `# TYPE` lines, the roll-up's sample (a histogram's bucket lines
/// carrying the exemplars `exemplars` names for it), then one
/// `tenant="…"`-labeled sample per entry of `tenants`, in their order.
/// A family only a tenant holds is typed too, and has no unlabeled
/// sample. Histograms emit cumulative `_bucket{le=...}` samples plus
/// `_sum` and `_count`.
pub fn render_prometheus_by_tenant(
    roll_up: &MetricsSnapshot,
    exemplars: &[(&str, Vec<Option<Exemplar>>)],
    tenants: &[(String, MetricsSnapshot)],
) -> String {
    let sections: Vec<(String, &MetricsSnapshot)> = std::iter::once((String::new(), roll_up))
        .chain(
            tenants
                .iter()
                .map(|(t, s)| (format!("tenant=\"{}\"", escape_label(t)), s)),
        )
        .collect();
    // Every family any section holds, counters then gauges then
    // histograms, each in name order: (kind, name) → help.
    let mut families: BTreeMap<(u8, &str), &str> = BTreeMap::new();
    for (_, s) in &sections {
        for (name, (help, _)) in &s.counters {
            families.entry((0, name)).or_insert(help);
        }
        for (name, (help, _)) in &s.gauges {
            families.entry((1, name)).or_insert(help);
        }
        for (name, (help, _)) in &s.histograms {
            families.entry((2, name)).or_insert(help);
        }
    }
    let mut out = String::new();
    for ((kind, name), help) in families {
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        let type_name = ["counter", "gauge", "histogram"][usize::from(kind)];
        out.push_str(&format!("# TYPE {name} {type_name}\n"));
        for (labels, s) in &sections {
            match kind {
                0 => {
                    if let Some((_, v)) = s.counters.get(name) {
                        sample(&mut out, name, labels, *v);
                    }
                }
                1 => {
                    if let Some((_, v)) = s.gauges.get(name) {
                        sample(&mut out, name, labels, *v);
                    }
                }
                _ => {
                    if let Some((_, h)) = s.histograms.get(name) {
                        // Exemplars ride on the roll-up's buckets only.
                        let ex = exemplars
                            .iter()
                            .find(|(n, _)| labels.is_empty() && *n == name)
                            .map_or(&[][..], |(_, e)| e.as_slice());
                        histogram_samples(&mut out, name, labels, h, ex);
                    }
                }
            }
        }
    }
    out
}

/// Render `s` as a JSON string literal (quoted, escaped). Public so the
/// other hand-rolled JSON emitters in the workspace (`Outcome::render_json`,
/// the server's `/stats` endpoint) share one escaper.
pub fn json_string(s: &str) -> String {
    let mut out = String::new();
    write_json_string(&mut out, s);
    out
}

/// Append `s` to `out` as a JSON string literal (quoted, escaped) — the
/// escaper behind [`json_string`], for renderers that build a whole reply
/// in one buffer. Each run of bytes that needs no escape is copied whole;
/// only `"`, `\` and the control characters U+0000–U+001F are escaped
/// (`\n`, `\t`, `\r` by name, the rest as `\u00xx`). Everything else,
/// U+007F and U+2028 included, is copied as it is.
pub fn write_json_string(out: &mut String, s: &str) {
    const HEX: &[u8; 16] = b"0123456789abcdef";
    out.reserve(s.len() + 2);
    out.push('"');
    let mut run = 0;
    for (ix, &b) in s.as_bytes().iter().enumerate() {
        if b >= 0x20 && b != b'"' && b != b'\\' {
            continue;
        }
        // Every byte escaped is ASCII, so `ix` is a char boundary.
        out.push_str(&s[run..ix]);
        match b {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\t' => out.push_str("\\t"),
            b'\r' => out.push_str("\\r"),
            _ => {
                out.push_str("\\u00");
                out.push(char::from(HEX[usize::from(b >> 4)]));
                out.push(char::from(HEX[usize::from(b & 0xf)]));
            }
        }
        run = ix + 1;
    }
    out.push_str(&s[run..]);
    out.push('"');
}

fn json_histogram(h: &HistogramSnapshot) -> String {
    let mut buckets = String::from("[");
    let mut first = true;
    for (b, &c) in h.buckets.iter().enumerate() {
        if c == 0 {
            continue;
        }
        if !first {
            buckets.push(',');
        }
        first = false;
        let le = if b >= 64 {
            json_string("+Inf")
        } else {
            ((1u64 << b) - 1).to_string()
        };
        buckets.push_str(&format!("{{\"le\":{le},\"count\":{c}}}"));
    }
    buckets.push(']');
    format!(
        "{{\"count\":{},\"sum\":{},\"buckets\":{buckets}}}",
        h.count, h.sum
    )
}

/// Render a snapshot as a single JSON object:
/// `{"counters":{...},"gauges":{...},"histograms":{...}}`.
pub fn render_json(s: &MetricsSnapshot) -> String {
    let mut out = String::from("{\"counters\":{");
    let mut first = true;
    for (name, (_, v)) in &s.counters {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{v}", json_string(name)));
    }
    out.push_str("},\"gauges\":{");
    first = true;
    for (name, (_, v)) in &s.gauges {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{v}", json_string(name)));
    }
    out.push_str("},\"histograms\":{");
    first = true;
    for (name, (_, h)) in &s.histograms {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!("{}:{}", json_string(name), json_histogram(h)));
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The escaper `json_string` was before it wrote into a caller's
    /// buffer, one `char` at a time: the oracle for the run-copying one.
    fn chars_escaper(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Strings thick with what the escaper tells apart: quotes,
    /// backslashes, every control character, DEL, U+2028, and multi-byte
    /// characters of every width.
    fn nasty_strings() -> impl Strategy<Value = String> {
        let c = prop_oneof![
            3 => '\0'..'\u{20}',
            2 => Just('"'),
            2 => Just('\\'),
            1 => Just('\u{7f}'),
            1 => Just('\u{2028}'),
            3 => ' '..'\u{7f}',
            1 => '\u{80}'..'\u{800}',
            1 => '\u{800}'..'\u{10000}',
            1 => '\u{10000}'..char::MAX,
        ];
        proptest::collection::vec(c, 0..24).prop_map(|cs| cs.into_iter().collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(2048))]

        /// The appending escaper writes what the `char` escaper wrote,
        /// after whatever the buffer already held, and the result parses
        /// back to the input under the strict grammar.
        #[test]
        fn the_appending_escaper_matches_the_chars_escaper(s in nasty_strings()) {
            let mut out = String::from("[");
            write_json_string(&mut out, &s);
            prop_assert_eq!(&out[1..], chars_escaper(&s));
            prop_assert_eq!(json_string(&s), chars_escaper(&s));
            let parsed = crate::Json::parse(&out[1..]).expect("the escaper writes valid JSON");
            prop_assert_eq!(parsed.as_str(), Some(s.as_str()));
        }
    }

    #[test]
    fn prometheus_text_has_type_lines_and_samples() {
        let r = Registry::new();
        let c = r.counter("demo_total", "a demo counter").unwrap();
        c.add(7);
        let h = r.histogram("demo_vals", "a demo histogram").unwrap();
        h.record(3);
        h.record(300);
        let text = render_prometheus(&r.snapshot());
        assert!(text.contains("# TYPE demo_total counter"));
        assert!(text.contains("demo_total 7"));
        assert!(text.contains("# TYPE demo_vals histogram"));
        assert!(text.contains("demo_vals_count 2"));
        assert!(text.contains("demo_vals_sum 303"));
        assert!(text.contains("demo_vals_bucket{le=\"+Inf\"} 2"));
    }

    #[test]
    fn json_is_structurally_sound() {
        let r = Registry::new();
        r.counter("j_total", "").unwrap().add(1);
        r.gauge("j_gauge", "").unwrap().set(9);
        let json = render_json(&r.snapshot());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"j_total\":1"));
        assert!(json.contains("\"j_gauge\":9"));
    }

    #[test]
    fn roll_up_sums_same_named_series() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("rollup_demo_total", "").unwrap().add(2);
        b.counter("rollup_demo_total", "").unwrap().add(3);
        let merged = snapshot_all();
        assert!(merged.counters["rollup_demo_total"].1 >= 5);
    }
}
