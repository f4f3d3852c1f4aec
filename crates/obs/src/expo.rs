//! Exposition: Prometheus text format and JSON, over one registry or the
//! process-global roll-up of every registry created so far. Also the
//! OpenMetrics exemplar store ([`ExemplarStore`]) that attaches recent
//! trace ids to histogram buckets, and the labeled renderer the server
//! uses for per-tenant sections of `/metrics`.

use crate::metrics::{HistogramSnapshot, MetricsSnapshot, Registry, HISTOGRAM_BUCKETS};
use std::sync::{Arc, Mutex, OnceLock, Weak};

fn global() -> &'static Mutex<Vec<Weak<Registry>>> {
    static G: OnceLock<Mutex<Vec<Weak<Registry>>>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(Vec::new()))
}

/// Enroll a registry in the process-global roll-up (called by
/// [`Registry::new`]). Holds only a `Weak`, so dropped registries fall
/// out of the live list (their final state moves to the graveyard).
pub(crate) fn enroll(r: &Arc<Registry>) {
    let mut g = global().lock().unwrap_or_else(|e| e.into_inner());
    g.retain(|w| w.strong_count() > 0);
    g.push(Arc::downgrade(r));
}

/// Final snapshots of dropped registries, merged. Without this, a CLI
/// `--metrics` dump taken after the knowledge bases it measured were
/// dropped would read all zeros.
fn graveyard() -> &'static Mutex<MetricsSnapshot> {
    static G: OnceLock<Mutex<MetricsSnapshot>> = OnceLock::new();
    G.get_or_init(|| Mutex::new(MetricsSnapshot::default()))
}

/// Fold a dropped registry's final state into the roll-up (called by
/// `Registry`'s `Drop`).
pub(crate) fn bury(final_state: &MetricsSnapshot) {
    graveyard()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .merge(final_state);
}

/// A merged snapshot of every registry the process has created — the
/// live ones plus the final state of every dropped one — with
/// same-named series summed. This is what `--metrics <path>` dumps: an
/// experiment or CLI run may create (and drop) many knowledge bases,
/// and the operator wants the totals.
pub fn snapshot_all() -> MetricsSnapshot {
    let regs: Vec<Arc<Registry>> = {
        let g = global().lock().unwrap_or_else(|e| e.into_inner());
        g.iter().filter_map(|w| w.upgrade()).collect()
    };
    let mut merged = graveyard()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    for r in regs {
        merged.merge(&r.snapshot());
    }
    merged
}

/// Render the process-global roll-up in Prometheus text format.
pub fn render_all_prometheus() -> String {
    render_prometheus(&snapshot_all())
}

/// Render the process-global roll-up with OpenMetrics exemplars attached
/// to the named histograms' bucket lines (the server uses this to tag
/// `classic_server_request_ns` with recent trace ids).
pub fn render_all_prometheus_exemplars(exemplars: &[(&str, Vec<Option<Exemplar>>)]) -> String {
    render_prometheus_exemplars(&snapshot_all(), exemplars)
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
    render_prometheus_exemplars(s, &[])
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

fn render_histogram_lines(
    out: &mut String,
    name: &str,
    label_prefix: &str,
    h: &HistogramSnapshot,
    exemplars: Option<&[Option<Exemplar>]>,
) {
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
        out.push_str(&format!(
            "{name}_bucket{{{label_prefix}le=\"{}\"}} {cum}",
            le_of(b)
        ));
        if let Some(ex) = exemplars.and_then(|e| e.get(b)).and_then(|e| e.as_ref()) {
            out.push(' ');
            out.push_str(&ex.render());
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{name}_bucket{{{label_prefix}le=\"+Inf\"}} {}",
        h.count
    ));
    // An exemplar above the last rendered bucket attaches to +Inf.
    if let Some(ex) = exemplars
        .into_iter()
        .flatten()
        .skip(top + 1)
        .flatten()
        .next()
    {
        out.push(' ');
        out.push_str(&ex.render());
    }
    out.push('\n');
    if label_prefix.is_empty() {
        out.push_str(&format!("{name}_sum {}\n", h.sum));
        out.push_str(&format!("{name}_count {}\n", h.count));
    } else {
        let labels = label_prefix.trim_end_matches(',');
        out.push_str(&format!("{name}_sum{{{labels}}} {}\n", h.sum));
        out.push_str(&format!("{name}_count{{{labels}}} {}\n", h.count));
    }
}

/// Render a snapshot like [`render_prometheus`], attaching OpenMetrics
/// exemplars to the bucket lines of the named histograms. `exemplars`
/// maps a histogram name to its per-bucket exemplar snapshot.
pub fn render_prometheus_exemplars(
    s: &MetricsSnapshot,
    exemplars: &[(&str, Vec<Option<Exemplar>>)],
) -> String {
    let mut out = String::new();
    for (name, (help, v)) in &s.counters {
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n"));
    }
    for (name, (help, v)) in &s.gauges {
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n"));
    }
    for (name, (help, h)) in &s.histograms {
        if !help.is_empty() {
            out.push_str(&format!("# HELP {name} {help}\n"));
        }
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let ex = exemplars
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e.as_slice());
        render_histogram_lines(&mut out, name, "", h, ex);
    }
    out
}

/// Render a snapshot with an extra label set on every series, e.g.
/// `[("tenant", "acme")]` → `name{tenant="acme"} v`. Emits *no*
/// `# HELP`/`# TYPE` lines: callers append these sections after an
/// unlabeled roll-up render that already carries the metadata for the
/// same series names (repeating `# TYPE` would be invalid exposition).
/// Label values are escaped per the Prometheus text format.
pub fn render_prometheus_labeled(s: &MetricsSnapshot, labels: &[(&str, &str)]) -> String {
    let escape = |v: &str| {
        v.replace('\\', "\\\\")
            .replace('"', "\\\"")
            .replace('\n', "\\n")
    };
    let mut prefix = String::new();
    for (k, v) in labels {
        prefix.push_str(&format!("{k}=\"{}\",", escape(v)));
    }
    let bare = prefix.trim_end_matches(',').to_string();
    let mut out = String::new();
    for (name, (_, v)) in &s.counters {
        out.push_str(&format!("{name}{{{bare}}} {v}\n"));
    }
    for (name, (_, v)) in &s.gauges {
        out.push_str(&format!("{name}{{{bare}}} {v}\n"));
    }
    for (name, (_, h)) in &s.histograms {
        render_histogram_lines(&mut out, name, &prefix, h, None);
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
        let text = r.render_prometheus();
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
        let json = r.render_json();
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
