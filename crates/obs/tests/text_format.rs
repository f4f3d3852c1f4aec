//! The Prometheus text grammar the exposition writes, pinned by a tiny
//! checker (`support/prometheus.rs`) that is mirrored by the CI
//! `--metrics` job (which fails the build when an experiment's
//! exposition output is empty or unparseable).

#[path = "support/prometheus.rs"]
mod prometheus;

use classic_obs::{render_prometheus, render_prometheus_by_tenant, ExemplarStore, Registry};
use prometheus::check_prometheus_text;

#[test]
fn rendered_registry_passes_the_checker() {
    let r = Registry::new();
    r.counter("fmt_ops_total", "operations").unwrap().add(41);
    r.gauge("fmt_generation", "store generation")
        .unwrap()
        .set(3);
    let h = r
        .histogram("fmt_candidates", "candidates per retrieve")
        .unwrap();
    h.record(0);
    h.record(7);
    h.record(4096);
    let text = render_prometheus(&r.snapshot());
    let n = check_prometheus_text(&text).expect("valid exposition");
    assert!(n >= 3, "counter + gauge + histogram samples, got {n}");
}

#[test]
fn histogram_buckets_are_cumulative_and_end_at_inf() {
    let r = Registry::new();
    let h = r.histogram("fmt_cumulative", "").unwrap();
    for v in [1u64, 1, 2, 900, 3] {
        h.record(v);
    }
    let text = render_prometheus(&r.snapshot());
    let mut last = 0u64;
    let mut saw_inf = false;
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("fmt_cumulative_bucket{le=\"") {
            let (le, count) = rest.split_once("\"} ").expect("bucket sample");
            let count: u64 = count.parse().expect("bucket count");
            assert!(count >= last, "cumulative counts must not decrease");
            last = count;
            if le == "+Inf" {
                saw_inf = true;
                assert_eq!(count, 5, "+Inf bucket holds every observation");
            }
        }
    }
    assert!(saw_inf, "histogram must end with a +Inf bucket");
    assert!(text.contains("fmt_cumulative_count 5"));
    assert!(text.contains("fmt_cumulative_sum 907"));
}

#[test]
fn empty_or_garbage_documents_are_rejected() {
    assert!(check_prometheus_text("").is_err());
    assert!(check_prometheus_text("\n\n").is_err());
    assert!(check_prometheus_text("not a metric line at all, no value").is_err());
    assert!(check_prometheus_text("name notanumber").is_err());
    assert!(check_prometheus_text("# TYPE x summary\nx 1").is_err());
    assert!(check_prometheus_text("Bad-Name 3").is_err());
}

#[test]
fn exemplar_grammar_is_pinned() {
    // The exact OpenMetrics exemplar shape the server emits on
    // /metrics: `bucket_sample # {trace_id="…"} value unix_seconds`.
    let ex = classic_obs::Exemplar {
        trace_id: "000000000000000000000000deadbeef".to_string(),
        value: 212,
        ts_ms: 1_690_000_000_123,
    };
    assert_eq!(
        ex.render(),
        "# {trace_id=\"000000000000000000000000deadbeef\"} 212 1690000000.123"
    );

    let r = Registry::new();
    let h = r.histogram("fmt_exemplar_ns", "request latency").unwrap();
    h.record(212);
    h.record(90_000);
    let store = ExemplarStore::new();
    store.observe(212, "000000000000000000000000deadbeef");
    store.observe(90_000, "00000000000000000000000000000abc");
    let text =
        render_prometheus_by_tenant(&r.snapshot(), &[("fmt_exemplar_ns", store.snapshot())], &[]);
    let n = check_prometheus_text(&text).expect("exemplar exposition is valid");
    assert!(n >= 3);
    // Each observed bucket line carries its exemplar.
    let with_ex: Vec<&str> = text
        .lines()
        .filter(|l| l.contains(" # {trace_id="))
        .collect();
    assert_eq!(with_ex.len(), 2, "one exemplar per observed bucket: {text}");
    assert!(with_ex
        .iter()
        .any(|l| l.contains("trace_id=\"000000000000000000000000deadbeef\"} 212 ")));

    // Malformed exemplars are rejected by the checker.
    assert!(check_prometheus_text("x_bucket{le=\"+Inf\"} 1 # trace 1").is_err());
    assert!(check_prometheus_text("x_bucket{le=\"+Inf\"} 1 # {le=\"3\"} 1").is_err());
    assert!(check_prometheus_text("x_total 1 # {trace_id=\"a\"} 1").is_err());
}

#[test]
fn tenant_labeled_rendering_passes_the_checker() {
    let r = Registry::new();
    r.counter("fmt_tenant_requests_total", "").unwrap().add(9);
    let h = r.histogram("fmt_tenant_vals", "").unwrap();
    h.record(5);
    let other = Registry::new();
    other
        .counter("fmt_tenant_requests_total", "")
        .unwrap()
        .add(2);
    other.gauge("fmt_tenant_level", "").unwrap().set(1);
    let text = render_prometheus_by_tenant(
        &r.snapshot(),
        &[],
        &[
            ("acme-1".to_owned(), r.snapshot()),
            ("a\"b\\c\nd".to_owned(), other.snapshot()),
        ],
    );
    check_prometheus_text(&text).expect("labeled exposition is valid");
    // Each family's lines are one group: the roll-up's sample, then each
    // tenant's, in the order given.
    let counter: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("fmt_tenant_requests_total"))
        .collect();
    assert_eq!(
        counter,
        [
            "# TYPE fmt_tenant_requests_total counter",
            "fmt_tenant_requests_total 9",
            "fmt_tenant_requests_total{tenant=\"acme-1\"} 9",
            "fmt_tenant_requests_total{tenant=\"a\\\"b\\\\c\\nd\"} 2",
        ]
    );
    assert!(text.contains("fmt_tenant_vals_bucket{tenant=\"acme-1\",le=\"7\"} 1"));
    assert!(text.contains("fmt_tenant_vals_count{tenant=\"acme-1\"} 1"));
    // A family only a tenant holds is typed, with no unlabeled sample.
    assert!(text.contains("# TYPE fmt_tenant_level gauge\nfmt_tenant_level{tenant=\"a"));
}

#[test]
fn split_or_repeated_families_are_rejected() {
    let ok = "# HELP a_total x\n# TYPE a_total counter\na_total 1\na_total{tenant=\"t\"} 1\n\
              # TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nh_sum 0\nh_count 0\n";
    assert_eq!(check_prometheus_text(ok), Ok(5));
    let split = "# TYPE a_total counter\na_total 1\n# TYPE b_total counter\nb_total 1\n\
                 a_total{tenant=\"t\"} 1\n";
    assert!(check_prometheus_text(split).is_err());
    let late = "# TYPE a_total counter\na_total 1\n# HELP a_total x\n";
    assert!(check_prometheus_text(late).is_err());
    let twice = "# HELP a_total x\n# HELP a_total y\n# TYPE a_total counter\na_total 1\n";
    assert!(check_prometheus_text(twice).is_err());
    let split_histogram = "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 0\nx 1\nh_sum 0\n";
    assert!(check_prometheus_text(split_histogram).is_err());
}

#[test]
fn json_exposition_of_same_registry_matches_counts() {
    let r = Registry::new();
    r.counter("fmt_json_total", "").unwrap().add(5);
    let json = classic_obs::render_json(&r.snapshot());
    assert!(json.contains("\"fmt_json_total\":5"));
    // Structural sanity: braces balance.
    let depth = json.chars().fold(0i32, |d, c| match c {
        '{' => d + 1,
        '}' => d - 1,
        _ => d,
    });
    assert_eq!(depth, 0);
}
