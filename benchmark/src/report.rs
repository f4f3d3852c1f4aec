//! What the benchmark reports: the metric names and units of
//! `BENCHMARK.json`, the result line the driver reads, and the tables and
//! run stamp a person reads.

use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// Relative worsening of the median that counts as a regression; the
    /// same number `BENCHMARK.json` carries. Layer metrics have none.
    pub bound: f64,
    pub higher_is_better: bool,
    /// What a run reports of its repetitions' values.
    pub over: Over,
}

/// How a run's repetitions become one value.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Over {
    /// The best repetition. Times: the host only ever adds to them, for
    /// minutes on end, so the best is what the program took and the
    /// median what the neighbours left.
    Best,
    /// The median. Sizes and counts, which the host does not move.
    Median,
}

const fn time(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    higher_is_better: bool,
) -> Metric {
    Metric {
        name,
        unit,
        bound,
        higher_is_better,
        over: Over::Best,
    }
}

const fn size(name: &'static str, unit: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        bound,
        higher_is_better: false,
        over: Over::Median,
    }
}

const fn layer(name: &'static str, unit: &'static str) -> Metric {
    size(name, unit, 0.0)
}

/// What a user of the server sees. Every workload reports every one.
pub const END_TO_END: [Metric; 5] = [
    time("setup_s", "s", 0.25, false),
    time("ops_per_s", "1/s", 0.25, true),
    time("p50_us", "us", 0.25, false),
    size("rss_peak_mib", "MiB", 0.1),
    size("disk_bytes_per_user_byte", "ratio", 0.02),
];

/// Single layers, from the traced pass. No bounds: they explain an
/// end-to-end number, they do not gate.
pub const PER_LAYER: [Metric; 52] = [
    layer("core.normalize_us", "us"),
    layer("core.classify_us", "us"),
    layer("core.subsume_tests_per_read", "count"),
    layer("core.memo_hit_ratio", "ratio"),
    layer("core.nf_interned", "count"),
    layer("kb.assert_us", "us"),
    layer("kb.retract_us", "us"),
    layer("kb.propagation_steps_per_write", "count"),
    layer("kb.rules_fired_per_write", "count"),
    layer("kb.clone_us", "us"),
    layer("kb.drop_us", "us"),
    layer("kb.bulk_rows_per_s", "1/s"),
    layer("kb.bulk_chunks", "count"),
    layer("kb.bulk_fallbacks", "count"),
    layer("kb.bytes_per_individual", "B"),
    layer("query.retrieve_us", "us"),
    layer("query.tested_per_answer", "ratio"),
    layer("query.free_share", "ratio"),
    layer("lang.parse_us", "us"),
    layer("lang.render_us", "us"),
    layer("lang.reply_bytes_per_read", "B"),
    layer("store.append_us", "us"),
    layer("store.append_disk_us", "us"),
    layer("store.appends_per_write", "ratio"),
    layer("store.log_bytes_per_user_byte", "ratio"),
    layer("store.compact_render_us", "us"),
    layer("store.compact_publish_us", "us"),
    layer("store.segments_written", "count"),
    layer("store.segments_reused", "count"),
    layer("store.open_us", "us"),
    layer("store.replay_ops_per_s", "1/s"),
    layer("store.open_paged_us", "us"),
    layer("store.hydrate_for_us", "us"),
    layer("server.handle_form_create_us", "us"),
    layer("server.handle_form_write_us", "us"),
    layer("server.handle_form_read_us", "us"),
    layer("server.handle_form_retract_us", "us"),
    layer("server.create_p50_us", "us"),
    layer("server.write_p50_us", "us"),
    layer("server.read_p50_us", "us"),
    layer("server.retract_p50_us", "us"),
    layer("server.front_us", "us"),
    layer("server.snapshot_cut_us", "us"),
    layer("server.snapshot_cuts_per_read", "ratio"),
    layer("server.two_client_scaling", "ratio"),
    layer("server.p99_us", "us"),
    layer("server.reopen_s", "s"),
    layer("server.unattributed_share", "ratio"),
    layer("ingest.plan_us_per_row", "us"),
    layer("ingest.run_us_per_row", "us"),
    layer("analyze.mark_dirty_us", "us"),
    layer("obs.trace_overhead", "ratio"),
];

/// One workload's result over its repetitions.
#[derive(Debug, Default, Clone)]
pub struct Result {
    /// Every repetition's raw value, by metric name.
    pub raw: BTreeMap<String, Vec<f64>>,
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
    /// File system the tenants lived on.
    pub data_dir_fs: String,
}

impl Result {
    /// What the run reports for `m`: its best repetition or the median.
    pub fn value(&self, m: &Metric) -> Option<f64> {
        let values = self.raw.get(m.name)?;
        Some(match m.over {
            Over::Median => stats::median(values),
            Over::Best if m.higher_is_better => values.iter().copied().fold(f64::MIN, f64::max),
            Over::Best => values.iter().copied().fold(f64::MAX, f64::min),
        })
    }

    /// The line the driver reads: exactly `metrics`, each with its unit.
    pub fn driver_line(&self, metrics: &[Metric]) -> String {
        let mut line = format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed
        );
        for (ix, m) in metrics.iter().enumerate() {
            if ix > 0 {
                line.push(',');
            }
            let value = self.value(m).unwrap_or(0.0);
            let _ = write!(
                line,
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_number(value),
                m.unit
            );
        }
        line.push_str("}}");
        line
    }

    /// Every metric measured: the value reported (the best repetition for
    /// an end-to-end time, else the median), then median and quartiles
    /// over the repetitions, their distance as a share of the median, and
    /// the sample count.
    pub fn table(&self, title: &str) -> String {
        let mut out = format!(
            "== {title}: {} checks, {} failed, data_dir_fs={}\n{:<34} {:>6} {:>14} {:>14} {:>14} {:>14} {:>7} {:>3}\n",
            self.attempted,
            self.failed,
            self.data_dir_fs,
            "metric",
            "unit",
            "reported",
            "median",
            "q1",
            "q3",
            "spread",
            "n"
        );
        let declared = |name: &str| END_TO_END.iter().chain(&PER_LAYER).find(|m| m.name == name);
        for (name, values) in &self.raw {
            let [q1, q2, q3] = stats::quartiles(values);
            let _ = writeln!(
                out,
                "{name:<34} {:>6} {:>14.4} {q2:>14.4} {q1:>14.4} {q3:>14.4} {:>6.1}% {:>3}",
                declared(name).map_or_else(|| unit_from_name(name), |m| m.unit),
                declared(name).and_then(|m| self.value(m)).unwrap_or(q2),
                100.0 * stats::spread(values),
                values.len()
            );
        }
        for note in &self.notes {
            let _ = writeln!(out, "!! {note}");
        }
        out
    }

    /// The result as a JSON object with every repetition's raw value;
    /// `reported` is what the driver's line carries for the metric.
    pub fn json(&self) -> String {
        let mut out = format!(
            "{{\"attempted\":{},\"failed\":{},\"data_dir_fs\":\"{}\",\"metrics\":{{",
            self.attempted, self.failed, self.data_dir_fs
        );
        for (ix, (name, values)) in self.raw.iter().enumerate() {
            if ix > 0 {
                out.push(',');
            }
            let [q1, q2, q3] = stats::quartiles(values);
            let raw: Vec<String> = values.iter().map(|v| json_number(*v)).collect();
            let reported = END_TO_END
                .iter()
                .chain(&PER_LAYER)
                .find(|m| m.name == name)
                .and_then(|m| self.value(m))
                .unwrap_or(q2);
            let _ = write!(
                out,
                "\"{name}\":{{\"reported\":{},\"median\":{},\"q1\":{},\"q3\":{},\"n\":{},\"raw\":[{}]}}",
                json_number(reported),
                json_number(q2),
                json_number(q1),
                json_number(q3),
                values.len(),
                raw.join(",")
            );
        }
        out.push_str("}}");
        out
    }
}

/// Units of the per-class figures of the untraced table, which are not
/// in `BENCHMARK.json`.
fn unit_from_name(name: &str) -> &'static str {
    if name.ends_with("_us") {
        "us"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_s") {
        "s"
    } else {
        ""
    }
}

/// A finite number as JSON writes it, with every digit measured.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Where and how the numbers were taken.
pub struct Stamp {
    pub git_rev: String,
    pub rustc: String,
    pub parallelism: usize,
}

fn first_line_of(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

/// File system type of the mount `dir` lives on, from `/proc/mounts`.
pub fn fs_of(dir: &std::path::Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_owned();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, at, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(at).then(|| (at.len(), fs.to_owned()))
        })
        .max()
        .map_or_else(|| "unknown".to_owned(), |(_, fs)| fs)
}

impl Stamp {
    pub fn take() -> Stamp {
        Stamp {
            git_rev: first_line_of("git", &["rev-parse", "HEAD"]),
            rustc: first_line_of("rustc", &["--version"]),
            parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"git_rev\":\"{}\",\"rustc\":\"{}\",\"available_parallelism\":{}}}",
            self.git_rev, self.rustc, self.parallelism
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use classic_server::Json;

    fn declared(json: &Json, list: &str) -> Vec<(String, String, Option<f64>, String)> {
        json.get(list)
            .and_then(Json::as_arr)
            .expect("a metric list")
            .iter()
            .map(|m| {
                let text = |key: &str| m.get(key).and_then(Json::as_str).expect(key).to_owned();
                (
                    text("name"),
                    text("unit"),
                    m.get("bound").and_then(Json::as_num),
                    text("better"),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_is_reported() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let want = |metrics: &[Metric], bounded: bool| -> Vec<_> {
            metrics
                .iter()
                .map(|m| {
                    let better = if m.higher_is_better {
                        "higher"
                    } else {
                        "lower"
                    };
                    (
                        m.name.to_owned(),
                        m.unit.to_owned(),
                        bounded.then_some(m.bound),
                        better.to_owned(),
                    )
                })
                .collect()
        };
        assert_eq!(declared(&json, "end_to_end"), want(&END_TO_END, true));
        // Which way a layer metric is better is said in BENCHMARK.json only.
        let layers: Vec<_> = declared(&json, "per_layer")
            .into_iter()
            .map(|(name, unit, bound, _)| (name, unit, bound))
            .collect();
        let reported: Vec<_> = want(&PER_LAYER, false)
            .into_iter()
            .map(|(name, unit, bound, _)| (name, unit, bound))
            .collect();
        assert_eq!(layers, reported);
        let workloads: Vec<&str> = json
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let names: Vec<&str> = crate::gen::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, names);
    }

    #[test]
    fn driver_line_is_one_json_object_with_every_metric() {
        let mut result = Result {
            attempted: 10,
            ..Result::default()
        };
        result.raw.insert("setup_s".into(), vec![0.5, 0.25, 1.0]);
        result
            .raw
            .insert("ops_per_s".into(), vec![50.0, 25.0, 100.0]);
        result
            .raw
            .insert("rss_peak_mib".into(), vec![50.0, 25.0, 100.0]);
        let line = result.driver_line(&END_TO_END);
        assert!(!line.contains('\n'));
        let json = Json::parse(&line).expect("the result line parses");
        assert_eq!(json.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(json.get("attempted").and_then(Json::as_num), Some(10.0));
        let metrics = json.get("metrics").expect("metrics");
        for m in &END_TO_END {
            let entry = metrics.get(m.name).expect(m.name);
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert!(entry.get("value").and_then(Json::as_num).is_some());
        }
        // Times report the best repetition, sizes the median.
        let value = |name: &str| {
            let entry = metrics.get(name).and_then(|m| m.get("value"));
            entry.and_then(Json::as_num)
        };
        assert_eq!(value("setup_s"), Some(0.25));
        assert_eq!(value("ops_per_s"), Some(100.0));
        assert_eq!(value("rss_peak_mib"), Some(50.0));
        result.failed = 1;
        assert!(result
            .driver_line(&END_TO_END)
            .starts_with("{\"correct\":false,"));
    }
}
