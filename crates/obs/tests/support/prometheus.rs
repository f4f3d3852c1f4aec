//! The Prometheus text-format checker the exposition tests share: the
//! obs crate's own (`tests/text_format.rs`) and the server's scrape of
//! `/metrics` (`crates/server/tests/protocol.rs`), which includes this
//! file by path.

/// Validate a label set body (the text between `{` and `}`):
/// comma-separated `key="value"` pairs with `\"`-escaped values.
fn check_label_set(body: &str) -> Result<(), String> {
    let mut rest = body;
    loop {
        let Some(eq) = rest.find("=\"") else {
            return Err(format!("label without =\" in {body:?}"));
        };
        let key = &rest[..eq];
        if key.is_empty() || !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
            return Err(format!("bad label name {key:?}"));
        }
        // Find the closing unescaped quote.
        let mut ix = eq + 2;
        let bytes = rest.as_bytes();
        loop {
            match bytes.get(ix) {
                None => return Err(format!("unterminated label value in {body:?}")),
                Some(b'\\') => ix += 2,
                Some(b'"') => break,
                Some(_) => ix += 1,
            }
        }
        rest = &rest[ix + 1..];
        match rest.strip_prefix(',') {
            Some(r) => rest = r,
            None if rest.is_empty() => return Ok(()),
            None => return Err(format!("junk after label value in {body:?}")),
        }
    }
}

/// Validate an OpenMetrics exemplar suffix (everything after `# ` on a
/// `_bucket` line): `{trace_id="…"} <value> [<timestamp>]`.
fn check_exemplar(suffix: &str) -> Result<(), String> {
    let Some(rest) = suffix.strip_prefix('{') else {
        return Err(format!("exemplar must start with a label set: {suffix:?}"));
    };
    let Some((labels, rest)) = rest.split_once('}') else {
        return Err(format!("unterminated exemplar label set: {suffix:?}"));
    };
    check_label_set(labels)?;
    if !labels.starts_with("trace_id=\"") {
        return Err(format!("exemplar must carry trace_id: {suffix:?}"));
    }
    let mut parts = rest.trim_start().split(' ');
    let Some(value) = parts.next() else {
        return Err(format!("exemplar without value: {suffix:?}"));
    };
    if value.parse::<f64>().is_err() {
        return Err(format!("unparseable exemplar value {value:?}"));
    }
    if let Some(ts) = parts.next() {
        if ts.parse::<f64>().is_err() {
            return Err(format!("unparseable exemplar timestamp {ts:?}"));
        }
    }
    if parts.next().is_some() {
        return Err(format!("junk after exemplar timestamp: {suffix:?}"));
    }
    Ok(())
}

/// Enter `family`'s group of lines: a family whose group already
/// closed (another family's line came after it) is split.
fn enter(groups: &mut Vec<String>, family: &str) -> Result<(), String> {
    if groups.last().is_some_and(|f| f == family) {
        return Ok(());
    }
    if groups.iter().any(|f| f == family) {
        return Err(format!("family {family} is split into more than one group"));
    }
    groups.push(family.to_owned());
    Ok(())
}

/// Validate one exposition document. Returns the number of sample lines,
/// or an error naming the first offending line.
///
/// Beside each line's grammar, the grouping rule of the exposition
/// format: a family has at most one `# HELP` and one `# TYPE` line, both
/// before its samples, and all its lines form one contiguous group. A
/// histogram's `_bucket`, `_sum` and `_count` samples belong to its
/// family.
pub fn check_prometheus_text(text: &str) -> Result<usize, String> {
    let mut samples = 0usize;
    let mut typed: Vec<(String, String)> = Vec::new();
    let mut helped: Vec<String> = Vec::new();
    let mut sampled: Vec<String> = Vec::new();
    let mut groups: Vec<String> = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let err = |msg: &str| Err(format!("line {}: {msg}: {line:?}", lineno + 1));
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let family = if let Some(rest) = rest.strip_prefix("TYPE ") {
                let mut parts = rest.split_whitespace();
                let (Some(name), Some(kind)) = (parts.next(), parts.next()) else {
                    return err("malformed TYPE comment");
                };
                if !matches!(kind, "counter" | "gauge" | "histogram") {
                    return err("unknown metric type");
                }
                if typed.iter().any(|(n, _)| n == name) {
                    return err("duplicate TYPE for series");
                }
                typed.push((name.to_owned(), kind.to_owned()));
                name
            } else if let Some(rest) = rest.strip_prefix("HELP ") {
                let Some(name) = rest.split_whitespace().next() else {
                    return err("malformed HELP comment");
                };
                if helped.iter().any(|n| n == name) {
                    return err("duplicate HELP for series");
                }
                helped.push(name.to_owned());
                name
            } else {
                return err("unknown comment form");
            };
            if sampled.iter().any(|n| n == family) {
                return err("metadata after the family's samples");
            }
            if let Err(e) = enter(&mut groups, family) {
                return err(&e);
            }
            continue;
        }
        // Sample: `name value`, `name{labels} value`, optionally followed
        // by an OpenMetrics exemplar: ` # {trace_id="…"} value ts`.
        let line = match line.split_once(" # ") {
            Some((sample_part, exemplar)) => {
                if !sample_part.contains("_bucket") {
                    return err("exemplar on a non-bucket line");
                }
                if let Err(e) = check_exemplar(exemplar) {
                    return err(&e);
                }
                sample_part
            }
            None => line,
        };
        let Some((sample, value)) = line.rsplit_once(' ') else {
            return err("sample line without value");
        };
        if value.parse::<f64>().is_err() && value != "+Inf" {
            return err("unparseable sample value");
        }
        let name = match sample.split_once('{') {
            Some((name, labels)) => {
                let Some(labels) = labels.strip_suffix('}') else {
                    return err("malformed label set");
                };
                if let Err(e) = check_label_set(labels) {
                    return err(&e);
                }
                name
            }
            None => sample,
        };
        let base = name
            .strip_suffix("_bucket")
            .or_else(|| name.strip_suffix("_sum"))
            .or_else(|| name.strip_suffix("_count"))
            .unwrap_or(name);
        if classic_obs::validate_name(base).is_err() && classic_obs::validate_name(name).is_err() {
            return err("sample name fails registration-time validation");
        }
        let is_histogram = typed.iter().any(|(n, k)| n == base && k == "histogram");
        let family = if is_histogram { base } else { name };
        if !sampled.iter().any(|n| n == family) {
            sampled.push(family.to_owned());
        }
        if let Err(e) = enter(&mut groups, family) {
            return err(&e);
        }
        samples += 1;
    }
    if samples == 0 {
        return Err("no samples in exposition output".to_owned());
    }
    Ok(samples)
}
