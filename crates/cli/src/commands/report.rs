//! `mpcp report`: validate and summarize `--trace-out` /
//! `--metrics-out` files.

use crate::args::Args;

/// Render one parsed metrics-JSONL document as a summary line.
fn metric_line(doc: &mpcp_obs::json::JsonValue) -> Option<String> {
    if let Some(p) = doc.get("provenance") {
        let git = p.get("git_sha").and_then(|v| v.as_str()).unwrap_or("?");
        let config = p.get("config").and_then(|v| v.as_str()).unwrap_or("?");
        return Some(format!("-- run git={git} config={config:?}"));
    }
    let name = doc.get("metric")?.as_str()?.to_string();
    let kind = doc.get("type")?.as_str()?;
    Some(match kind {
        "histogram" => format!(
            "{name:<28} count={:<8} mean={:<12.1} p50={:<10} p95={:<10} p99={}",
            doc.get("count")?.as_f64()?,
            doc.get("mean")?.as_f64()?,
            doc.get("p50")?.as_f64()?,
            doc.get("p95")?.as_f64()?,
            doc.get("p99")?.as_f64()?,
        ),
        _ => format!("{name:<28} {kind:<9} {}", doc.get("value")?.as_f64()?),
    })
}

/// Serialize a parsed [`JsonValue`] back to JSON text (the vendored
/// parser has no writer; numbers print shortest-round-trip).
///
/// [`JsonValue`]: mpcp_obs::json::JsonValue
fn json_value_to_string(v: &mpcp_obs::json::JsonValue) -> String {
    use mpcp_obs::json::JsonValue as J;
    match v {
        J::Null => "null".to_string(),
        J::Bool(b) => b.to_string(),
        J::Num(n) if n.is_finite() => format!("{n}"),
        J::Num(_) => "null".to_string(),
        J::Str(s) => mpcp_obs::export::json_string(s),
        J::Arr(xs) => {
            let inner: Vec<String> = xs.iter().map(json_value_to_string).collect();
            format!("[{}]", inner.join(","))
        }
        J::Obj(m) => {
            let inner: Vec<String> = m
                .iter()
                .map(|(k, x)| {
                    format!("{}:{}", mpcp_obs::export::json_string(k), json_value_to_string(x))
                })
                .collect();
            format!("{{{}}}", inner.join(","))
        }
    }
}

/// `mpcp report`: validates (strict JSON parse) and summarizes the
/// files produced by `--trace-out` / `--metrics-out`. `--require` takes
/// a comma-separated list of span names that must appear in the trace —
/// the CI smoke test uses it to assert the pipeline was actually
/// instrumented. With `--format json` the same validated content is
/// emitted as one JSON document for downstream tooling.
pub fn report(args: &Args) -> Result<String, String> {
    let format = args.get_or("format", "text");
    if !matches!(format, "text" | "json") {
        return Err(format!("--format must be text or json, got {format:?}"));
    }
    let (trace, metrics) = (args.get("trace"), args.get("metrics"));
    let (require, require_metric) = (args.get("require"), args.get("require-metric"));
    args.reject_unread()?;
    let mut out = String::new();
    let mut json_parts: Vec<String> = Vec::new();
    if let Some(path) = trace {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let docs = if text.trim_start().starts_with('[') {
            vec![mpcp_obs::json::parse(&text).map_err(|e| format!("{path}: bad JSON: {e}"))?]
        } else {
            mpcp_obs::json::parse_jsonl(&text).map_err(|e| format!("{path}: bad JSONL: {e}"))?
        };
        out.push_str(&format!("== trace {path} ==\n"));
        out.push_str(&mpcp_obs::export::summarize_trace_value(&docs));
        let names = mpcp_obs::export::trace_span_names(&docs);
        if let Some(req) = require {
            for want in req.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                if !names.contains(want) {
                    return Err(format!(
                        "required span {want:?} missing from {path} (present: {})",
                        names.into_iter().collect::<Vec<_>>().join(", ")
                    ));
                }
            }
            out.push_str(&format!("required spans present: {req}\n"));
        }
        let names: Vec<String> = names.iter().map(|n| mpcp_obs::export::json_string(n)).collect();
        let events = match docs.as_slice() {
            [one] if one.as_arr().is_some() => one.as_arr().map_or(0, <[_]>::len),
            _ => docs.len(),
        };
        json_parts.push(format!(
            "\"trace\":{{\"file\":{},\"events\":{events},\"span_names\":[{}]}}",
            mpcp_obs::export::json_string(path),
            names.join(","),
        ));
    }
    if let Some(path) = metrics {
        let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
        let docs =
            mpcp_obs::json::parse_jsonl(&text).map_err(|e| format!("{path}: bad JSONL: {e}"))?;
        out.push_str(&format!("== metrics {path} ==\n"));
        for doc in &docs {
            if let Some(line) = metric_line(doc) {
                out.push_str(&line);
                out.push('\n');
            }
        }
        if let Some(req) = require_metric {
            // `name` asserts presence; `name>=N` additionally asserts the
            // (summed) value — the CI fault smoke uses this to prove the
            // retry/failure counters actually moved.
            for want in req.split(',').map(str::trim).filter(|s| !s.is_empty()) {
                let (name, min) = match want.split_once(">=") {
                    Some((n, v)) => {
                        let min: f64 = v.trim().parse().map_err(|e| {
                            format!("--require-metric: bad threshold in {want:?}: {e}")
                        })?;
                        (n.trim(), Some(min))
                    }
                    None => (want, None),
                };
                let found: Vec<_> = docs
                    .iter()
                    .filter(|d| d.get("metric").and_then(|v| v.as_str()) == Some(name))
                    .collect();
                if found.is_empty() {
                    return Err(format!("required metric {name:?} missing from {path}"));
                }
                let total: f64 =
                    found.iter().filter_map(|d| d.get("value").and_then(|v| v.as_f64())).sum();
                if let Some(min) = min.filter(|min| total < *min) {
                    return Err(format!(
                        "required metric {name:?} is {total}, below the required {min}"
                    ));
                }
            }
            out.push_str(&format!("required metrics present: {req}\n"));
        }
        let rendered: Vec<String> = docs.iter().map(json_value_to_string).collect();
        json_parts.push(format!(
            "\"metrics\":{{\"file\":{},\"documents\":[{}]}}",
            mpcp_obs::export::json_string(path),
            rendered.join(","),
        ));
    } else if require_metric.is_some() {
        return Err("--require-metric needs --metrics <file>".into());
    }
    if json_parts.is_empty() {
        return Err("report needs --trace <file> and/or --metrics <file>".into());
    }
    if format == "json" {
        return Ok(format!("{{{}}}\n", json_parts.join(",")));
    }
    Ok(out)
}
