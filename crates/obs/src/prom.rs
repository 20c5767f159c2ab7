//! Prometheus-style text exposition (version 0.0.4) for named meters.
//!
//! `dycstat` renders the runtime's counter sets ([`crate::SiteProfile`]
//! fields, `RtStats`, the concurrent runtime's global snapshot) in the
//! standard scrape format so a run's numbers can be diffed, plotted, or
//! shipped to any Prometheus-compatible tooling without bespoke
//! parsing.

use crate::json::escape;

/// The metric's exposition type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone count (events, cycles, probes).
    Counter,
    /// Point-in-time level (resident entries, ring occupancy).
    Gauge,
}

impl MetricKind {
    fn name(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One sample: a metric name, help text, kind, label set, and value.
/// Samples sharing a name (e.g. one per site) share one
/// `# HELP`/`# TYPE` header and differ by labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`snake_case`, conventionally `dyc_`-prefixed).
    pub name: String,
    /// One-line help text.
    pub help: String,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Label pairs, rendered in order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Metric {
    /// A counter sample.
    pub fn counter(name: &str, help: &str, labels: &[(&str, String)], value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            help: help.to_string(),
            kind: MetricKind::Counter,
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
            value,
        }
    }

    /// A gauge sample.
    pub fn gauge(name: &str, help: &str, labels: &[(&str, String)], value: f64) -> Metric {
        Metric {
            kind: MetricKind::Gauge,
            ..Metric::counter(name, help, labels, value)
        }
    }
}

/// Escape help text per the text-format spec: `\` as `\\` and newline
/// as `\n` (help is otherwise raw — only label *values* get the full
/// quoted escaping).
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn render_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Render samples in the Prometheus text format. Consecutive samples
/// with the same name are grouped under one header; pass samples
/// already ordered by name for a well-formed exposition.
pub fn render_metrics(metrics: &[Metric]) -> String {
    let mut out = String::new();
    let mut last_name: Option<&str> = None;
    for m in metrics {
        if last_name != Some(m.name.as_str()) {
            out.push_str(&format!("# HELP {} {}\n", m.name, escape_help(&m.help)));
            out.push_str(&format!("# TYPE {} {}\n", m.name, m.kind.name()));
            last_name = Some(m.name.as_str());
        }
        out.push_str(&m.name);
        if !m.labels.is_empty() {
            out.push('{');
            for (i, (k, v)) in m.labels.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!("{}={}", k, escape(v)));
            }
            out.push('}');
        }
        out.push(' ');
        out.push_str(&render_value(m.value));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_grouped_families() {
        let ms = vec![
            Metric::counter(
                "dyc_site_hits_total",
                "Cache hits per site.",
                &[("site", "0".to_string())],
                12.0,
            ),
            Metric::counter(
                "dyc_site_hits_total",
                "Cache hits per site.",
                &[("site", "1".to_string())],
                3.0,
            ),
            Metric::gauge("dyc_ring_events", "Resident events.", &[], 1.5),
        ];
        let text = render_metrics(&ms);
        assert_eq!(
            text,
            "# HELP dyc_site_hits_total Cache hits per site.\n\
             # TYPE dyc_site_hits_total counter\n\
             dyc_site_hits_total{site=\"0\"} 12\n\
             dyc_site_hits_total{site=\"1\"} 3\n\
             # HELP dyc_ring_events Resident events.\n\
             # TYPE dyc_ring_events gauge\n\
             dyc_ring_events 1.5\n"
        );
    }

    #[test]
    fn integral_values_render_without_fraction() {
        assert_eq!(render_value(42.0), "42");
        assert_eq!(render_value(0.25), "0.25");
    }

    #[test]
    fn label_values_are_escaped() {
        let m = Metric::counter("x_total", "h", &[("k", "a\"b".to_string())], 1.0);
        let text = render_metrics(&[m]);
        assert!(text.contains("x_total{k=\"a\\\"b\"} 1\n"));
    }

    #[test]
    fn help_text_is_escaped() {
        let m = Metric::counter("x_total", "line one\nwith \\ slash", &[], 1.0);
        let text = render_metrics(&[m]);
        assert!(text.contains("# HELP x_total line one\\nwith \\\\ slash\n"));
        // The exposition stays one-sample-per-line.
        assert_eq!(text.lines().count(), 3);
    }

    // --- text-format grammar validation -----------------------------
    //
    // A miniature checker for the Prometheus text format (version
    // 0.0.4): metric names match [a-zA-Z_:][a-zA-Z0-9_:]*, label names
    // match [a-zA-Z_][a-zA-Z0-9_]*, label values are double-quoted with
    // \\, \", \n escapes, values parse as floats, and every sample line
    // is preceded by its family's # HELP and # TYPE lines.

    fn is_metric_name(s: &str) -> bool {
        let mut cs = s.chars();
        cs.next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
            && cs.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }

    fn is_label_name(s: &str) -> bool {
        let mut cs = s.chars();
        cs.next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
            && cs.all(|c| c.is_ascii_alphanumeric() || c == '_')
    }

    /// Parse a quoted label value, returning the rest after the close
    /// quote. Panics on an illegal escape or unterminated string.
    fn skip_label_value(s: &str) -> &str {
        let mut cs = s.char_indices();
        assert_eq!(
            cs.next().map(|(_, c)| c),
            Some('"'),
            "label value must open with a quote"
        );
        while let Some((i, c)) = cs.next() {
            match c {
                '"' => return &s[i + 1..],
                '\\' => {
                    let (_, e) = cs.next().expect("dangling escape");
                    assert!(matches!(e, '\\' | '"' | 'n'), "illegal escape \\{e}");
                }
                '\n' => panic!("raw newline in label value"),
                _ => {}
            }
        }
        panic!("unterminated label value");
    }

    /// Validate a full exposition against the grammar. Returns the
    /// number of sample lines checked.
    fn validate_exposition(text: &str) -> usize {
        use std::collections::HashSet;
        let mut headered: HashSet<String> = HashSet::new();
        let mut samples = 0;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(is_metric_name(name), "bad HELP name {name:?}");
                continue;
            }
            if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                assert!(is_metric_name(name), "bad TYPE name {name:?}");
                let kind = it.next().unwrap();
                assert!(matches!(
                    kind,
                    "counter" | "gauge" | "histogram" | "summary" | "untyped"
                ));
                headered.insert(name.to_string());
                continue;
            }
            // Sample line: name[{labels}] value
            let name_end = line.find(['{', ' ']).expect("sample line has no value");
            let name = &line[..name_end];
            assert!(is_metric_name(name), "bad metric name {name:?}");
            assert!(
                headered.contains(name),
                "sample for {name:?} precedes its # TYPE"
            );
            let mut rest = &line[name_end..];
            if let Some(body) = rest.strip_prefix('{') {
                let mut cur = body;
                loop {
                    let eq = cur.find('=').expect("label without =");
                    assert!(is_label_name(&cur[..eq]), "bad label name {:?}", &cur[..eq]);
                    cur = skip_label_value(&cur[eq + 1..]);
                    match cur.as_bytes().first() {
                        Some(b',') => cur = &cur[1..],
                        Some(b'}') => {
                            rest = &cur[1..];
                            break;
                        }
                        other => panic!("unexpected {other:?} after label value"),
                    }
                }
            }
            let value = rest.trim_start_matches(' ');
            value
                .parse::<f64>()
                .unwrap_or_else(|_| panic!("bad value {value:?}"));
            samples += 1;
        }
        samples
    }

    #[test]
    fn exposition_conforms_to_the_text_format_grammar() {
        let ms = vec![
            Metric::counter(
                "dyc_site_hits_total",
                "Cache hits per site.",
                &[("site", "0".to_string()), ("mode", "cache_all".to_string())],
                12.0,
            ),
            Metric::counter(
                "dyc_site_hits_total",
                "Cache hits per site.",
                &[("site", "1".to_string())],
                3.0,
            ),
            Metric::gauge("dyc_ring_events", "Resident\nevents \\ now.", &[], 1.5),
            Metric::gauge(
                "dyc_weird_label",
                "Label value with every escape.",
                &[("path", "a\"b\\c\nd".to_string())],
                -0.125,
            ),
        ];
        let text = render_metrics(&ms);
        assert_eq!(validate_exposition(&text), 4);
    }

    #[test]
    fn live_metric_families_use_legal_names() {
        for (name, _, _) in crate::sampler::live_families(&crate::Counts::default()) {
            assert!(is_metric_name(&format!("dyc_live_{name}_total")));
        }
    }

    #[test]
    fn grammar_checker_rejects_bad_names() {
        assert!(!is_metric_name("9starts_with_digit"));
        assert!(!is_metric_name("has-dash"));
        assert!(!is_metric_name(""));
        assert!(is_metric_name("dyc_live_dispatches_total"));
        assert!(!is_label_name("with:colon"));
        assert!(is_label_name("site"));
    }
}
