//! Chrome `trace_event` JSON export and re-import.
//!
//! The exporter writes the "JSON object format": a `traceEvents` array
//! plus an `otherData` metadata object, loadable directly in
//! `chrome://tracing` or Perfetto. Specialization begin/end become
//! `B`/`E` duration spans (both named `ge-exec` so the viewer pairs
//! them); every other kind becomes a thread-scoped instant (`i`).
//!
//! The full [`Event`] payload rides in `args`, so
//! [`parse_chrome_trace`] can rebuild the exact event stream from the
//! file alone — `dycstat read` and the CI validation step run entirely
//! off dumped traces.

use crate::event::{Event, EventKind, ALL_KINDS};
use crate::json::{escape, Json};

/// A re-imported trace: the reconstructed event stream (in file order)
/// and the `otherData` metadata pairs.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChromeTrace {
    /// The reconstructed events.
    pub events: Vec<Event>,
    /// `otherData` metadata (string values, source order).
    pub meta: Vec<(String, String)>,
}

fn phase(kind: EventKind) -> char {
    match kind {
        EventKind::GeExecBegin => 'B',
        EventKind::GeExecEnd => 'E',
        _ => 'i',
    }
}

fn kind_for(name: &str, ph: &str) -> Option<EventKind> {
    if name == "ge-exec" {
        return match ph {
            "B" => Some(EventKind::GeExecBegin),
            "E" => Some(EventKind::GeExecEnd),
            _ => None,
        };
    }
    ALL_KINDS
        .into_iter()
        .find(|k| k.name() == name && phase(*k) == 'i')
}

/// Render an event stream (already merged across threads) as Chrome
/// `trace_event` JSON. `meta` key/value pairs land in `otherData`.
pub fn chrome_trace(events: &[Event], meta: &[(String, String)]) -> String {
    let mut out = String::with_capacity(events.len() * 160 + 256);
    out.push_str("{\"traceEvents\":[\n");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push_str(",\n");
        }
        let ph = phase(e.kind);
        // Timestamps are microseconds; keep nanosecond precision in the
        // fraction so parse-back is exact.
        out.push_str(&format!(
            "{{\"name\":{},\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{:.3},\"pid\":1,\"tid\":{}",
            escape(e.kind.name()),
            e.kind.category().name(),
            ph,
            e.t_ns as f64 / 1000.0,
            e.thread,
        ));
        if ph == 'i' {
            out.push_str(",\"s\":\"t\"");
        }
        // The key hash is a full 64-bit word — JSON numbers are f64, so
        // it travels as a hex string.
        out.push_str(&format!(
            ",\"args\":{{\"site\":{},\"key\":\"{:#x}\",\"seq\":{},\"cycle\":{},\"a\":{},\"b\":{}}}}}",
            e.site, e.key, e.seq, e.cycle, e.a, e.b
        ));
    }
    out.push_str("\n],\"otherData\":{");
    for (i, (k, v)) in meta.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("{}:{}", escape(k), escape(v)));
    }
    out.push_str("}}\n");
    out
}

fn req_num(o: &Json, key: &str) -> Result<u64, String> {
    o.get(key)
        .and_then(Json::num)
        .map(|n| n as u64)
        .ok_or_else(|| format!("missing numeric field '{key}'"))
}

/// Parse a trace produced by [`chrome_trace`] back into its event
/// stream and metadata.
///
/// # Errors
///
/// Rejects JSON that does not parse, lacks a `traceEvents` array, or
/// contains events this exporter could not have written (unknown
/// name/phase, missing `args` fields).
pub fn parse_chrome_trace(text: &str) -> Result<ChromeTrace, String> {
    let doc = Json::parse(text)?;
    let evs = doc
        .get("traceEvents")
        .and_then(Json::arr)
        .ok_or("no traceEvents array")?;
    let mut events = Vec::with_capacity(evs.len());
    for (i, ev) in evs.iter().enumerate() {
        let name = ev
            .get("name")
            .and_then(Json::str)
            .ok_or_else(|| format!("event {i}: no name"))?;
        let ph = ev
            .get("ph")
            .and_then(Json::str)
            .ok_or_else(|| format!("event {i}: no ph"))?;
        let kind =
            kind_for(name, ph).ok_or_else(|| format!("event {i}: unknown kind {name:?}/{ph:?}"))?;
        let ts = ev
            .get("ts")
            .and_then(Json::num)
            .ok_or_else(|| format!("event {i}: no ts"))?;
        let args = ev
            .get("args")
            .ok_or_else(|| format!("event {i}: no args"))?;
        let key_hex = args
            .get("key")
            .and_then(Json::str)
            .ok_or_else(|| format!("event {i}: no key"))?;
        let key = u64::from_str_radix(key_hex.trim_start_matches("0x"), 16)
            .map_err(|e| format!("event {i}: bad key {key_hex:?}: {e}"))?;
        events.push(Event {
            kind,
            site: req_num(args, "site").map_err(|e| format!("event {i}: {e}"))? as u32,
            thread: req_num(ev, "tid").map_err(|e| format!("event {i}: {e}"))? as u32,
            key,
            seq: req_num(args, "seq").map_err(|e| format!("event {i}: {e}"))?,
            t_ns: (ts * 1000.0).round() as u64,
            cycle: req_num(args, "cycle").map_err(|e| format!("event {i}: {e}"))?,
            a: req_num(args, "a").map_err(|e| format!("event {i}: {e}"))?,
            b: req_num(args, "b").map_err(|e| format!("event {i}: {e}"))?,
        });
    }
    let mut meta = Vec::new();
    if let Some(Json::Obj(m)) = doc.get("otherData") {
        for (k, v) in m {
            if let Json::Str(s) = v {
                meta.push((k.clone(), s.clone()));
            }
        }
    }
    Ok(ChromeTrace { events, meta })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        ALL_KINDS
            .into_iter()
            .enumerate()
            .map(|(i, kind)| Event {
                kind,
                site: i as u32,
                thread: (i % 3) as u32,
                key: 0xdead_beef_0000_0000 | i as u64,
                seq: i as u64,
                t_ns: 1_000 * i as u64 + 123,
                cycle: 77 * i as u64,
                a: i as u64,
                b: 2 * i as u64,
            })
            .collect()
    }

    #[test]
    fn round_trips_every_kind() {
        let events = sample_events();
        let meta = vec![
            ("workload".to_string(), "chebyshev".to_string()),
            ("threads".to_string(), "8".to_string()),
        ];
        let text = chrome_trace(&events, &meta);
        let back = parse_chrome_trace(&text).unwrap();
        assert_eq!(back.events, events);
        assert_eq!(back.meta, meta);
    }

    #[test]
    fn span_pair_shares_a_name_with_distinct_phases() {
        let events = sample_events();
        let text = chrome_trace(&events, &[]);
        assert!(text.contains("\"name\":\"ge-exec\",\"cat\":\"spec\",\"ph\":\"B\""));
        assert!(text.contains("\"name\":\"ge-exec\",\"cat\":\"spec\",\"ph\":\"E\""));
        // Instants carry a thread scope for the viewer.
        assert!(text.contains("\"ph\":\"i\",\"ts\":0.123,\"pid\":1,\"tid\":0,\"s\":\"t\""));
    }

    #[test]
    fn output_is_valid_json() {
        let text = chrome_trace(&sample_events(), &[("a".into(), "b\"c".into())]);
        let doc = Json::parse(&text).unwrap();
        assert_eq!(
            doc.get("traceEvents").and_then(Json::arr).map(|a| a.len()),
            Some(ALL_KINDS.len())
        );
        assert_eq!(
            doc.get("otherData")
                .and_then(|o| o.get("a"))
                .and_then(Json::str),
            Some("b\"c")
        );
    }

    /// Every kind added since the original exporter (warm-start loads and
    /// rejects, native installs/fallbacks, the adaptive-policy events,
    /// single-flight races and generic-continuation builds) must keep its
    /// exact wire name, category, and phase — a rename or a missed
    /// `kind_for` arm would silently break every dumped trace.
    #[test]
    fn recent_kinds_are_pinned_on_the_wire() {
        use crate::event::Category;
        let pinned: &[(EventKind, &str, Category)] = &[
            (EventKind::CacheWarmLoad, "cache-warm-load", Category::Cache),
            (EventKind::NativeInstall, "native-install", Category::Spec),
            (EventKind::NativeFallback, "native-fallback", Category::Spec),
            (EventKind::PolicyDefer, "policy-defer", Category::Policy),
            (EventKind::PolicyPromote, "policy-promote", Category::Policy),
            (
                EventKind::PolicyThrottle,
                "policy-throttle",
                Category::Policy,
            ),
            (EventKind::FlightRace, "flight-race", Category::Flight),
            (EventKind::GenericBuild, "generic-build", Category::Spec),
            (
                EventKind::CacheWarmReject,
                "cache-warm-reject",
                Category::Cache,
            ),
            (EventKind::FlightStale, "flight-stale", Category::Flight),
        ];
        for &(kind, name, cat) in pinned {
            assert!(ALL_KINDS.contains(&kind), "{name} missing from ALL_KINDS");
            assert_eq!(kind.name(), name);
            assert_eq!(kind.category(), cat);
            assert_eq!(phase(kind), 'i', "{name} must export as an instant");
            assert_eq!(kind_for(name, "i"), Some(kind), "{name} must parse back");
            let ev = Event {
                kind,
                site: 3,
                thread: 1,
                key: 0xabcd,
                seq: 9,
                t_ns: 4_567,
                cycle: 11,
                a: 1,
                b: 2,
            };
            let text = chrome_trace(std::slice::from_ref(&ev), &[]);
            assert!(
                text.contains(&format!("\"name\":\"{name}\",\"cat\":\"{}\"", cat.name())),
                "wire form changed for {name}"
            );
            let back = parse_chrome_trace(&text).unwrap();
            assert_eq!(back.events, vec![ev]);
        }
    }

    #[test]
    fn rejects_foreign_traces() {
        assert!(parse_chrome_trace("[]").is_err());
        assert!(parse_chrome_trace("{\"traceEvents\":[{\"name\":\"x\",\"ph\":\"i\"}]}").is_err());
        // ge-exec with an instant phase was never written by us.
        assert!(parse_chrome_trace(
            "{\"traceEvents\":[{\"name\":\"ge-exec\",\"ph\":\"i\",\"ts\":0,\"tid\":0,\
             \"args\":{\"site\":0,\"key\":\"0x0\",\"seq\":0,\"cycle\":0,\"a\":0,\"b\":0}}]}"
        )
        .is_err());
    }
}
