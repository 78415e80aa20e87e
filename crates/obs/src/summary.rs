//! Trace post-processing for `eras obs report`: parse a JSONL trace
//! back in and render per-span duration percentiles plus a hot-path
//! table (spans ranked by total self-reported wall time).
//!
//! The parser is a small, strict JSON reader specialized to one object
//! per line. Strictness is a feature: CI pipes freshly produced traces
//! through `eras obs report` precisely to assert every line is
//! well-formed, so a malformed line is an error naming the line
//! number, never a silent skip. `eras-obs` is a leaf crate (nothing,
//! not even `eras-data`, may be a dependency — every other crate
//! depends on this one), which is why the reader lives here instead of
//! reusing `eras_data::Json`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

/// One parsed trace record, reduced to the fields the report needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordSummary {
    /// `"span"` or `"event"`.
    pub kind: String,
    /// Span or event name.
    pub name: String,
    /// Span duration in microseconds; `None` for events.
    pub dur_us: Option<u64>,
    /// Trace thread id of the record, when present.
    pub thread: Option<u64>,
}

/// Parses a full JSONL trace. Empty lines are ignored; any malformed
/// line fails the whole parse with its 1-based line number.
pub fn parse_trace(text: &str) -> Result<Vec<RecordSummary>, String> {
    let mut records = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let rec = parse_line(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        records.push(rec);
    }
    Ok(records)
}

/// Reads `path` and renders the report; `top` caps the hot-path table.
pub fn summarize_file(path: &Path, top: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let records = parse_trace(&text)?;
    Ok(render_report(&records, top))
}

/// Aggregated statistics for one span name.
#[derive(Debug, Clone)]
pub struct SpanStats {
    /// Span name.
    pub name: String,
    /// Number of completed spans.
    pub count: u64,
    /// Sum of durations, microseconds.
    pub total_us: u64,
    /// Median duration, microseconds.
    pub p50_us: u64,
    /// 95th-percentile duration, microseconds.
    pub p95_us: u64,
    /// 99th-percentile duration, microseconds.
    pub p99_us: u64,
    /// Maximum duration, microseconds.
    pub max_us: u64,
}

/// Aggregates records into per-span stats, hottest (largest total
/// duration) first.
#[must_use]
pub fn aggregate(records: &[RecordSummary]) -> Vec<SpanStats> {
    let mut by_name: BTreeMap<&str, Vec<u64>> = BTreeMap::new();
    for rec in records {
        if let Some(dur) = rec.dur_us {
            by_name.entry(&rec.name).or_default().push(dur);
        }
    }
    let mut stats: Vec<SpanStats> = by_name
        .into_iter()
        .map(|(name, mut durs)| {
            durs.sort_unstable();
            SpanStats {
                name: name.to_string(),
                count: durs.len() as u64,
                total_us: durs.iter().sum(),
                p50_us: percentile(&durs, 50),
                p95_us: percentile(&durs, 95),
                p99_us: percentile(&durs, 99),
                max_us: durs.last().copied().unwrap_or(0),
            }
        })
        .collect();
    stats.sort_by(|a, b| b.total_us.cmp(&a.total_us).then(a.name.cmp(&b.name)));
    stats
}

/// Nearest-rank percentile over an ascending-sorted slice.
fn percentile(sorted: &[u64], q: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as u64 - 1) * q + 50) / 100;
    sorted.get(idx as usize).copied().unwrap_or(0)
}

/// Renders the human-readable report: span percentile table (top `top`
/// rows by total time) followed by event counts.
#[must_use]
pub fn render_report(records: &[RecordSummary], top: usize) -> String {
    let stats = aggregate(records);
    let n_spans: u64 = stats.iter().map(|s| s.count).sum();
    let mut events: BTreeMap<&str, u64> = BTreeMap::new();
    for rec in records {
        if rec.kind == "event" {
            *events.entry(&rec.name).or_insert(0) += 1;
        }
    }
    let n_events: u64 = events.values().sum();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace summary: {} records ({n_spans} spans, {n_events} events)",
        records.len()
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<32} {:>7} {:>12} {:>9} {:>9} {:>9} {:>9}",
        "span (hottest first)", "count", "total_ms", "p50_us", "p95_us", "p99_us", "max_us"
    );
    for s in stats.iter().take(top) {
        let _ = writeln!(
            out,
            "{:<32} {:>7} {:>12.2} {:>9} {:>9} {:>9} {:>9}",
            s.name,
            s.count,
            s.total_us as f64 / 1_000.0,
            s.p50_us,
            s.p95_us,
            s.p99_us,
            s.max_us
        );
    }
    if stats.len() > top {
        let _ = writeln!(out, "... {} more span name(s)", stats.len() - top);
    }
    // How pool-dispatched spans (e.g. `serve.scan_shard`) split across
    // executors: span counts per thread, for names seen on several.
    let mut threads: BTreeMap<&str, BTreeMap<u64, u64>> = BTreeMap::new();
    for rec in records {
        if let (Some(_), Some(t)) = (rec.dur_us, rec.thread) {
            *threads.entry(&rec.name).or_default().entry(t).or_insert(0) += 1;
        }
    }
    threads.retain(|_, by_thread| by_thread.len() > 1);
    if !threads.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "spans per thread (names run on more than one):");
        for (name, by_thread) in &threads {
            let _ = write!(out, "  {name:<32}");
            for (t, n) in by_thread {
                let _ = write!(out, " t{t}:x{n}");
            }
            let _ = writeln!(out);
        }
    }
    if !events.is_empty() {
        let _ = writeln!(out);
        let _ = writeln!(out, "events:");
        for (name, n) in &events {
            let _ = writeln!(out, "  {name:<32} x{n}");
        }
    }
    out
}

// ---------------------------------------------------------------------
// Minimal strict JSON reader for one record per line.
// ---------------------------------------------------------------------

fn parse_line(line: &str) -> Result<RecordSummary, String> {
    let mut p = Parser {
        bytes: line.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let fields = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    let kind = match fields.get("kind") {
        Some(Lite::Str(s)) => s.clone(),
        _ => return Err("missing string field \"kind\"".to_string()),
    };
    let name = match fields.get("name") {
        Some(Lite::Str(s)) => s.clone(),
        _ => return Err("missing string field \"name\"".to_string()),
    };
    let dur_us = match (kind.as_str(), fields.get("dur_us")) {
        ("span", Some(Lite::Num(n))) if *n >= 0.0 => Some(*n as u64),
        ("span", _) => return Err("span record missing numeric \"dur_us\"".to_string()),
        (_, _) => None,
    };
    let thread = match fields.get("thread") {
        Some(Lite::Num(n)) if *n >= 0.0 => Some(*n as u64),
        _ => None,
    };
    Ok(RecordSummary {
        kind,
        name,
        dur_us,
        thread,
    })
}

/// A parsed JSON value, keeping only what the report needs; nested
/// containers are validated and discarded.
enum Lite {
    Str(String),
    Num(f64),
    Other,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek();
        if b.is_some() {
            self.pos += 1;
        }
        b
    }

    /// Consumes one byte that must equal `want`. (Named `eat`, not
    /// `expect`, so the token-level panic-source audit never mistakes
    /// it for `Option::expect` on a serve-reachable path.)
    fn eat(&mut self, want: u8) -> Result<(), String> {
        match self.bump() {
            Some(b) if b == want => Ok(()),
            Some(b) => Err(format!(
                "expected '{}' at offset {}, found '{}'",
                want as char,
                self.pos - 1,
                b as char
            )),
            None => Err(format!("expected '{}', found end of line", want as char)),
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t')) {
            self.pos += 1;
        }
    }

    /// Parses `{...}`, returning the top-level key/value map.
    fn object(&mut self) -> Result<BTreeMap<String, Lite>, String> {
        self.eat(b'{')?;
        let mut map = BTreeMap::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(map);
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            map.insert(key, value);
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b'}') => return Ok(map),
                Some(b) => return Err(format!("expected ',' or '}}', found '{}'", b as char)),
                None => return Err("unterminated object".to_string()),
            }
        }
    }

    fn value(&mut self) -> Result<Lite, String> {
        match self.peek() {
            Some(b'"') => Ok(Lite::Str(self.string()?)),
            Some(b'{') => {
                self.object()?;
                Ok(Lite::Other)
            }
            Some(b'[') => {
                self.array()?;
                Ok(Lite::Other)
            }
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'n') => self.literal("null"),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(b) => Err(format!("unexpected '{}' at offset {}", b as char, self.pos)),
            None => Err("unexpected end of line".to_string()),
        }
    }

    fn array(&mut self) -> Result<(), String> {
        self.eat(b'[')?;
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            self.skip_ws();
            self.value()?;
            self.skip_ws();
            match self.bump() {
                Some(b',') => continue,
                Some(b']') => return Ok(()),
                Some(b) => return Err(format!("expected ',' or ']', found '{}'", b as char)),
                None => return Err("unterminated array".to_string()),
            }
        }
    }

    fn literal(&mut self, word: &str) -> Result<Lite, String> {
        for want in word.bytes() {
            self.eat(want)?;
        }
        Ok(Lite::Other)
    }

    fn number(&mut self) -> Result<Lite, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(self.bytes.get(start..self.pos).unwrap_or(&[]))
            .map_err(|_| "invalid utf-8 in number".to_string())?;
        text.parse::<f64>()
            .map(Lite::Num)
            .map_err(|_| format!("invalid number {text:?}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.bump() {
                Some(b'"') => return Ok(out),
                Some(b'\\') => match self.bump() {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let mut code = 0u32;
                        for _ in 0..4 {
                            let d = self
                                .bump()
                                .and_then(|b| (b as char).to_digit(16))
                                .ok_or_else(|| "bad \\u escape".to_string())?;
                            code = code * 16 + d;
                        }
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err("bad escape".to_string()),
                },
                Some(b) if b < 0x20 => return Err("raw control byte in string".to_string()),
                Some(b) => {
                    // Re-assemble multi-byte UTF-8 sequences verbatim.
                    let len = utf8_len(b);
                    let end = self.pos - 1 + len;
                    let chunk = self
                        .bytes
                        .get(self.pos - 1..end)
                        .ok_or_else(|| "truncated utf-8 sequence".to_string())?;
                    let s = std::str::from_utf8(chunk)
                        .map_err(|_| "invalid utf-8 in string".to_string())?;
                    out.push_str(s);
                    self.pos = end;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = concat!(
        "{\"kind\":\"span\",\"name\":\"train.epoch\",\"id\":1,\"parent\":0,",
        "\"thread\":1,\"start_us\":10,\"dur_us\":100,\"fields\":{\"epoch\":0}}\n",
        "{\"kind\":\"span\",\"name\":\"train.epoch\",\"id\":2,\"parent\":0,",
        "\"thread\":1,\"start_us\":120,\"dur_us\":300}\n",
        "{\"kind\":\"event\",\"name\":\"train.progress\",\"span\":2,",
        "\"thread\":1,\"at_us\":200,\"fields\":{\"mrr\":0.5,\"note\":\"a\\\"b\"}}\n",
    );

    #[test]
    fn parses_spans_and_events() {
        let records = parse_trace(SAMPLE).expect("well-formed");
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].dur_us, Some(100));
        assert_eq!(records[2].kind, "event");
        assert_eq!(records[2].dur_us, None);
    }

    #[test]
    fn malformed_line_is_an_error_with_line_number() {
        let bad = format!("{SAMPLE}{{\"kind\":\"span\",\"name\":\n");
        let err = parse_trace(&bad).expect_err("truncated line must fail");
        assert!(err.starts_with("line 4:"), "{err}");
    }

    #[test]
    fn missing_dur_on_span_is_an_error() {
        let err = parse_trace("{\"kind\":\"span\",\"name\":\"x\"}\n").expect_err("no dur_us");
        assert!(err.contains("dur_us"), "{err}");
    }

    #[test]
    fn aggregate_computes_percentiles_and_orders_by_total() {
        let mut records = Vec::new();
        for d in [10u64, 20, 30, 40, 50] {
            records.push(RecordSummary {
                kind: "span".to_string(),
                name: "slow".to_string(),
                dur_us: Some(d * 10),
                thread: None,
            });
            records.push(RecordSummary {
                kind: "span".to_string(),
                name: "fast".to_string(),
                dur_us: Some(d),
                thread: None,
            });
        }
        let stats = aggregate(&records);
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].name, "slow", "hottest first");
        assert_eq!(stats[1].name, "fast");
        assert_eq!(stats[1].count, 5);
        assert_eq!(stats[1].p50_us, 30);
        assert_eq!(stats[1].max_us, 50);
        assert_eq!(stats[1].total_us, 150);
    }

    #[test]
    fn report_renders_table_and_event_counts() {
        let records = parse_trace(SAMPLE).expect("well-formed");
        let text = render_report(&records, 10);
        assert!(text.contains("train.epoch"), "{text}");
        assert!(text.contains("train.progress"), "{text}");
        assert!(text.contains("2 spans, 1 events"), "{text}");
    }

    #[test]
    fn top_caps_the_table() {
        let records: Vec<RecordSummary> = (0..5)
            .map(|i| RecordSummary {
                kind: "span".to_string(),
                name: format!("s{i}"),
                dur_us: Some(10),
                thread: Some(1),
            })
            .collect();
        let text = render_report(&records, 2);
        assert!(text.contains("3 more span name(s)"), "{text}");
        assert!(!text.contains("spans per thread"), "{text}");
    }

    #[test]
    fn report_splits_multi_thread_spans_by_thread() {
        let records: Vec<RecordSummary> = [(1u64, 3usize), (4, 2)]
            .into_iter()
            .flat_map(|(t, n)| {
                (0..n).map(move |_| RecordSummary {
                    kind: "span".to_string(),
                    name: "serve.scan_shard".to_string(),
                    dur_us: Some(10),
                    thread: Some(t),
                })
            })
            .collect();
        let text = render_report(&records, 10);
        assert!(text.contains("spans per thread"), "{text}");
        assert!(text.contains(" t1:x3 t4:x2"), "{text}");
        assert_eq!(parse_trace(SAMPLE).expect("well-formed")[0].thread, Some(1));
    }
}
