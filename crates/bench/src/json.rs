//! Minimal hand-rolled JSON emitter for machine-readable run reports.
//!
//! The workspace deliberately carries no serialization dependency, so
//! reports are built from a small [`JsonValue`] tree and rendered with a
//! deterministic pretty-printer: object keys keep insertion order, floats
//! render via Rust's shortest-roundtrip formatting, and non-finite floats
//! degrade to `null` (JSON has no NaN/Infinity).
//!
//! [`system_report_json`] converts a full-system run
//! ([`ahl_core::SystemReport`]) into the stable report shape consumed by
//! CI and described in BENCHMARKS.md: run config, aggregate metrics,
//! per-shard labeled counters, per-phase latency percentiles, raw global
//! counters, and flight-recorder occupancy.

use ahl_core::{SystemConfig, SystemReport, SystemWorkload};
use ahl_simkit::{Phase, Scope, SimDuration};
use ahl_telemetry::ProfileReport;

/// A JSON document node. Objects preserve insertion order so report
/// output is byte-stable across runs of the same build.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Integer number (emitted without a decimal point).
    Int(i64),
    /// Unsigned integer number (counters can exceed `i64`).
    UInt(u64),
    /// Floating-point number; non-finite values render as `null`.
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Array.
    Array(Vec<JsonValue>),
    /// Object with insertion-ordered keys.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Start an empty object.
    pub fn object() -> JsonValue {
        JsonValue::Object(Vec::new())
    }

    /// Insert (or overwrite) a key in an object; panics on non-objects.
    pub fn set(&mut self, key: &str, value: JsonValue) -> &mut Self {
        match self {
            JsonValue::Object(pairs) => {
                if let Some(p) = pairs.iter_mut().find(|(k, _)| k == key) {
                    p.1 = value;
                } else {
                    pairs.push((key.to_string(), value));
                }
            }
            _ => panic!("JsonValue::set on a non-object"),
        }
        self
    }

    /// Fetch a key from an object (`None` on non-objects/missing keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric view: `Int`/`UInt`/`Num` as `f64`, `None` otherwise.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Int(i) => Some(*i as f64),
            JsonValue::UInt(u) => Some(*u as f64),
            JsonValue::Num(f) => Some(*f),
            _ => None,
        }
    }

    /// Counter view: non-negative integers as `u64`, `None` otherwise.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::UInt(u) => Some(*u),
            JsonValue::Int(i) if *i >= 0 => Some(*i as u64),
            _ => None,
        }
    }

    /// Slash-separated path lookup through nested objects, e.g.
    /// `report.path("metrics/tps")`. Slash (not dot) because report keys
    /// like `phase.commit_exec` contain dots.
    pub fn path(&self, path: &str) -> Option<&JsonValue> {
        path.split('/').try_fold(self, |v, k| v.get(k))
    }

    /// Parse a JSON document — the inverse of [`JsonValue::render`].
    /// Numbers without a fraction or exponent come back as
    /// `UInt`/`Int`, everything else as `Num`. Errors carry the byte
    /// offset of the first problem.
    pub fn parse(s: &str) -> Result<JsonValue, String> {
        let mut p = Parser { b: s.as_bytes(), i: 0 };
        p.skip_ws();
        let v = p.value()?;
        p.skip_ws();
        if p.i != p.b.len() {
            return Err(format!("trailing data at byte {}", p.i));
        }
        Ok(v)
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Int(i) => out.push_str(&i.to_string()),
            JsonValue::UInt(u) => out.push_str(&u.to_string()),
            JsonValue::Num(f) => {
                if f.is_finite() {
                    // `{:?}` gives the shortest representation that
                    // round-trips, and always includes a `.0`/exponent so
                    // the value stays a float on re-parse.
                    out.push_str(&format!("{f:?}"));
                } else {
                    out.push_str("null");
                }
            }
            JsonValue::Str(s) => write_escaped(out, s),
            JsonValue::Array(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    item.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) => {
                if pairs.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }
}

struct Parser<'a> {
    b: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn eat(&mut self, c: u8) -> Result<(), String> {
        if self.peek() == Some(c) {
            self.i += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.i))
        }
    }

    fn value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'n') => self.lit("null", JsonValue::Null),
            Some(b't') => self.lit("true", JsonValue::Bool(true)),
            Some(b'f') => self.lit("false", JsonValue::Bool(false)),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b'[') => self.array(),
            Some(b'{') => self.object_value(),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(format!("unexpected input at byte {}", self.i)),
        }
    }

    fn lit(&mut self, word: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.b[self.i..].starts_with(word.as_bytes()) {
            self.i += word.len();
            Ok(v)
        } else {
            Err(format!("bad literal at byte {}", self.i))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.i;
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        let mut float = false;
        while let Some(c) = self.peek() {
            match c {
                b'0'..=b'9' => self.i += 1,
                b'.' | b'e' | b'E' => {
                    float = true;
                    self.i += 1;
                }
                // Exponent sign; a bare +/- elsewhere fails the f64 parse.
                b'+' | b'-' if float => self.i += 1,
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.b[start..self.i]).unwrap();
        if !float {
            if let Ok(u) = text.parse::<u64>() {
                return Ok(JsonValue::UInt(u));
            }
            if let Ok(i) = text.parse::<i64>() {
                return Ok(JsonValue::Int(i));
            }
        }
        text.parse::<f64>().map(JsonValue::Num).map_err(|_| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            let Some(c) = self.peek() else {
                return Err("unterminated string".into());
            };
            self.i += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(e) = self.peek() else {
                        return Err("unterminated escape".into());
                    };
                    self.i += 1;
                    match e {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let end = self.i + 4;
                            let cp = self
                                .b
                                .get(self.i..end)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .ok_or_else(|| format!("bad \\u escape at byte {}", self.i))?;
                            self.i = end;
                            out.push(char::from_u32(cp).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.i)),
                    }
                }
                _ => {
                    // Copy the full UTF-8 sequence through (input is &str,
                    // so the bytes are valid).
                    let start = self.i - 1;
                    while self.peek().is_some_and(|b| b & 0xc0 == 0x80) {
                        self.i += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.b[start..self.i])
                            .map_err(|_| format!("bad utf-8 at byte {start}"))?,
                    );
                }
            }
        }
    }

    fn array(&mut self) -> Result<JsonValue, String> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.i += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b']') => {
                    self.i += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.i)),
            }
        }
    }

    fn object_value(&mut self) -> Result<JsonValue, String> {
        self.eat(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(b'}') => {
                    self.i += 1;
                    return Ok(JsonValue::Object(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.i)),
            }
        }
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

fn ms(d: SimDuration) -> JsonValue {
    JsonValue::Num(d.as_nanos() as f64 / 1e6)
}

/// The keys every system report must carry; CI fails the smoke run if one
/// goes missing. Keep in sync with [`system_report_json`].
pub const REQUIRED_REPORT_KEYS: &[&str] =
    &["report_version", "config", "metrics", "per_shard", "phases", "counters", "trace"];

/// Convert a full-system run into the stable machine-readable report.
pub fn system_report_json(cfg: &SystemConfig, report: &SystemReport) -> JsonValue {
    let m = &report.metrics;
    let stats = &report.stats;

    let mut config = JsonValue::object();
    config
        .set("shards", JsonValue::UInt(cfg.shards as u64))
        .set("committee_size", JsonValue::UInt(cfg.committee_size as u64))
        .set("with_reference", JsonValue::Bool(cfg.with_reference))
        .set("variant", JsonValue::Str(format!("{:?}", cfg.variant)))
        .set("clients", JsonValue::UInt(cfg.clients as u64))
        .set("outstanding", JsonValue::UInt(cfg.outstanding as u64))
        .set("batch_size", JsonValue::UInt(cfg.batch_size as u64))
        .set(
            "workload",
            JsonValue::Str(match &cfg.workload {
                SystemWorkload::SmallBank { accounts, theta } => {
                    format!("smallbank(accounts={accounts}, theta={theta})")
                }
                SystemWorkload::KvStore { keys, ops_per_txn } => {
                    format!("kvstore(keys={keys}, ops_per_txn={ops_per_txn})")
                }
            }),
        )
        .set("duration_s", JsonValue::Num(cfg.duration.as_secs_f64()))
        .set("warmup_s", JsonValue::Num(cfg.warmup.as_secs_f64()))
        .set("byzantine", JsonValue::UInt(cfg.byzantine as u64))
        .set("malicious_clients", JsonValue::UInt(cfg.malicious_clients as u64))
        .set("seed", JsonValue::UInt(cfg.seed));

    let mut metrics = JsonValue::object();
    metrics
        .set("tps", JsonValue::Num(m.tps))
        .set("committed", JsonValue::UInt(m.committed))
        .set("aborted", JsonValue::UInt(m.aborted))
        .set("abort_rate", JsonValue::Num(m.abort_rate))
        .set("latency_mean_ms", ms(m.latency_mean))
        .set("latency_p50_ms", ms(m.latency_p50))
        .set("latency_p99_ms", ms(m.latency_p99))
        .set("latency_p999_ms", ms(m.latency_p999))
        .set("cross_shard_fraction", JsonValue::Num(m.cross_shard_fraction))
        .set("stalled", JsonValue::UInt(m.stalled))
        .set("rejected", JsonValue::UInt(m.rejected))
        .set("pool_rejections", JsonValue::UInt(m.pool_rejections))
        .set("view_changes", JsonValue::UInt(m.view_changes))
        .set("chunks_served", JsonValue::UInt(m.chunks_served))
        .set("bytes_synced", JsonValue::UInt(m.bytes_synced))
        .set("proof_failures", JsonValue::UInt(m.proof_failures))
        .set(
            "final_balance",
            m.final_balance.map(JsonValue::Int).unwrap_or(JsonValue::Null),
        )
        .set("safety_violations", JsonValue::UInt(m.safety_violations))
        .set("liveness_violations", JsonValue::UInt(m.liveness_violations));

    // Per-shard labeled counters: one object per committee that reported
    // anything, keyed from the committee-scoped metric roll-ups.
    let committees = cfg.shards + usize::from(cfg.with_reference);
    let mut per_shard = Vec::new();
    for c in 0..committees {
        let scope = Scope::committee(c);
        let mut shard = JsonValue::object();
        shard
            .set(
                "committee",
                if c == cfg.shards {
                    JsonValue::Str("reference".into())
                } else {
                    JsonValue::UInt(c as u64)
                },
            )
            .set(
                "committed",
                JsonValue::UInt(stats.scoped_counter(ahl_consensus::stat::TXN_COMMITTED, scope)),
            )
            .set(
                "aborted",
                JsonValue::UInt(stats.scoped_counter(ahl_consensus::stat::TXN_ABORTED, scope)),
            )
            .set(
                "blocks",
                JsonValue::UInt(stats.scoped_counter(ahl_consensus::stat::BLOCKS_COMMITTED, scope)),
            )
            .set(
                "view_changes",
                JsonValue::UInt(stats.scoped_counter(ahl_consensus::stat::VIEW_CHANGES, scope)),
            );
        if let Some(h) = stats.scoped_histogram(ahl_consensus::stat::TXN_LATENCY, scope) {
            shard
                .set("latency_p50_ms", ms(h.quantile(0.50)))
                .set("latency_p99_ms", ms(h.quantile(0.99)));
        }
        per_shard.push(shard);
    }

    // Phase-latency breakdown from the flight recorder's derived
    // histograms: one entry per consensus/2PC transition that fired.
    let mut phases = JsonValue::object();
    for name in Phase::TRANSITIONS {
        if let Some(h) = stats.histogram(name) {
            let mut p = JsonValue::object();
            p.set("count", JsonValue::UInt(h.count()))
                .set("mean_ms", ms(h.mean()))
                .set("p50_ms", ms(h.quantile(0.50)))
                .set("p99_ms", ms(h.quantile(0.99)))
                .set("p999_ms", ms(h.quantile(0.999)));
            phases.set(name, p);
        }
    }

    let mut counters = JsonValue::object();
    for (name, v) in stats.counters() {
        counters.set(name, JsonValue::UInt(v));
    }

    let rec = stats.recorder();
    let mut trace = JsonValue::object();
    trace
        .set("capacity_per_node", JsonValue::UInt(rec.capacity() as u64))
        .set("events_retained", JsonValue::UInt(rec.all_events().count() as u64))
        .set("chain_overflow", JsonValue::UInt(rec.overflow()));

    let mut root = JsonValue::object();
    root.set("report_version", JsonValue::UInt(1))
        .set("config", config)
        .set("metrics", metrics)
        .set("per_shard", JsonValue::Array(per_shard))
        .set("phases", phases)
        .set("counters", counters)
        .set("trace", trace);
    if let Some(p) = &report.profile {
        root.set("profile", profile_json(p));
    }
    root
}

/// Convert a wall-clock profiler report into JSON (spans stay in the
/// report's self-time-descending order).
pub fn profile_json(p: &ProfileReport) -> JsonValue {
    let spans = p
        .spans
        .iter()
        .map(|s| {
            let mut o = JsonValue::object();
            o.set("name", JsonValue::Str(s.name.to_string()))
                .set("count", JsonValue::UInt(s.count))
                .set("self_ms", JsonValue::Num(s.self_ns as f64 / 1e6))
                .set("total_ms", JsonValue::Num(s.total_ns as f64 / 1e6));
            o
        })
        .collect();
    let mut o = JsonValue::object();
    o.set("wall_ms", JsonValue::Num(p.wall_ns as f64 / 1e6))
        .set("attributed_ms", JsonValue::Num(p.self_total_ns() as f64 / 1e6))
        .set("spans", JsonValue::Array(spans));
    o
}

/// Run the canonical full-system smoke cell behind `--json` and build the
/// machine-readable report. `quick` shrinks the grid to CI scale;
/// `experiments` records which table/figure ids ran alongside it.
pub fn smoke_report(quick: bool, experiments: &[&str]) -> JsonValue {
    let mk = || {
        let mut cfg = SystemConfig::new(if quick { 2 } else { 4 }, 3);
        cfg.clients = if quick { 4 } else { 16 };
        cfg.outstanding = if quick { 8 } else { 64 };
        cfg.workload = SystemWorkload::SmallBank { accounts: 2_000, theta: 0.0 };
        cfg.duration = SimDuration::from_secs(if quick { 4 } else { 12 });
        cfg.warmup = SimDuration::from_secs(if quick { 1 } else { 3 });
        cfg.batch_size = 20;
        cfg
    };
    let report = ahl_core::run_system_report(mk());
    let mut json = system_report_json(&mk(), &report);
    json.set(
        "experiments",
        JsonValue::Array(experiments.iter().map(|e| JsonValue::Str(e.to_string())).collect()),
    );
    json.set("quick", JsonValue::Bool(quick));
    json
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_escapes_and_nests() {
        let mut o = JsonValue::object();
        o.set("s", JsonValue::Str("a\"b\\c\nd".into()))
            .set("n", JsonValue::Num(1.5))
            .set("nan", JsonValue::Num(f64::NAN))
            .set("a", JsonValue::Array(vec![JsonValue::Int(-3), JsonValue::Bool(true)]));
        let s = o.render();
        assert!(s.contains("\"a\\\"b\\\\c\\nd\""), "{s}");
        assert!(s.contains("\"n\": 1.5"), "{s}");
        assert!(s.contains("\"nan\": null"), "{s}");
        assert!(s.ends_with("}\n"), "{s}");
    }

    #[test]
    fn set_overwrites_in_place() {
        let mut o = JsonValue::object();
        o.set("k", JsonValue::Int(1)).set("k2", JsonValue::Int(2)).set("k", JsonValue::Int(9));
        assert_eq!(o.get("k"), Some(&JsonValue::Int(9)));
        match o {
            JsonValue::Object(ref pairs) => assert_eq!(pairs.len(), 2),
            _ => unreachable!(),
        }
    }

    #[test]
    fn parse_round_trips_render() {
        let mut o = JsonValue::object();
        o.set("s", JsonValue::Str("a\"b\\c\nd — π".into()))
            .set("n", JsonValue::Num(1.5))
            .set("u", JsonValue::UInt(u64::MAX))
            .set("i", JsonValue::Int(-42))
            .set("b", JsonValue::Bool(false))
            .set("z", JsonValue::Null)
            .set("a", JsonValue::Array(vec![JsonValue::Num(2e-3), JsonValue::Object(vec![])]));
        let parsed = JsonValue::parse(&o.render()).unwrap();
        assert_eq!(parsed, o);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(JsonValue::parse("{\"k\": }").is_err());
        assert!(JsonValue::parse("[1, 2").is_err());
        assert!(JsonValue::parse("{} trailing").is_err());
        assert!(JsonValue::parse("\"unterminated").is_err());
        assert!(JsonValue::parse("nul").is_err());
    }

    #[test]
    fn path_walks_nested_objects() {
        let v = JsonValue::parse(r#"{"metrics": {"tps": 123.5}, "phases": {"phase.commit_exec": {"p99_ms": 7}}}"#)
            .unwrap();
        assert_eq!(v.path("metrics/tps").and_then(JsonValue::as_f64), Some(123.5));
        assert_eq!(v.path("phases/phase.commit_exec/p99_ms").and_then(JsonValue::as_u64), Some(7));
        assert!(v.path("metrics/missing").is_none());
    }

    #[test]
    fn system_report_has_required_keys() {
        let mk = || {
            let mut cfg = SystemConfig::new(2, 3);
            cfg.clients = 4;
            cfg.outstanding = 8;
            cfg.workload = SystemWorkload::SmallBank { accounts: 1_000, theta: 0.0 };
            cfg.duration = SimDuration::from_secs(3);
            cfg.warmup = SimDuration::from_secs(1);
            cfg.batch_size = 20;
            cfg
        };
        let report = ahl_core::run_system_report(mk());
        let json = system_report_json(&mk(), &report);
        for key in REQUIRED_REPORT_KEYS {
            assert!(json.get(key).is_some(), "missing key {key}");
        }
        // Per-shard counters must be populated and sum to the global.
        let committed: u64 = match json.get("per_shard").unwrap() {
            JsonValue::Array(shards) => shards
                .iter()
                .map(|s| match s.get("committed") {
                    Some(JsonValue::UInt(v)) => *v,
                    _ => 0,
                })
                .sum(),
            _ => 0,
        };
        assert!(committed > 0, "per-shard committed counts are empty");
        // At least the core consensus transitions must have fired.
        let phases = json.get("phases").unwrap();
        assert!(phases.get("phase.commit_exec").is_some(), "no commit→exec phase data");
    }
}
