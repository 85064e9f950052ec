//! Minimal JSON emission for machine-readable artifacts.
//!
//! The workspace is hermetic (no serde), so trace dumps (and the repo
//! benchmark's result lines) serialize through this hand-rolled value
//! tree. Emission only.
//!
//! Object keys keep insertion order, so output is byte-deterministic for
//! a fixed sequence of `push` calls.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// An integer (serialized without a decimal point).
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float; non-finite values serialize as `null` (JSON has no NaN).
    Num(f64),
    /// A string (escaped on write).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Appends `key: value` to an object; panics on non-objects.
    pub fn push(&mut self, key: &str, value: impl Into<Json>) -> &mut Self {
        match self {
            Json::Obj(pairs) => pairs.push((key.to_string(), value.into())),
            other => panic!("push on non-object Json: {other:?}"),
        }
        self
    }

    /// Serializes with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => {
                let _ = write!(out, "{i}");
            }
            Json::UInt(u) => {
                let _ = write!(out, "{u}");
            }
            Json::Num(x) => {
                if x.is_finite() {
                    let _ = write!(out, "{x}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
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
                    pad(out, indent + 1);
                    item.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(pairs) => {
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
                    pad(out, indent + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
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
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// The cache hierarchy the perfmon model simulates, as reported in
/// trace headers: detected from sysfs, or the paper machine's Skylake
/// constants when detection fails (`source` says which).
pub(crate) fn cache_geometry_json() -> Json {
    let g = perfmon::cache::geometry();
    let mut o = Json::obj();
    o.push("source", g.source);
    o.push("line_bytes", perfmon::cache::LINE_BYTES);
    o.push("l1_bytes", g.l1.bytes);
    o.push("l1_ways", g.l1.ways);
    o.push("l2_bytes", g.l2.bytes);
    o.push("l2_ways", g.l2.ways);
    o.push("l3_bytes", g.l3.bytes);
    o.push("l3_ways", g.l3.ways);
    o
}

/// Serializes a full trace — every op, loop and delta span in completion
/// order — as the documented dump schema (`graph-api-study/trace/v8`).
///
/// The header carries the schema string, the `cache_geometry` the perfmon
/// model simulates (the hierarchy the machine reported through sysfs, or
/// the Skylake fallback) and the ring's `dropped` count; `events` holds
/// the spans. v8 is v7 without the delta span's `repair_frontier`
/// field.
pub fn trace_json(trace: &perfmon::trace::Trace) -> Json {
    use perfmon::trace::Event;
    let mut events = Vec::new();
    for e in &trace.events {
        let mut o = Json::obj();
        match e {
            Event::Op(s) => {
                o.push("event", "op");
                o.push("seq", s.seq);
                o.push("backend", s.backend);
                o.push("op", s.kind.name());
                o.push("input_nnz", s.input_nnz);
                o.push("output_nnz", s.output_nnz);
                o.push("mask", s.mask.name());
                o.push("mask_complement", s.mask_complement);
                o.push("replace", s.replace);
                o.push("materialized_bytes", s.materialized_bytes);
                o.push("kernel", s.kernel.name());
                o.push("accumulator_bytes", s.accumulator_bytes);
                o.push("frontier_degree", s.frontier_degree);
                o.push("matrix_nnz", s.matrix_nnz);
                o.push("mask_admitted", s.mask_admitted);
                o.push("ws_reused_bytes", s.ws_reused_bytes);
                o.push("ws_fresh_bytes", s.ws_fresh_bytes);
                o.push("flops", s.flops);
                o.push("chunks", s.chunks);
                o.push("alloc_bytes", s.alloc_bytes);
                o.push("elapsed_ns", s.elapsed_ns);
            }
            Event::Loop(s) => {
                o.push("event", "loop");
                o.push("seq", s.seq);
                o.push("loop", s.kind.name());
                o.push("iterations", s.iterations);
                o.push("steals", s.steals);
                o.push("rounds", s.rounds);
                o.push("bucket_visits", s.bucket_visits);
                o.push("threads", s.threads);
                o.push("elapsed_ns", s.elapsed_ns);
            }
            Event::Delta(s) => {
                o.push("event", "delta");
                o.push("seq", s.seq);
                o.push("kind", s.kind.name());
                o.push("delta_nnz", s.delta_nnz);
                o.push("layers", s.layers);
                o.push("touched", s.touched);
                o.push("elapsed_ns", s.elapsed_ns);
            }
        }
        events.push(o);
    }
    let mut doc = Json::obj();
    doc.push("schema", "graph-api-study/trace/v8");
    doc.push("cache_geometry", cache_geometry_json());
    doc.push("dropped", trace.dropped);
    doc.push("events", events);
    doc
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<i64> for Json {
    fn from(i: i64) -> Json {
        Json::Int(i)
    }
}

impl From<u64> for Json {
    fn from(u: u64) -> Json {
        Json::UInt(u)
    }
}

impl From<usize> for Json {
    fn from(u: usize) -> Json {
        Json::UInt(u as u64)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::Num(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl From<Vec<Json>> for Json {
    fn from(items: Vec<Json>) -> Json {
        Json::Arr(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_serialize() {
        assert_eq!(Json::Null.pretty(), "null\n");
        assert_eq!(Json::from(true).pretty(), "true\n");
        assert_eq!(Json::from(-3i64).pretty(), "-3\n");
        assert_eq!(Json::from(7u64).pretty(), "7\n");
        assert_eq!(Json::from(1.5).pretty(), "1.5\n");
        assert_eq!(Json::Num(f64::NAN).pretty(), "null\n");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(
            Json::from("a\"b\\c\nd\u{1}").pretty(),
            "\"a\\\"b\\\\c\\nd\\u0001\"\n"
        );
    }

    #[test]
    fn nested_object_round_trips_through_python_syntax() {
        let mut o = Json::obj();
        o.push("schema", "test/v1");
        o.push("count", 2u64);
        o.push("items", vec![Json::from(1i64), Json::from("x")]);
        let mut inner = Json::obj();
        inner.push("ok", true);
        o.push("inner", inner);
        let s = o.pretty();
        assert!(s.starts_with("{\n"));
        assert!(s.contains("\"schema\": \"test/v1\""));
        assert!(s.contains("\"items\": [\n"));
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().pretty(), "{}\n");
        assert_eq!(Json::Arr(Vec::new()).pretty(), "[]\n");
    }

    #[test]
    fn trace_json_emits_both_event_kinds() {
        use perfmon::trace::{
            DeltaKind, DeltaSpan, Event, KernelChoice, LoopKind, LoopSpan, MaskMode, OpKind,
            OpSpan, Trace,
        };
        let trace = Trace {
            events: vec![
                Event::Op(OpSpan {
                    seq: 0,
                    backend: "GB",
                    kind: OpKind::Vxm,
                    input_nnz: 3,
                    output_nnz: 4,
                    mask: MaskMode::Value,
                    mask_complement: true,
                    replace: true,
                    materialized_bytes: 64,
                    kernel: KernelChoice::PushSparse,
                    accumulator_bytes: 48,
                    frontier_degree: 9,
                    matrix_nnz: 20,
                    mask_admitted: 4,
                    ws_reused_bytes: 32,
                    ws_fresh_bytes: 16,
                    flops: 12,
                    chunks: 2,
                    alloc_bytes: 8,
                    elapsed_ns: 100,
                }),
                Event::Loop(LoopSpan {
                    seq: 1,
                    kind: LoopKind::DoAll,
                    iterations: 10,
                    steals: 0,
                    rounds: 1,
                    bucket_visits: 0,
                    threads: 2,
                    elapsed_ns: 50,
                }),
                Event::Delta(DeltaSpan {
                    seq: 2,
                    kind: DeltaKind::Compact,
                    delta_nnz: 7,
                    layers: 0,
                    touched: 5,
                    elapsed_ns: 25,
                }),
            ],
            dropped: 0,
        };
        let s = trace_json(&trace).pretty();
        assert!(s.contains("\"schema\": \"graph-api-study/trace/v8\""));
        assert!(s.contains("\"cache_geometry\""));
        assert!(s.contains("\"l1_bytes\""));
        assert!(s.contains("\"event\": \"delta\""));
        assert!(s.contains("\"kind\": \"compact\""));
        assert!(s.contains("\"delta_nnz\": 7"));
        assert!(
            !s.contains("repair_frontier"),
            "v8 delta spans carry no repair field"
        );
        assert!(s.contains("\"ws_reused_bytes\": 32"));
        assert!(s.contains("\"flops\": 12"));
        assert!(s.contains("\"alloc_bytes\": 8"));
        assert!(s.contains("\"op\": \"vxm\""));
        assert!(s.contains("\"mask\": \"value\""));
        assert!(s.contains("\"kernel\": \"push_sparse\""));
        assert!(s.contains("\"accumulator_bytes\": 48"));
        assert!(s.contains("\"frontier_degree\": 9"));
        assert!(s.contains("\"loop\": \"do_all\""));
    }

    #[test]
    fn key_order_is_insertion_order() {
        let mut o = Json::obj();
        o.push("z", 1u64);
        o.push("a", 2u64);
        let s = o.pretty();
        assert!(s.find("\"z\"").unwrap() < s.find("\"a\"").unwrap());
    }
}
