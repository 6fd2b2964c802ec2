//! Benchmark support crate.
//!
//! The benches live in `benches/`, and each writes the artifact CI gates:
//!
//! * `sweep` — the shared sweep engine, batched and incremental plans and
//!   the oracle (`BENCH_sweep.json`).
//! * `event` — the event model's steady-state fast-forward
//!   (`BENCH_event.json`).
//! * `fleet` — warm fleet throughput, cap compliance and determinism
//!   (`BENCH_fleet.json`).
//!
//! This library only hosts shared helpers so the bench files stay small:
//! [`median_secs`] (wall-clock medians) and
//! [`BenchJson`]/[`write_bench_artifact`] — the one JSON writer every
//! `BENCH_*.json` artifact goes through, replacing the hand-rolled
//! `format!` writers the sweep and event benches used to duplicate.

use std::hint::black_box;
use std::time::Instant;

/// Median of `reps` wall-clock measurements of `f`, in seconds.
pub fn median_secs<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64()
        })
        .collect();
    times.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    times[times.len() / 2]
}

/// One field value in a [`BenchJson`] document.
#[derive(Debug, Clone)]
enum JsonValue {
    /// An already-rendered scalar (string, number, or bool).
    Raw(String),
    /// An array of nested objects.
    Objects(Vec<BenchJson>),
}

/// A minimal insertion-ordered JSON object builder for `BENCH_*.json`
/// artifacts.
///
/// CI's floor checks parse these artifacts with a strict JSON parser, and
/// before this helper existed every bench hand-rolled its own `format!`
/// writer — with its own trailing-comma bug surface. The builder keeps
/// fields in insertion order, renders with two-space indentation, and
/// refuses to emit invalid JSON (non-finite floats become `null`).
#[derive(Debug, Clone, Default)]
pub struct BenchJson {
    entries: Vec<(String, JsonValue)>,
}

impl BenchJson {
    /// An empty object.
    pub fn object() -> Self {
        Self::default()
    }

    fn push(mut self, key: &str, value: JsonValue) -> Self {
        self.entries.push((key.to_string(), value));
        self
    }

    /// Appends a string field (escaped).
    pub fn field_str(self, key: &str, value: &str) -> Self {
        let mut escaped = String::with_capacity(value.len() + 2);
        escaped.push('"');
        for c in value.chars() {
            match c {
                '"' => escaped.push_str("\\\""),
                '\\' => escaped.push_str("\\\\"),
                '\n' => escaped.push_str("\\n"),
                c if (c as u32) < 0x20 => escaped.push_str(&format!("\\u{:04x}", c as u32)),
                c => escaped.push(c),
            }
        }
        escaped.push('"');
        self.push(key, JsonValue::Raw(escaped))
    }

    /// Appends an integer field.
    pub fn field_int(self, key: &str, value: u64) -> Self {
        self.push(key, JsonValue::Raw(value.to_string()))
    }

    /// Appends a float field rendered with `decimals` fraction digits.
    /// Non-finite values render as `null` — `inf`/`NaN` are not JSON.
    pub fn field_f64(self, key: &str, value: f64, decimals: usize) -> Self {
        let raw = if value.is_finite() {
            format!("{value:.decimals$}")
        } else {
            "null".to_string()
        };
        self.push(key, JsonValue::Raw(raw))
    }

    /// Appends a boolean field.
    pub fn field_bool(self, key: &str, value: bool) -> Self {
        self.push(key, JsonValue::Raw(value.to_string()))
    }

    /// Appends an array-of-objects field.
    pub fn field_objects(self, key: &str, items: Vec<BenchJson>) -> Self {
        self.push(key, JsonValue::Objects(items))
    }

    fn render(&self, indent: usize, out: &mut String) {
        let pad = "  ".repeat(indent);
        let inner = "  ".repeat(indent + 1);
        out.push_str("{\n");
        for (i, (key, value)) in self.entries.iter().enumerate() {
            out.push_str(&inner);
            out.push('"');
            out.push_str(key);
            out.push_str("\": ");
            match value {
                JsonValue::Raw(raw) => out.push_str(raw),
                JsonValue::Objects(items) => {
                    if items.is_empty() {
                        out.push_str("[]");
                    } else {
                        out.push_str("[\n");
                        let item_pad = "  ".repeat(indent + 2);
                        for (j, item) in items.iter().enumerate() {
                            out.push_str(&item_pad);
                            item.render(indent + 2, out);
                            if j + 1 < items.len() {
                                out.push(',');
                            }
                            out.push('\n');
                        }
                        out.push_str(&inner);
                        out.push(']');
                    }
                }
            }
            if i + 1 < self.entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str(&pad);
        out.push('}');
    }

    /// Renders the document (trailing newline included).
    pub fn finish(&self) -> String {
        let mut out = String::new();
        self.render(0, &mut out);
        out.push('\n');
        out
    }
}

/// Writes a rendered [`BenchJson`] document to `BENCH_<name>.json` at the
/// repository root (the path CI uploads and floor-checks), returning the
/// path written.
pub fn write_bench_artifact(name: &str, json: &str) -> String {
    let path = format!(
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_{}.json"),
        name
    );
    std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {path}: {e}"));
    println!("wrote {path}");
    path
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_renders_ordered_nested_json() {
        let json = BenchJson::object()
            .field_str("bench", "demo")
            .field_int("configs", 448)
            .field_f64("ms", 1.23456, 3)
            .field_f64("bad", f64::INFINITY, 2)
            .field_bool("ok", true)
            .field_objects(
                "kernels",
                vec![
                    BenchJson::object().field_str("name", "a \"quoted\" one"),
                    BenchJson::object().field_int("n", 2),
                ],
            )
            .finish();
        let expected = concat!(
            "{\n",
            "  \"bench\": \"demo\",\n",
            "  \"configs\": 448,\n",
            "  \"ms\": 1.235,\n",
            "  \"bad\": null,\n",
            "  \"ok\": true,\n",
            "  \"kernels\": [\n",
            "    {\n",
            "      \"name\": \"a \\\"quoted\\\" one\"\n",
            "    },\n",
            "    {\n",
            "      \"n\": 2\n",
            "    }\n",
            "  ]\n",
            "}\n",
        );
        assert_eq!(json, expected);
    }

    #[test]
    fn empty_object_and_empty_array_are_valid() {
        assert_eq!(BenchJson::object().finish(), "{\n}\n");
        assert_eq!(
            BenchJson::object().field_objects("xs", vec![]).finish(),
            "{\n  \"xs\": []\n}\n"
        );
    }
}
