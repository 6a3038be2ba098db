//! Hand-rolled JSON document builder for the `BENCH_*.json` emitters
//! (no external dependencies — tier-1 stays offline).
//!
//! Every experiment that writes a machine-readable payload goes through
//! [`JsonDoc`], so all `BENCH_*.json` files share one top-level shape:
//!
//! ```json
//! {
//!   "schema": "ticc-bench-v2",
//!   "<experiment>": { ... },
//!   "host": { "available_parallelism": 2 }
//! }
//! ```
//!
//! The `schema` field is the shared format version
//! ([`SCHEMA_VERSION`]); bump it when any emitter changes shape, so
//! downstream consumers of the CI artifacts can dispatch on one field
//! instead of sniffing per-experiment keys.

/// Shared format version stamped into every `BENCH_*.json` payload.
pub const SCHEMA_VERSION: &str = "ticc-bench-v2";

/// An ordered set of top-level sections, rendered as one JSON object
/// with the schema version first.
#[derive(Default)]
pub struct JsonDoc {
    sections: Vec<(String, String)>,
}

impl JsonDoc {
    /// An empty document (just the schema-version field).
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a top-level section. `value` must be rendered JSON (an
    /// object, array, string, or number) — the builder only handles
    /// the commas and the envelope.
    pub fn section(&mut self, key: &str, value: impl Into<String>) -> &mut Self {
        self.sections.push((key.to_owned(), value.into()));
        self
    }

    /// The document as a JSON string.
    pub fn render(&self) -> String {
        let mut s = format!("{{\n  \"schema\": \"{SCHEMA_VERSION}\"");
        for (key, value) in &self.sections {
            s.push_str(&format!(",\n  \"{key}\": {value}"));
        }
        s.push_str("\n}\n");
        s
    }

    /// Writes the rendered document to `path`.
    pub fn write(&self, path: &str) {
        std::fs::write(path, self.render()).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
    }
}

/// Renders a JSON string value (the keys the emitters use are plain
/// ASCII identifiers; only quotes and backslashes need escaping).
pub fn string(v: &str) -> String {
    format!("\"{}\"", v.replace('\\', "\\\\").replace('"', "\\\""))
}

/// Renders the `host` section every emitter stamps into its envelope:
/// the machine parallelism, without which the headline numbers cannot
/// be compared across machines.
pub fn host_section() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!("{{\"available_parallelism\": {cores}}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_schema_first_and_sections_in_order() {
        let mut doc = JsonDoc::new();
        doc.section("e99", "{\"x\": 1}");
        doc.section("host", host_section());
        let s = doc.render();
        assert!(s.starts_with(&format!("{{\n  \"schema\": \"{SCHEMA_VERSION}\"")));
        let e99 = s.find("\"e99\"").unwrap();
        let host = s.find("\"host\"").unwrap();
        assert!(e99 < host);
        assert!(s.ends_with("}\n"));
    }

    #[test]
    fn empty_document_is_valid() {
        let s = JsonDoc::new().render();
        assert_eq!(s, format!("{{\n  \"schema\": \"{SCHEMA_VERSION}\"\n}}\n"));
    }

    #[test]
    fn string_escapes_quotes() {
        assert_eq!(string("a\"b"), "\"a\\\"b\"");
    }

    #[test]
    fn host_section_reports_parallelism() {
        let h = host_section();
        assert!(h.starts_with("{\"available_parallelism\": "), "{h}");
        assert!(!h.contains("threads"), "{h}");
        assert!(h.ends_with('}'), "{h}");
    }
}
