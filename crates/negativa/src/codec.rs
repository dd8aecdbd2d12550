//! A minimal, dependency-free JSON codec shared by the artifact
//! store's on-disk formats ([`crate::manifest`]) and the façade's
//! bench-report schema (`negativa_repro::bench`).
//!
//! The workspace is offline by design, so this is a strict
//! recursive-descent reader and a deterministic writer for the JSON
//! subset the repository's artifacts actually use: objects (with
//! insertion-ordered keys), arrays, strings, numbers, booleans, and
//! `null`. Parsing rejects duplicate keys, unknown escapes, and
//! trailing garbage — an artifact either round-trips exactly or fails
//! loudly.
//!
//! The reader is linear in the document: each input byte is examined a
//! bounded number of times (a string's unescaped runs are found with
//! one scan and copied as whole slices), and each object's keys are
//! checked for duplicates in O(k log k) once it closes. Every manifest,
//! plan, index and bench record goes through it, including documents a
//! peer sent over the wire, so no document of up to one full frame
//! ([`crate::net::MAX_FRAME_PAYLOAD`]) can stall its reader.
//!
//! 64-bit identity values (content hashes, checksums, fingerprints,
//! nanosecond counters) do **not** fit a JSON `f64` losslessly, so they
//! are carried as fixed-width hex strings via [`JsonValue::u64`] /
//! [`JsonValue::as_u64`].

use std::fmt::Write as _;

/// One JSON value: the document tree of a manifest or report.
#[derive(Debug, Clone, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A JSON number. Only used for values that fit an `f64` exactly
    /// (counts, small sizes, ratios); 64-bit identities go through
    /// [`JsonValue::u64`] instead.
    Number(f64),
    /// A string.
    Text(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object; insertion order is preserved by render and parse, so
    /// encode → decode → encode is byte-stable.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Encode a `u64` losslessly as a fixed-width hex string
    /// (`"0x00000000000000ab"`), the workspace's display convention for
    /// checksums and hashes.
    pub fn u64(value: u64) -> JsonValue {
        JsonValue::Text(format!("{value:#018x}"))
    }

    /// Shorthand for an exact small integer (counts, indices).
    pub fn int(value: u64) -> JsonValue {
        JsonValue::Number(value as f64)
    }

    /// Decode a value written by [`JsonValue::u64`] — or a plain
    /// non-negative integral number — back to a `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            JsonValue::Text(s) => {
                let hex = s.strip_prefix("0x")?;
                u64::from_str_radix(hex, 16).ok()
            }
            JsonValue::Number(n) if n.fract() == 0.0 && *n >= 0.0 && *n < 2f64.powi(53) => {
                Some(*n as u64)
            }
            _ => None,
        }
    }

    /// The number, if this is a [`JsonValue::Number`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The value as a `usize`, if it is an exact non-negative integer.
    pub fn as_usize(&self) -> Option<usize> {
        self.as_f64().filter(|n| n.fract() == 0.0 && *n >= 0.0).map(|n| n as usize)
    }

    /// The string, if this is a [`JsonValue::Text`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::Text(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is a [`JsonValue::Array`].
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The key/value pairs, if this is a [`JsonValue::Object`].
    pub fn as_object(&self) -> Option<&[(String, JsonValue)]> {
        match self {
            JsonValue::Object(pairs) => Some(pairs),
            _ => None,
        }
    }

    /// Member lookup on an object (`None` for other variants or missing
    /// keys).
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        self.as_object()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Render the value as pretty-printed JSON (two-space indent,
    /// key order preserved, no trailing newline). Integral numbers
    /// print without a decimal point; other numbers print in Rust's
    /// shortest round-trip form.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out, 0);
        out
    }

    fn render_into(&self, out: &mut String, depth: usize) {
        match self {
            JsonValue::Null => out.push_str("null"),
            JsonValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            JsonValue::Number(n) if n.fract() == 0.0 && n.abs() < 1e15 => {
                let _ = write!(out, "{}", *n as i64);
            }
            JsonValue::Number(n) if !n.is_finite() => {
                // JSON has no NaN/Infinity. Rendering the Rust debug
                // form would produce a file *no* parser — including this
                // module's — accepts; `null` keeps the document valid
                // and surfaces as a typed mistyped-field error at decode
                // time instead of unreadable garbage.
                out.push_str("null");
            }
            JsonValue::Number(n) => {
                let _ = write!(out, "{n}");
            }
            JsonValue::Text(s) => render_string(out, s),
            JsonValue::Array(items) if items.is_empty() => out.push_str("[]"),
            JsonValue::Array(items) => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    indent(out, depth + 1);
                    item.render_into(out, depth + 1);
                    out.push_str(if i + 1 == items.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push(']');
            }
            JsonValue::Object(pairs) if pairs.is_empty() => out.push_str("{}"),
            JsonValue::Object(pairs) => {
                out.push_str("{\n");
                for (i, (key, value)) in pairs.iter().enumerate() {
                    indent(out, depth + 1);
                    render_string(out, key);
                    out.push_str(": ");
                    value.render_into(out, depth + 1);
                    out.push_str(if i + 1 == pairs.len() { "\n" } else { ",\n" });
                }
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parse one JSON document. Rejects duplicate object keys (at
    /// every nesting level), unsupported escapes, trailing garbage,
    /// and containers nested deeper than [`MAX_PARSE_DEPTH`] (the
    /// recursive-descent parser uses the call stack, so unbounded
    /// nesting in a hostile document would otherwise overflow it).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first syntax violation (a
    /// duplicate key counts once its object has closed).
    pub fn parse(input: &str) -> Result<JsonValue, String> {
        let mut cursor = Cursor::new(input);
        cursor.skip_ws();
        let value = cursor.parse_value()?;
        cursor.skip_ws();
        if cursor.at != cursor.bytes.len() {
            return Err(format!("trailing garbage after the document at byte {}", cursor.at));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn render_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            // RFC 8259 forbids raw control characters in strings.
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            _ => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest container nesting [`JsonValue::parse`] accepts. Every
/// format this crate reads (manifests, plans, bench records) stays in
/// single digits; the bound exists so a hostile or corrupt document
/// fails with a typed error instead of exhausting the parser's call
/// stack.
pub const MAX_PARSE_DEPTH: usize = 64;

struct Cursor<'a> {
    text: &'a str,
    /// `text` as bytes; `at` indexes both.
    bytes: &'a [u8],
    at: usize,
    /// Containers currently open ([`MAX_PARSE_DEPTH`]-bounded).
    depth: usize,
}

impl<'a> Cursor<'a> {
    fn new(text: &'a str) -> Cursor<'a> {
        Cursor { text, bytes: text.as_bytes(), at: 0, depth: 0 }
    }

    fn descend(&mut self) -> Result<(), String> {
        self.depth += 1;
        if self.depth > MAX_PARSE_DEPTH {
            return Err(format!(
                "containers nested deeper than {MAX_PARSE_DEPTH} levels at byte {}",
                self.at
            ));
        }
        Ok(())
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.at).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn expect(&mut self, wanted: u8) -> Result<(), String> {
        if self.peek() == Some(wanted) {
            self.at += 1;
            Ok(())
        } else {
            Err(format!(
                "expected {:?} at byte {}, found {:?}",
                wanted as char,
                self.at,
                self.peek().map(|b| b as char)
            ))
        }
    }

    fn eat_keyword(&mut self, word: &str) -> bool {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn parse_value(&mut self) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'"') => Ok(JsonValue::Text(self.parse_string()?)),
            Some(b'{') => self.parse_object(),
            Some(b'[') => self.parse_array(),
            Some(b'n') if self.eat_keyword("null") => Ok(JsonValue::Null),
            Some(b't') if self.eat_keyword("true") => Ok(JsonValue::Bool(true)),
            Some(b'f') if self.eat_keyword("false") => Ok(JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                Ok(JsonValue::Number(self.parse_number()?))
            }
            other => Err(format!("expected a JSON value at byte {}, found {other:?}", self.at)),
        }
    }

    fn parse_object(&mut self) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        self.descend()?;
        let mut pairs: Vec<(String, JsonValue)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Object(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.parse_value()?;
            pairs.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b'}') => {
                    self.at += 1;
                    self.depth -= 1;
                    if let Some(key) = first_duplicate_key(&pairs) {
                        return Err(format!("duplicate key {key:?}"));
                    }
                    return Ok(JsonValue::Object(pairs));
                }
                other => return Err(format!("expected ',' or '}}' after a pair, found {other:?}")),
            }
        }
    }

    fn parse_array(&mut self) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        self.descend()?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.at += 1;
            self.depth -= 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.at += 1,
                Some(b']') => {
                    self.at += 1;
                    self.depth -= 1;
                    return Ok(JsonValue::Array(items));
                }
                other => {
                    return Err(format!("expected ',' or ']' after an element, found {other:?}"))
                }
            }
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let start = self.at;
        let mut out = String::new();
        loop {
            // Copy the run up to the next `"` or `\` as one slice. Both
            // delimiters are ASCII, so the run ends on a char boundary.
            let Some(run) = self.bytes[self.at..].iter().position(|&b| b == b'"' || b == b'\\')
            else {
                return Err(format!("unterminated string starting at byte {start}"));
            };
            out.push_str(&self.text[self.at..self.at + run]);
            self.at += run + 1;
            if self.bytes[self.at - 1] == b'"' {
                return Ok(out);
            }
            match self.peek() {
                Some(b'"') => {
                    out.push('"');
                    self.at += 1;
                }
                Some(b'\\') => {
                    out.push('\\');
                    self.at += 1;
                }
                Some(b'u') => {
                    self.at += 1;
                    out.push(self.parse_unicode_escape()?);
                }
                other => return Err(format!("unsupported escape {other:?} in string")),
            }
        }
    }

    /// The four hex digits after `\u` (only emitted by the renderer for
    /// control characters, but any non-surrogate BMP scalar is
    /// accepted).
    fn parse_unicode_escape(&mut self) -> Result<char, String> {
        let start = self.at;
        let Some(hex) = self.bytes.get(self.at..self.at + 4) else {
            return Err(format!("truncated \\u escape at byte {start}"));
        };
        self.at += 4;
        let hex =
            std::str::from_utf8(hex).map_err(|_| format!("bad \\u escape at byte {start}"))?;
        let code = u32::from_str_radix(hex, 16)
            .map_err(|_| format!("bad \\u escape {hex:?} at byte {start}"))?;
        char::from_u32(code)
            .ok_or_else(|| format!("\\u{hex} is not a Unicode scalar (byte {start})"))
    }

    fn parse_number(&mut self) -> Result<f64, String> {
        let start = self.at;
        while matches!(self.peek(), Some(b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')) {
            self.at += 1;
        }
        let text = &self.text[start..self.at];
        text.parse::<f64>().map_err(|e| format!("bad number {text:?} at byte {start}: {e}"))
    }
}

/// The first key, in document order, that repeats an earlier key of
/// the same object. Sorting (key, position) pairs puts every repeat
/// right after an equal key, so this costs O(k log k) for k keys.
fn first_duplicate_key(pairs: &[(String, JsonValue)]) -> Option<&str> {
    let mut keys: Vec<(&str, usize)> =
        pairs.iter().enumerate().map(|(i, (key, _))| (key.as_str(), i)).collect();
    keys.sort_unstable();
    keys.windows(2).filter(|w| w[0].0 == w[1].0).map(|w| w[1].1).min().map(|i| pairs[i].0.as_str())
}

/// The content hash behind the artifact store's addressing: object
/// names, `plan_hash`, `manifest_hash`, and the bundle fingerprint that
/// keys the verification memo. Independent of
/// [`simml::namegen::stable_hash`] (which folds *strings* with
/// separators); this one hashes exact byte streams.
///
/// What it guarantees:
///
/// * **Bit-sensitivity.** For inputs of equal length the digest is a
///   bijective function of each aligned 8-byte word with the others
///   held fixed, so any change confined to one word — in particular
///   every single-bit flip — changes the digest.
/// * **Length is folded in**, so trailing zero bytes are not lost in
///   the zero-padded last word.
/// * **Platform-independent.** Input is read as little-endian `u64`
///   words, so a file's name is the same on every host.
///
/// The body reads 32-byte stripes into four independent
/// multiply-rotate lanes (a dependency chain per lane, not per byte),
/// merges the lanes, folds in the length and the trailing words, and
/// finishes with an invertible xor-shift/multiply mix. The lane step,
/// the primes and the final mix are xxHash64's; the lane merge and the
/// tail fold are not, so digests are not xxHash64 values. It is a
/// checksum against corruption and accidental collisions, not a
/// cryptographic digest.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut hash = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            lanes[0] = lane_round(lanes[0], le_word(&stripe[..8]));
            lanes[1] = lane_round(lanes[1], le_word(&stripe[8..16]));
            lanes[2] = lane_round(lanes[2], le_word(&stripe[16..24]));
            lanes[3] = lane_round(lanes[3], le_word(&stripe[24..]));
        }
        lanes.iter().fold(0, |hash, &lane| fold_word(hash, lane))
    } else {
        P5
    };
    hash = hash.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for word in &mut words {
        hash = fold_word(hash, le_word(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        let mut padded = [0u8; 8];
        padded[..tail.len()].copy_from_slice(tail);
        hash = fold_word(hash, u64::from_le_bytes(padded));
    }
    hash ^= hash >> 33;
    hash = hash.wrapping_mul(P2);
    hash ^= hash >> 29;
    hash = hash.wrapping_mul(P3);
    hash ^ (hash >> 32)
}

const P1: u64 = 0x9e37_79b1_85eb_ca87;
const P2: u64 = 0xc2b2_ae3d_27d4_eb4f;
const P3: u64 = 0x1656_67b1_9e37_79f9;
const P4: u64 = 0x85eb_ca77_c2b2_ae63;
const P5: u64 = 0x27d4_eb2f_1656_67c5;

/// One lane step. Odd multipliers and a rotation make it a bijection in
/// `acc` for a fixed `word` and in `word` for a fixed `acc`. The word is
/// multiplied before it is added so that a sparse change to it reaches
/// the lane as a dense one; adding raw words lets pairs of bit flips
/// collide.
fn lane_round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2)).rotate_left(31).wrapping_mul(P1)
}

/// Fold one lane or trailing word into the running hash; bijective in
/// each argument with the other fixed, like [`lane_round`].
fn fold_word(hash: u64, word: u64) -> u64 {
    (hash ^ lane_round(0, word)).rotate_left(27).wrapping_mul(P1).wrapping_add(P4)
}

fn le_word(word: &[u8]) -> u64 {
    u64::from_le_bytes(word.try_into().expect("8-byte word"))
}

#[cfg(test)]
mod tests {
    use std::time::{Duration, Instant};

    use super::*;

    fn sample() -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::Text("lib \"x\".so".into())),
            ("count".into(), JsonValue::int(42)),
            ("ratio".into(), JsonValue::Number(2.5)),
            ("hash".into(), JsonValue::u64(u64::MAX - 1)),
            ("flag".into(), JsonValue::Bool(true)),
            ("hole".into(), JsonValue::Null),
            ("empty".into(), JsonValue::Array(Vec::new())),
            (
                "ranges".into(),
                JsonValue::Array(vec![JsonValue::Object(vec![
                    ("start".into(), JsonValue::u64(0)),
                    ("end".into(), JsonValue::u64(4096)),
                ])]),
            ),
        ])
    }

    #[test]
    fn render_parse_round_trips_byte_stable() {
        let doc = sample();
        let text = doc.render();
        let parsed = JsonValue::parse(&text).expect("rendered output parses");
        assert_eq!(parsed, doc);
        assert_eq!(parsed.render(), text, "encode -> decode -> encode is byte-stable");
    }

    #[test]
    fn u64_values_survive_beyond_f64_precision() {
        for v in [0u64, 1, (1 << 53) + 1, u64::MAX] {
            let text = JsonValue::u64(v).render();
            let back = JsonValue::parse(&text).unwrap().as_u64().expect("hex u64 decodes");
            assert_eq!(back, v, "u64 {v:#x} must round-trip exactly");
        }
        // Plain small integers decode too.
        assert_eq!(JsonValue::int(7).as_u64(), Some(7));
        assert_eq!(JsonValue::Number(1.5).as_u64(), None);
        assert_eq!(JsonValue::Text("not hex".into()).as_u64(), None);
    }

    #[test]
    fn object_accessors_navigate_the_tree() {
        let doc = sample();
        assert_eq!(doc.get("count").and_then(JsonValue::as_usize), Some(42));
        assert_eq!(doc.get("ratio").and_then(JsonValue::as_f64), Some(2.5));
        assert_eq!(doc.get("name").and_then(JsonValue::as_str), Some("lib \"x\".so"));
        assert!(doc.get("missing").is_none());
        let ranges = doc.get("ranges").and_then(JsonValue::as_array).unwrap();
        assert_eq!(ranges[0].get("end").and_then(JsonValue::as_u64), Some(4096));
    }

    #[test]
    fn malformed_documents_are_rejected_not_misread() {
        assert!(JsonValue::parse("").is_err());
        assert!(JsonValue::parse("{\"a\": 1").is_err(), "unterminated object");
        assert!(JsonValue::parse("{\"a\": 1} tail").is_err(), "trailing garbage");
        assert!(JsonValue::parse("{\"a\": 1, \"a\": 2}").is_err(), "duplicate keys");
        assert!(JsonValue::parse("{\"a\": 12notanumber}").is_err());
        assert!(JsonValue::parse("[1, 2,]").is_err(), "trailing comma");
        assert!(JsonValue::parse("{\"a\": \"\\n\"}").is_err(), "unsupported escape");
        assert!(JsonValue::parse("nul").is_err(), "truncated keyword");
    }

    #[test]
    fn duplicate_keys_are_rejected_inside_nested_objects() {
        let err = JsonValue::parse("{\"outer\": {\"dup\": 1, \"dup\": 2}}").unwrap_err();
        assert!(err.contains("dup"), "error names the offending key: {err}");
        let err = JsonValue::parse("[{\"a\": 0}, {\"k\": {\"k2\": 1, \"k2\": 2}}]").unwrap_err();
        assert!(err.contains("k2"), "rejection applies at every nesting level: {err}");
        // Same key at *different* levels is legal.
        JsonValue::parse("{\"k\": {\"k\": 1}}").expect("shadowing across levels is fine");
    }

    #[test]
    fn nesting_depth_is_bounded() {
        let deep = |n: usize| format!("{}0{}", "[".repeat(n), "]".repeat(n));
        JsonValue::parse(&deep(MAX_PARSE_DEPTH)).expect("nesting at the bound parses");
        let err = JsonValue::parse(&deep(MAX_PARSE_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nested deeper"), "{err}");
        // Mixed object/array nesting counts against the same budget.
        let mixed =
            format!("{}0{}", "{\"k\": [".repeat(MAX_PARSE_DEPTH), "]}".repeat(MAX_PARSE_DEPTH));
        assert!(JsonValue::parse(&mixed).is_err(), "2x the bound via mixed containers");
        // Siblings do not accumulate: depth is current nesting, not totals.
        let wide = format!("[{}]", vec!["[0]"; MAX_PARSE_DEPTH * 2].join(", "));
        JsonValue::parse(&wide).expect("many shallow siblings parse");
    }

    #[test]
    fn nested_and_unicode_content_round_trips() {
        let text = "{\"label\": \"PyTorch/Träin/MobileNetV2\", \"nest\": [[1, 2], {\"x\": null}]}";
        let doc = JsonValue::parse(text).unwrap();
        assert_eq!(doc.get("label").and_then(JsonValue::as_str), Some("PyTorch/Träin/MobileNetV2"));
        let rendered = doc.render();
        assert_eq!(JsonValue::parse(&rendered).unwrap(), doc);
    }

    #[test]
    fn control_characters_escape_and_round_trip() {
        let doc = JsonValue::Text("line1\nline2\ttab\u{1}".into());
        let text = doc.render();
        assert!(!text.bytes().any(|b| b < 0x20), "no raw control bytes in rendered JSON: {text:?}");
        assert!(text.contains("\\u000a") && text.contains("\\u0009"), "{text}");
        assert_eq!(JsonValue::parse(&text).unwrap(), doc);
        // Arbitrary \u escapes decode too; invalid ones are rejected.
        assert_eq!(JsonValue::parse("\"\\u0041\"").unwrap(), JsonValue::Text("A".into()));
        assert!(JsonValue::parse("\"\\u12\"").is_err(), "truncated escape");
        assert!(JsonValue::parse("\"\\ud800\"").is_err(), "lone surrogate");
    }

    #[test]
    fn non_finite_numbers_render_as_null_never_invalid_json() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let text = JsonValue::Number(bad).render();
            assert_eq!(text, "null", "JSON cannot carry {bad}");
            JsonValue::parse(&text).expect("the fallback stays parseable");
        }
    }

    /// The string scan the reader used before it became linear: one
    /// UTF-8 scalar per step, decoded by re-validating the whole unread
    /// rest of the document. Quadratic in the document, so fit only for
    /// small inputs; kept as the oracle the linear scan must agree with.
    fn per_char_parse_string(cursor: &mut Cursor) -> Result<String, String> {
        cursor.expect(b'"')?;
        let start = cursor.at;
        let mut out = String::new();
        loop {
            match cursor.peek() {
                Some(b'"') => {
                    cursor.at += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    cursor.at += 1;
                    match cursor.peek() {
                        Some(b'"') => {
                            out.push('"');
                            cursor.at += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            cursor.at += 1;
                        }
                        Some(b'u') => {
                            cursor.at += 1;
                            out.push(cursor.parse_unicode_escape()?);
                        }
                        other => return Err(format!("unsupported escape {other:?} in string")),
                    }
                }
                Some(_) => {
                    let rest = std::str::from_utf8(&cursor.bytes[cursor.at..])
                        .map_err(|_| format!("invalid UTF-8 in string at byte {}", cursor.at))?;
                    let c = rest.chars().next().expect("peeked a byte");
                    out.push(c);
                    cursor.at += c.len_utf8();
                }
                None => return Err(format!("unterminated string starting at byte {start}")),
            }
        }
    }

    fn xorshift(state: &mut u64) -> u64 {
        let mut x = *state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *state = x;
        x
    }

    /// A scalar drawn from `lo..hi`, or `fallback` where the draw lands
    /// on a surrogate.
    fn scalar_in(state: &mut u64, lo: u32, hi: u32, fallback: char) -> char {
        char::from_u32(lo + (xorshift(state) % u64::from(hi - lo)) as u32).unwrap_or(fallback)
    }

    /// A seeded string literal: ASCII runs, raw control bytes, 2/3/4-byte
    /// scalars, `\"`, `\\`, good and bad `\u` escapes, unsupported
    /// escapes and early closing quotes, in any order (so also at the
    /// start and end), closed or not.
    fn random_literal(state: &mut u64) -> String {
        let mut text = String::from("\"");
        for _ in 0..xorshift(state) % 10 {
            match xorshift(state) % 11 {
                0 => {
                    for _ in 0..xorshift(state) % 7 {
                        text.push(scalar_in(state, 0x20, 0x7f, 'a'));
                    }
                }
                1 => text.push(scalar_in(state, 0x00, 0x20, ' ')),
                2 => text.push(scalar_in(state, 0x80, 0x800, 'é')),
                3 => text.push(scalar_in(state, 0x800, 0x1_0000, '€')),
                4 => text.push(scalar_in(state, 0x1_0000, 0x11_0000, '𝄞')),
                5 => text.push_str("\\\""),
                6 => text.push_str("\\\\"),
                7 => {
                    let _ = write!(text, "\\u{:04x}", xorshift(state) % 0x1_0000);
                }
                8 => {
                    let bad = ["n", "/", "u12", "uZZZZ", "u+04", "u00é", "é"];
                    text.push('\\');
                    text.push_str(bad[(xorshift(state) % bad.len() as u64) as usize]);
                }
                9 => text.push('"'),
                _ => text.push_str("\\u0041"),
            }
        }
        match xorshift(state) % 5 {
            0 => {}
            1 => text.push('\\'),
            _ => text.push_str("\", 1]"),
        }
        text
    }

    #[test]
    fn linear_string_scan_matches_the_per_char_oracle() {
        let fixed = [
            "\"\"",
            "\"",
            "\"\\\"\"",
            "\"\\\\\"",
            "\"\\\"x\\\\\"",
            "\"abc",
            "\"é€𝄞",
            "\"\\",
            "\"\\u00",
            "\"\\u0041\"",
            "\"\\ud800\"",
            "\"\\u00é\"",
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15;
        let generated: Vec<String> = (0..4000).map(|_| random_literal(&mut state)).collect();
        let (mut ok, mut unterminated, mut other) = (0, 0, 0);
        for text in fixed.iter().copied().chain(generated.iter().map(String::as_str)) {
            let mut linear = Cursor::new(text);
            let mut oracle = Cursor::new(text);
            let got = linear.parse_string();
            assert_eq!(got, per_char_parse_string(&mut oracle), "input {text:?}");
            match &got {
                Ok(_) => {
                    assert_eq!(linear.at, oracle.at, "both stop after the closing quote: {text:?}");
                    ok += 1;
                }
                Err(e) if e.starts_with("unterminated string starting at byte") => {
                    unterminated += 1
                }
                Err(_) => other += 1,
            }
        }
        // The inputs reach every outcome, not just the happy path.
        assert!(ok > 500 && unterminated > 100 && other > 500, "{ok}/{unterminated}/{other}");
    }

    /// One wire frame: the largest document a peer can hand the reader.
    const FRAME: usize = crate::net::MAX_FRAME_PAYLOAD as usize;

    /// Generous even for an unoptimized build, yet a reader quadratic in
    /// the document needs minutes for either document below.
    const FRAME_PARSE_BOUND: Duration = Duration::from_secs(10);

    #[test]
    fn a_one_frame_string_parses_in_linear_time() {
        let unit = "kernel_sm75_é€𝄞 \\\"\\\\\\u0041";
        let decoded_unit = "kernel_sm75_é€𝄞 \"\\A";
        let mut text = String::with_capacity(FRAME);
        let mut decoded = String::new();
        text.push('"');
        while text.len() + unit.len() < FRAME {
            text.push_str(unit);
            decoded.push_str(decoded_unit);
        }
        while text.len() + 1 < FRAME {
            text.push('a');
            decoded.push('a');
        }
        text.push('"');
        assert_eq!(text.len(), FRAME);

        let started = Instant::now();
        let parsed = JsonValue::parse(&text).expect("a one-frame string parses");
        let elapsed = started.elapsed();
        assert_eq!(parsed, JsonValue::Text(decoded));
        assert!(elapsed < FRAME_PARSE_BOUND, "a {FRAME}-byte string took {elapsed:?}");
    }

    #[test]
    fn a_one_frame_object_of_distinct_keys_parses_in_linear_time() {
        let mut text = String::with_capacity(FRAME);
        text.push('{');
        let (mut keys, mut last_key) = (0, 0);
        loop {
            let pair = format!("\"k{keys:07}\": {keys},");
            if text.len() + pair.len() + 1 > FRAME {
                break;
            }
            last_key = text.len() + 1;
            text.push_str(&pair);
            keys += 1;
        }
        text.pop();
        while text.len() + 1 < FRAME {
            text.push(' ');
        }
        text.push('}');
        assert_eq!(text.len(), FRAME);

        let started = Instant::now();
        let parsed = JsonValue::parse(&text).expect("distinct keys parse");
        let elapsed = started.elapsed();
        assert_eq!(parsed.as_object().map(<[_]>::len), Some(keys));
        assert!(elapsed < FRAME_PARSE_BOUND, "{keys} distinct keys took {elapsed:?}");

        // Renaming the last key to repeat an early one is still caught,
        // and the repeat is named.
        text.replace_range(last_key..last_key + 8, "k0000001");
        let started = Instant::now();
        let err = JsonValue::parse(&text).unwrap_err();
        let elapsed = started.elapsed();
        assert_eq!(err, "duplicate key \"k0000001\"");
        assert!(
            elapsed < FRAME_PARSE_BOUND,
            "rejecting a repeat among {keys} keys took {elapsed:?}"
        );
    }

    #[test]
    fn the_first_repeat_in_document_order_is_the_one_named() {
        let err =
            JsonValue::parse("{\"b\": 0, \"a\": 1, \"c\": 2, \"a\": 3, \"b\": 4}").unwrap_err();
        assert_eq!(err, "duplicate key \"a\"");
    }

    #[test]
    fn content_hash_is_deterministic_and_pinned() {
        assert_eq!(content_hash(b"negativa"), content_hash(b"negativa"));
        // Object names are digests: a platform, endianness or algorithm
        // drift must fail here, not as unreadable registry roots.
        assert_eq!(content_hash(b""), 0xef46_db37_51d8_e999);
        let bytes: Vec<u8> = (0u8..=99).collect();
        assert_eq!(content_hash(&bytes), 0xfef6_114c_69a3_4ec6);
    }

    #[test]
    fn content_hash_is_bit_sensitive() {
        // 97 bytes: three full stripes plus a one-byte tail, so the
        // flips cover the lanes, the trailing-word fold and the padded
        // tail.
        let base: Vec<u8> = (0..97u32).map(|i| (i.wrapping_mul(37) ^ 0x5a) as u8).collect();
        let digest = content_hash(&base);
        for at in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[at] ^= 1 << bit;
                assert_ne!(content_hash(&flipped), digest, "flip of bit {bit} in byte {at}");
            }
        }
        let mut appended = base.clone();
        appended.push(0x00);
        assert_ne!(content_hash(&appended), digest, "length is part of the digest");
    }

    #[test]
    fn content_hash_separates_every_pair_of_bit_flips() {
        // Beyond the single-flip guarantee: all two-bit corruptions of a
        // 64-byte buffer (two stripes) hash apart from each other and
        // from the original.
        let base: Vec<u8> = (0..64u32).map(|i| (i.wrapping_mul(101) ^ 0xc3) as u8).collect();
        let bits = base.len() * 8;
        let mut digests = std::collections::HashSet::new();
        digests.insert(content_hash(&base));
        for i in 0..bits {
            for j in i + 1..bits {
                let mut flipped = base.clone();
                flipped[i / 8] ^= 1 << (i % 8);
                flipped[j / 8] ^= 1 << (j % 8);
                assert!(digests.insert(content_hash(&flipped)), "flips {i} and {j} collide");
            }
        }
    }

    #[test]
    fn content_hash_of_zero_runs_is_distinct_per_length() {
        let digests: Vec<u64> = (0..=64).map(|n| content_hash(&vec![0u8; n])).collect();
        let mut unique = digests.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), digests.len(), "zero runs of lengths 0..=64 collide");
    }
}
