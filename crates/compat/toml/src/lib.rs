//! Offline stand-in for the `toml` crate: renders the serde stand-in's
//! [`Value`] model as TOML and parses the subset this workspace emits.
//!
//! Writer conventions (chosen so every scenario file round-trips):
//!
//! * the top-level map becomes the root table; nested maps become
//!   `[dotted.section]` tables,
//! * sequences of maps become `[[array of tables]]`,
//! * maps nested inside array-of-table elements (e.g. enum payloads like
//!   a workload spec) are written as inline tables,
//! * `Value::Null` entries are omitted (TOML has no null; absent keys
//!   deserialize to `None`),
//! * floats always carry a fractional part or exponent; `nan`/`inf`
//!   follow TOML 1.0 syntax.
//!
//! The parser supports the matching subset: dotted `[table]` headers,
//! `[[array of tables]]`, basic strings, integers, floats, booleans,
//! single-line arrays, inline tables and `#` comments.

use serde::{Deserialize, Error, Serialize, Value};

/// Serialize a value to a TOML document. The value must serialize to a
/// map (TOML documents are tables at top level).
pub fn to_string<T: Serialize>(value: &T) -> Result<String, Error> {
    let v = value.to_value();
    let Value::Map(entries) = &v else {
        return Err(Error::new(format!(
            "top-level TOML value must be a table, found {}",
            v.kind()
        )));
    };
    let mut out = String::new();
    write_table(&mut out, entries, &mut Vec::new());
    Ok(out)
}

/// Deserialize a value from a TOML document.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    T::from_value(&parse(s)?)
}

// ---------------- writer ----------------

fn is_table(v: &Value) -> bool {
    matches!(v, Value::Map(_))
}

fn is_array_of_tables(v: &Value) -> bool {
    matches!(v, Value::Seq(items) if !items.is_empty() && items.iter().all(is_table))
}

fn write_table(out: &mut String, entries: &[(String, Value)], path: &mut Vec<String>) {
    // Scalars and inline arrays first, then sub-tables and table arrays
    // (TOML requires inline keys before the first section header).
    for (k, v) in entries {
        if matches!(v, Value::Null) || is_table(v) || is_array_of_tables(v) {
            continue;
        }
        out.push_str(&format!("{} = ", bare_key(k)));
        write_inline(out, v);
        out.push('\n');
    }
    for (k, v) in entries {
        match v {
            Value::Map(sub) => {
                path.push(k.clone());
                out.push_str(&format!("\n[{}]\n", path.join(".")));
                write_table(out, sub, path);
                path.pop();
            }
            Value::Seq(items) if is_array_of_tables(v) => {
                for item in items {
                    let Value::Map(sub) = item else {
                        unreachable!()
                    };
                    path.push(k.clone());
                    out.push_str(&format!("\n[[{}]]\n", path.join(".")));
                    write_table(out, sub, path);
                    path.pop();
                }
            }
            _ => {}
        }
    }
}

fn bare_key(k: &str) -> String {
    let bare = !k.is_empty()
        && k.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-');
    if bare {
        k.to_string()
    } else {
        toml_string(k)
    }
}

/// A TOML basic string with TOML-syntax escapes (`\uXXXX`, not Rust's
/// `\u{...}` — the latter is what `format!("{s:?}")` would produce and
/// no TOML parser accepts it).
fn toml_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{8}' => out.push_str("\\b"),
            '\u{c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 || c == '\u{7f}' => {
                out.push_str(&format!("\\u{:04X}", c as u32))
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn write_inline(out: &mut String, v: &Value) {
    match v {
        Value::Null => out.push_str("{}"), // unreachable from write_table; defensive
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::I64(i) => out.push_str(&i.to_string()),
        Value::U64(u) => out.push_str(&u.to_string()),
        Value::F64(x) => out.push_str(&fmt_toml_f64(*x)),
        Value::Str(s) => out.push_str(&toml_string(s)),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_inline(out, item);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push_str("{ ");
            let mut first = true;
            for (k, val) in entries {
                if matches!(val, Value::Null) {
                    continue;
                }
                if !first {
                    out.push_str(", ");
                }
                first = false;
                out.push_str(&format!("{} = ", bare_key(k)));
                write_inline(out, val);
            }
            out.push_str(" }");
        }
    }
}

/// TOML floats must be distinguishable from integers.
fn fmt_toml_f64(x: f64) -> String {
    if x.is_nan() {
        return "nan".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "inf" } else { "-inf" }.to_string();
    }
    let s = format!("{x}");
    if s.contains('.') || s.contains('e') || s.contains('E') {
        s
    } else {
        format!("{s}.0")
    }
}

// ---------------- parser ----------------

/// Deepest nesting the parser accepts, counting both the tables of a
/// `[a.b.c]` header and the arrays and inline tables of a value. The
/// value parser recurses once per level, and every consumer of the
/// resulting tree walks it recursively, so hostile input nested deeper
/// fails with an error instead of overflowing the stack.
pub const MAX_DEPTH: usize = 128;

/// Parse a TOML document into a [`Value::Map`].
pub fn parse(s: &str) -> Result<Value, Error> {
    let mut root: Vec<(String, Value)> = Vec::new();
    // Path of the table currently receiving `key = value` lines.
    let mut current: Vec<PathSeg> = Vec::new();

    let mut p = Parser {
        bytes: s.as_bytes(),
        pos: 0,
        line: 1,
        depth: 0,
    };
    loop {
        p.skip_ws_and_comments(true);
        let Some(b) = p.peek() else { break };
        if b == b'[' {
            p.pos += 1;
            let array = p.peek() == Some(b'[');
            if array {
                p.pos += 1;
            }
            let path = p.dotted_key()?;
            if path.len() > MAX_DEPTH {
                return Err(p.err(&format!(
                    "table header nested deeper than {MAX_DEPTH} levels"
                )));
            }
            p.expect(b']')?;
            if array {
                p.expect(b']')?;
            }
            p.end_of_line()?;
            current = path
                .iter()
                .map(|k| PathSeg {
                    key: k.clone(),
                    array: false,
                })
                .collect();
            if array {
                current.last_mut().expect("non-empty header").array = true;
                push_array_element(&mut root, &current)?;
            }
        } else {
            let key = p.key()?;
            p.skip_inline_ws();
            p.expect(b'=')?;
            let value = p.value()?;
            p.end_of_line()?;
            let table = resolve_table(&mut root, &current)?;
            if table.iter().any(|(k, _)| *k == key) {
                return Err(Error::new(format!("duplicate key `{key}`")));
            }
            table.push((key, value));
        }
    }
    Ok(Value::Map(root))
}

struct PathSeg {
    key: String,
    array: bool,
}

/// Walk (creating as needed) to the table addressed by `path`.
fn resolve_table<'a>(
    root: &'a mut Vec<(String, Value)>,
    path: &[PathSeg],
) -> Result<&'a mut Vec<(String, Value)>, Error> {
    let mut table = root;
    for seg in path {
        if !table.iter().any(|(k, _)| *k == seg.key) {
            let fresh = if seg.array {
                Value::Seq(Vec::new())
            } else {
                Value::Map(Vec::new())
            };
            table.push((seg.key.clone(), fresh));
        }
        let slot = table
            .iter_mut()
            .find(|(k, _)| *k == seg.key)
            .map(|(_, v)| v)
            .expect("just ensured");
        table = match slot {
            Value::Map(sub) => sub,
            Value::Seq(items) => match items.last_mut() {
                Some(Value::Map(sub)) => sub,
                _ => {
                    return Err(Error::new(format!(
                        "array `{}` has no open table element",
                        seg.key
                    )))
                }
            },
            other => {
                return Err(Error::new(format!(
                    "key `{}` is a {}, not a table",
                    seg.key,
                    other.kind()
                )))
            }
        };
    }
    Ok(table)
}

/// `[[a.b]]`: append a fresh element to the table array at the path.
fn push_array_element(root: &mut Vec<(String, Value)>, path: &[PathSeg]) -> Result<(), Error> {
    let (last, parents) = path.split_last().expect("non-empty");
    let parent = resolve_table(root, parents)?;
    if !parent.iter().any(|(k, _)| *k == last.key) {
        parent.push((last.key.clone(), Value::Seq(Vec::new())));
    }
    let slot = parent
        .iter_mut()
        .find(|(k, _)| *k == last.key)
        .map(|(_, v)| v)
        .expect("just ensured");
    match slot {
        Value::Seq(items) => {
            items.push(Value::Map(Vec::new()));
            Ok(())
        }
        other => Err(Error::new(format!(
            "key `{}` is a {}, not an array of tables",
            last.key,
            other.kind()
        ))),
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Values currently open on the recursion stack.
    depth: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, msg: &str) -> Error {
        Error::new(format!("TOML line {}: {msg}", self.line))
    }

    fn expect(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn skip_inline_ws(&mut self) {
        while matches!(self.peek(), Some(b' ') | Some(b'\t')) {
            self.pos += 1;
        }
    }

    /// Skip whitespace; if `newlines`, also skip newlines and comments.
    fn skip_ws_and_comments(&mut self, newlines: bool) {
        loop {
            match self.peek() {
                Some(b' ') | Some(b'\t') => self.pos += 1,
                Some(b'\r') if newlines => self.pos += 1,
                Some(b'\n') if newlines => {
                    self.line += 1;
                    self.pos += 1;
                }
                Some(b'#') if newlines => {
                    while !matches!(self.peek(), None | Some(b'\n')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
    }

    /// Consume end-of-line (optional comment, then newline or EOF).
    fn end_of_line(&mut self) -> Result<(), Error> {
        self.skip_inline_ws();
        if self.peek() == Some(b'#') {
            while !matches!(self.peek(), None | Some(b'\n')) {
                self.pos += 1;
            }
        }
        match self.peek() {
            None => Ok(()),
            Some(b'\n') => {
                self.line += 1;
                self.pos += 1;
                Ok(())
            }
            Some(b'\r') => {
                self.pos += 1;
                self.expect(b'\n')?;
                self.line += 1;
                Ok(())
            }
            Some(other) => Err(self.err(&format!("unexpected `{}`", other as char))),
        }
    }

    fn key(&mut self) -> Result<String, Error> {
        self.skip_inline_ws();
        if self.peek() == Some(b'"') {
            return self.basic_string();
        }
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'-' {
                self.pos += 1;
            } else {
                break;
            }
        }
        if self.pos == start {
            return Err(self.err("expected key"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii key")
            .to_string())
    }

    fn dotted_key(&mut self) -> Result<Vec<String>, Error> {
        let mut parts = vec![self.key()?];
        loop {
            self.skip_inline_ws();
            if self.peek() == Some(b'.') {
                self.pos += 1;
                parts.push(self.key()?);
            } else {
                break;
            }
        }
        Ok(parts)
    }

    fn basic_string(&mut self) -> Result<String, Error> {
        self.expect(b'"')?;
        let mut s = String::new();
        loop {
            let Some(b) = self.peek() else {
                return Err(self.err("unterminated string"));
            };
            self.pos += 1;
            match b {
                b'"' => return Ok(s),
                b'\n' => return Err(self.err("newline in basic string")),
                b'\\' => {
                    let Some(esc) = self.peek() else {
                        return Err(self.err("unterminated escape"));
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'n' => s.push('\n'),
                        b'r' => s.push('\r'),
                        b't' => s.push('\t'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' | b'U' => {
                            let len = if esc == b'u' { 4 } else { 8 };
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + len)
                                .ok_or_else(|| self.err("bad unicode escape"))?;
                            let hex =
                                std::str::from_utf8(hex).map_err(|_| self.err("bad escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad unicode escape"))?;
                            self.pos += len;
                            s.push(char::from_u32(code).ok_or_else(|| self.err("bad code point"))?);
                        }
                        other => return Err(self.err(&format!("bad escape `\\{}`", other as char))),
                    }
                }
                _ => {
                    let start = self.pos - 1;
                    let mut end = self.pos;
                    while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                        end += 1;
                    }
                    let chunk = std::str::from_utf8(&self.bytes[start..end])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    s.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(&format!("nesting deeper than {MAX_DEPTH} levels")));
        }
        self.depth += 1;
        let v = self.unnested_value();
        self.depth -= 1;
        v
    }

    /// One value, its nested values parsed through [`Parser::value`].
    fn unnested_value(&mut self) -> Result<Value, Error> {
        self.skip_ws_and_comments(false);
        match self.peek() {
            Some(b'"') => Ok(Value::Str(self.basic_string()?)),
            Some(b'[') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws_and_comments(true);
                    if self.peek() == Some(b']') {
                        self.pos += 1;
                        return Ok(Value::Seq(items));
                    }
                    items.push(self.value()?);
                    self.skip_ws_and_comments(true);
                    match self.peek() {
                        Some(b',') => self.pos += 1,
                        Some(b']') => {
                            self.pos += 1;
                            return Ok(Value::Seq(items));
                        }
                        _ => return Err(self.err("bad array")),
                    }
                }
            }
            Some(b'{') => {
                self.pos += 1;
                let mut entries = Vec::new();
                self.skip_inline_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    return Ok(Value::Map(entries));
                }
                loop {
                    let key = self.key()?;
                    self.skip_inline_ws();
                    self.expect(b'=')?;
                    let value = self.value()?;
                    if entries.iter().any(|(k, _)| *k == key) {
                        return Err(self.err(&format!("duplicate key `{key}` in inline table")));
                    }
                    entries.push((key, value));
                    self.skip_inline_ws();
                    match self.peek() {
                        Some(b',') => {
                            self.pos += 1;
                            self.skip_inline_ws();
                        }
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Value::Map(entries));
                        }
                        _ => return Err(self.err("bad inline table")),
                    }
                }
            }
            Some(b't') | Some(b'f') | Some(b'n') | Some(b'i') => {
                let word = self.word();
                match word.as_str() {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "nan" => Ok(Value::F64(f64::NAN)),
                    "inf" => Ok(Value::F64(f64::INFINITY)),
                    other => Err(self.err(&format!("unexpected `{other}`"))),
                }
            }
            Some(b) if b == b'-' || b == b'+' || b.is_ascii_digit() => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    fn word(&mut self) -> String {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric()) {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii")
            .to_string()
    }

    fn number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if matches!(self.peek(), Some(b'-') | Some(b'+')) {
            self.pos += 1;
        }
        if self.bytes[self.pos..].starts_with(b"inf") {
            self.pos += 3;
            let neg = self.bytes[start] == b'-';
            return Ok(Value::F64(if neg {
                f64::NEG_INFINITY
            } else {
                f64::INFINITY
            }));
        }
        if self.bytes[self.pos..].starts_with(b"nan") {
            self.pos += 3;
            return Ok(Value::F64(f64::NAN));
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' | b'_' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                    if matches!(self.peek(), Some(b'+') | Some(b'-')) {
                        self.pos += 1;
                    }
                }
                _ => break,
            }
        }
        let text: String = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii")
            .chars()
            .filter(|&c| c != '_' && c != '+')
            .collect();
        if is_float {
            text.parse::<f64>()
                .map(Value::F64)
                .map_err(|_| self.err(&format!("bad float `{text}`")))
        } else if text.starts_with('-') {
            text.parse::<i64>()
                .map(Value::I64)
                .map_err(|_| self.err(&format!("bad integer `{text}`")))
        } else {
            text.parse::<u64>()
                .map(Value::U64)
                .map_err(|_| self.err(&format!("bad integer `{text}`")))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(entries: Vec<(&str, Value)>) -> Value {
        Value::Map(
            entries
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    #[test]
    fn scalars_and_sections() {
        let src =
            "a = 1\nb = -2\nc = 1.5\nd = true\ne = \"hi\"\n\n[sub]\nx = 3\n\n[sub.deep]\ny = 4\n";
        let v = parse(src).unwrap();
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v.get("b"), Some(&Value::I64(-2)));
        assert_eq!(v.get("c"), Some(&Value::F64(1.5)));
        assert_eq!(v.get("d"), Some(&Value::Bool(true)));
        assert_eq!(v.get("e"), Some(&Value::Str("hi".into())));
        let sub = v.get("sub").unwrap();
        assert_eq!(sub.get("x"), Some(&Value::U64(3)));
        assert_eq!(sub.get("deep").unwrap().get("y"), Some(&Value::U64(4)));
    }

    #[test]
    fn arrays_of_tables_and_inline() {
        let src = "[[vms]]\nnode = 0\nworkload = { Idle = { bursts = 3, burst_secs = 0.5 } }\n\n[[vms]]\nnode = 1\n";
        let v = parse(src).unwrap();
        let Some(Value::Seq(vms)) = v.get("vms") else {
            panic!("vms missing")
        };
        assert_eq!(vms.len(), 2);
        assert_eq!(vms[0].get("node"), Some(&Value::U64(0)));
        let wl = vms[0].get("workload").unwrap().get("Idle").unwrap();
        assert_eq!(wl.get("bursts"), Some(&Value::U64(3)));
        assert_eq!(wl.get("burst_secs"), Some(&Value::F64(0.5)));
    }

    #[test]
    fn writer_output_reparses_identically() {
        let v = table(vec![
            ("horizon_secs", Value::F64(300.0)),
            ("grouped", Value::Bool(false)),
            (
                "cluster",
                table(vec![
                    ("nodes", Value::U64(4)),
                    ("nic_bw", Value::F64(123_207_680.0)),
                    ("mem", table(vec![("max_rounds", Value::U64(30))])),
                ]),
            ),
            (
                "vms",
                Value::Seq(vec![table(vec![
                    ("node", Value::U64(0)),
                    (
                        "workload",
                        table(vec![(
                            "SeqWrite",
                            table(vec![
                                ("offset", Value::U64(0)),
                                ("think_secs", Value::F64(0.05)),
                            ]),
                        )]),
                    ),
                ])]),
            ),
            (
                "tags",
                Value::Seq(vec![Value::Str("a".into()), Value::Str("b".into())]),
            ),
        ]);
        let mut out = String::new();
        let Value::Map(entries) = &v else {
            unreachable!()
        };
        write_table(&mut out, entries, &mut Vec::new());
        let back = parse(&out).unwrap();
        // The writer emits scalar keys before tables, so key order may
        // differ; deserialization looks up by key, so compare sorted.
        assert_eq!(normalize(&back), normalize(&v), "document:\n{out}");
    }

    /// Sort map keys recursively for order-insensitive comparison.
    fn normalize(v: &Value) -> Value {
        match v {
            Value::Seq(items) => Value::Seq(items.iter().map(normalize).collect()),
            Value::Map(entries) => {
                let mut sorted: Vec<(String, Value)> = entries
                    .iter()
                    .map(|(k, v)| (k.clone(), normalize(v)))
                    .collect();
                sorted.sort_by(|a, b| a.0.cmp(&b.0));
                Value::Map(sorted)
            }
            other => other.clone(),
        }
    }

    #[test]
    fn floats_keep_distinction_from_integers() {
        assert_eq!(fmt_toml_f64(2.0), "2.0");
        assert_eq!(parse("x = 2.0").unwrap().get("x"), Some(&Value::F64(2.0)));
        assert_eq!(parse("x = 2").unwrap().get("x"), Some(&Value::U64(2)));
    }

    #[test]
    fn null_entries_are_omitted() {
        let v = table(vec![("a", Value::Null), ("b", Value::U64(1))]);
        let Value::Map(entries) = &v else {
            unreachable!()
        };
        let mut out = String::new();
        write_table(&mut out, entries, &mut Vec::new());
        assert!(!out.contains('a'));
        assert_eq!(parse(&out).unwrap().get("b"), Some(&Value::U64(1)));
    }

    #[test]
    fn comments_and_blank_lines() {
        let src = "# header\n\na = 1 # trailing\n# more\nb = 2\n";
        let v = parse(src).unwrap();
        assert_eq!(v.get("a"), Some(&Value::U64(1)));
        assert_eq!(v.get("b"), Some(&Value::U64(2)));
    }

    #[test]
    fn duplicate_keys_rejected() {
        assert!(parse("a = 1\na = 2\n").is_err());
        // ... also inside inline tables, where first-wins would silently
        // drop a re-stated knob.
        assert!(parse("w = { bursts = 1, bursts = 99 }\n").is_err());
    }

    #[test]
    fn control_characters_roundtrip_with_toml_escapes() {
        let v = table(vec![(
            "name",
            Value::Str("a\u{1b}b \"quoted\" \\ tab\t bs\u{8} ff\u{c} nl\n".into()),
        )]);
        let Value::Map(entries) = &v else {
            unreachable!()
        };
        let mut out = String::new();
        write_table(&mut out, entries, &mut Vec::new());
        assert!(out.contains("\\u001B"), "TOML-syntax escape, got: {out}");
        assert!(!out.contains("\\u{"), "no Rust-syntax escapes: {out}");
        assert_eq!(parse(&out).unwrap(), v, "document:\n{out}");
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let array = |n: usize| format!("a = {}{}\n", "[".repeat(n), "]".repeat(n));
        assert!(parse(&array(MAX_DEPTH)).is_ok());
        let err = parse(&array(MAX_DEPTH + 1)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        let inline = |n: usize| format!("a = {}1{}\n", "{ b = ".repeat(n), " }".repeat(n));
        assert!(parse(&inline(MAX_DEPTH - 1)).is_ok());
        assert!(parse(&inline(MAX_DEPTH)).is_err());
        let header = |n: usize| format!("[{}]\nb = 1\n", vec!["t"; n].join("."));
        assert!(parse(&header(MAX_DEPTH)).is_ok());
        assert!(parse(&header(MAX_DEPTH + 1)).is_err());
        // Far past the limit: an error, not a stack overflow when the
        // nested tables would be dropped.
        assert!(parse(&header(100_000)).is_err());
    }
}
