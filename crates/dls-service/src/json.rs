//! The one JSON writer. The `STATS` snapshot, `hdls::export`'s activity
//! report and its Chrome trace are all written through it, so string
//! escaping, separators and float formatting live here alone.
//!
//! Output is compact: no whitespace between tokens. A float always has a
//! fraction part, so readers parse it as a float, and a non-finite one
//! prints as `0.0`, so the document stays JSON.
//!
//! ```
//! use dls_service::{json, json_fields};
//! struct Row { ok: bool, share: f64 }
//! let row = Row { ok: true, share: 2.0 };
//! let doc = json::object(|o| {
//!     o.field("label", "a\tb");
//!     json_fields!(o, &row; ok, share);
//!     o.array("buckets", |a| [3u64, 0].into_iter().for_each(|b| a.value(b)));
//! });
//! assert_eq!(doc, r#"{"label":"a\tb","ok":true,"share":2.0,"buckets":[3,0]}"#);
//! ```

use std::fmt::Write;

/// A scalar the writer can emit.
pub trait Value {
    /// Append `self` as one JSON value.
    fn write(&self, out: &mut String);
}

macro_rules! display_value {
    ($($t:ty),*) => {$(
        impl Value for $t {
            fn write(&self, out: &mut String) {
                let _ = write!(out, "{self}");
            }
        }
    )*};
}
display_value!(bool, u32, u64, usize);

impl Value for f64 {
    fn write(&self, out: &mut String) {
        let start = out.len();
        // `Display` never writes an exponent, so a missing point means a whole number.
        let _ = write!(out, "{}", if self.is_finite() { *self } else { 0.0 });
        if !out[start..].contains('.') {
            out.push_str(".0");
        }
    }
}

/// A string literal (RFC 8259 §7): quote, backslash and every control
/// character escaped.
impl Value for &str {
    fn write(&self, out: &mut String) {
        out.push('"');
        for c in self.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if u32::from(c) < 0x20 => {
                    let _ = write!(out, "\\u{:04x}", u32::from(c));
                }
                c => out.push(c),
            }
        }
        out.push('"');
    }
}

/// `"field":row.field` for each listed field of `row`, in order: a
/// field list whose JSON keys are the Rust field names.
#[macro_export]
macro_rules! json_fields {
    ($o:expr, $row:expr; $($field:ident),+ $(,)?) => {{
        let (o, row): (&mut $crate::json::Object<'_>, _) = ($o, $row);
        $(o.field(stringify!($field), row.$field);)+
    }};
}

/// The members of one JSON object, written in call order.
pub struct Object<'a> {
    out: &'a mut String,
    empty: bool,
}

/// The elements of one JSON array, written in call order.
pub struct Array<'a> {
    out: &'a mut String,
    empty: bool,
}

/// Separate an element or member from the one before it.
fn comma<'a>(out: &'a mut String, empty: &mut bool) -> &'a mut String {
    if !std::mem::take(empty) {
        out.push(',');
    }
    out
}

fn write_object(out: &mut String, members: impl FnOnce(&mut Object<'_>)) {
    out.push('{');
    members(&mut Object { out, empty: true });
    out.push('}');
}

fn write_array(out: &mut String, elements: impl FnOnce(&mut Array<'_>)) {
    out.push('[');
    elements(&mut Array { out, empty: true });
    out.push(']');
}

impl Object<'_> {
    fn key(&mut self, key: &str) -> &mut String {
        let out = comma(self.out, &mut self.empty);
        key.write(out);
        out.push(':');
        out
    }

    /// `"key":value`.
    pub fn field(&mut self, key: &str, value: impl Value) -> &mut Self {
        value.write(self.key(key));
        self
    }

    /// `"key":{...}` with the members `members` writes.
    pub fn object(&mut self, key: &str, members: impl FnOnce(&mut Object<'_>)) -> &mut Self {
        write_object(self.key(key), members);
        self
    }

    /// `"key":[...]` with the elements `elements` writes.
    pub fn array(&mut self, key: &str, elements: impl FnOnce(&mut Array<'_>)) -> &mut Self {
        write_array(self.key(key), elements);
        self
    }

    /// `"key":[{...},...]`: one object per row, with the members
    /// `members` writes for it.
    pub fn rows<T>(
        &mut self,
        key: &str,
        rows: impl IntoIterator<Item = T>,
        mut members: impl FnMut(&mut Object<'_>, T),
    ) -> &mut Self {
        self.array(key, |a| rows.into_iter().for_each(|row| a.object(|o| members(o, row))))
    }
}

impl Array<'_> {
    /// One scalar element.
    pub fn value(&mut self, value: impl Value) {
        value.write(comma(self.out, &mut self.empty));
    }

    /// One object element with the members `members` writes.
    pub fn object(&mut self, members: impl FnOnce(&mut Object<'_>)) {
        write_object(comma(self.out, &mut self.empty), members);
    }
}

/// A document that is one object.
pub fn object(members: impl FnOnce(&mut Object<'_>)) -> String {
    let mut out = String::with_capacity(1024);
    write_object(&mut out, members);
    out
}

/// A document that is one array.
pub fn array(elements: impl FnOnce(&mut Array<'_>)) -> String {
    let mut out = String::with_capacity(1024);
    write_array(&mut out, elements);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_characters_are_escaped_inside_strings() {
        let json = object(|o| {
            o.field("label", "a\tb\nc\u{1}\"\\");
        });
        assert_eq!(json, r#"{"label":"a\tb\nc\u0001\"\\"}"#);
        // RFC 8259: no raw control character inside a string literal.
        let (mut in_string, mut escaped) = (false, false);
        for b in json.bytes() {
            if in_string {
                assert!(b >= 0x20, "raw control byte {b:#04x} in a string:\n{json}");
                match (escaped, b) {
                    (true, _) => escaped = false,
                    (false, b'\\') => escaped = true,
                    (false, b'"') => in_string = false,
                    _ => {}
                }
            } else {
                in_string = b == b'"';
            }
        }
        assert!(!in_string);
    }

    #[test]
    fn floats_always_json_numbers() {
        let float = |v: f64| array(|a| a.value(v));
        assert_eq!(float(0.25), "[0.25]");
        assert_eq!(float(3.0), "[3.0]");
        assert_eq!(float(1e21), "[1000000000000000000000.0]");
        assert_eq!(float(-2.5e-7), "[-0.00000025]");
        assert_eq!(float(f64::NAN), "[0.0]");
        assert_eq!(float(f64::NEG_INFINITY), "[0.0]");
    }

    #[test]
    fn separators_nest() {
        let json = object(|o| {
            o.object("empty", |_| {}).array("none", |_| {});
            o.array("rows", |a| {
                a.object(|o| {
                    o.field("n", 1u32).field("ok", true);
                });
                a.value(7usize);
            });
        });
        assert_eq!(json, r#"{"empty":{},"none":[],"rows":[{"n":1,"ok":true},7]}"#);
    }
}
