//! The JSON helpers shared by `repro --json` and the `*_bench` bins.
//!
//! The workspace vendors no JSON crate, so both directions are
//! hand-rolled: writers format their objects with `format!` around
//! [`json_number`] and [`json_escape`], and the shared `--check` gate
//! ([`crate::gate`]) reads baseline figures back with [`parse_number`] (and
//! a digest with [`parse_string`]).

/// Minimal JSON string escaping.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
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
    out
}

/// A finite f64 as JSON; NaN/∞ become `null` (JSON has no spelling for them).
pub fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".to_string()
    }
}

/// Pulls the number after the first `"<key>":` out of a report without a
/// JSON parser. `None` when the key is absent or not followed by a number.
pub fn parse_number(text: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Pulls the string after the first `"<key>":` out of a report, without
/// unescaping (written digests and labels need none). `None` when the key
/// is absent or not followed by a string.
pub fn parse_string<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    let needle = format!("\"{key}\":");
    let at = text.find(&needle)? + needle.len();
    let rest = text[at..].trim_start().strip_prefix('"')?;
    rest.find('"').map(|end| &rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_finite_numbers_become_null() {
        assert_eq!(json_number(1.5), "1.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::NEG_INFINITY), "null");
    }

    #[test]
    fn escape_covers_quotes_and_control_characters() {
        assert_eq!(json_escape("a\"b\\c\nd\u{1}"), "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn parse_number_reads_the_first_match_of_its_key() {
        let text = "{\"wall_s\": 2.5e-1, \"headline\": 1200,\n \"headline\": 7}";
        assert_eq!(parse_number(text, "wall_s"), Some(0.25));
        assert_eq!(parse_number(text, "headline"), Some(1200.0));
        assert_eq!(parse_number(text, "missing"), None);
        assert_eq!(parse_number("{\"x\": null}", "x"), None);
        // Every written number reads back unchanged.
        for x in [0.0, -3.75, 1.0e-9, 123_456.789] {
            let text = format!("{{\"x\": {}}}", json_number(x));
            assert_eq!(parse_number(&text, "x"), Some(x));
        }
    }

    #[test]
    fn parse_string_reads_the_first_match_of_its_key() {
        let text = "{\"digest\": \"0e9112fc72ff1bf7\", \"n\": 3,\n \"digest\": \"x\"}";
        assert_eq!(parse_string(text, "digest"), Some("0e9112fc72ff1bf7"));
        assert_eq!(parse_string(text, "n"), None);
        assert_eq!(parse_string(text, "missing"), None);
        assert_eq!(parse_string("{\"s\": \"open", "s"), None);
    }
}
