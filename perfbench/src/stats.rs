//! Order statistics, the output fingerprint, and a minimal JSON writer.

use std::fmt::Write as _;

/// The `p`-quantile (`0.0..=1.0`) of `samples` by linear interpolation
/// between the two nearest order statistics; `0.0` for an empty slice.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let Some(&last) = sorted.last() else {
        return 0.0;
    };
    let rank = p.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let frac = rank - lo as f64;
    let hi = sorted.get(lo + 1).copied().unwrap_or(last);
    sorted[lo] + (hi - sorted[lo]) * frac
}

/// The median of `samples`.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// `(max - min) / median`: how far repeated runs of one metric lie
/// apart, as a share of their median (`0.0` when the median is zero).
pub fn relative_range(samples: &[f64]) -> f64 {
    let med = median(samples);
    if med == 0.0 {
        return 0.0;
    }
    (percentile(samples, 1.0) - percentile(samples, 0.0)) / med.abs()
}

/// FNV-1a over the bit patterns of `words`, continuing from `state`:
/// the per-op output fingerprint compared between untraced and traced
/// runs.
pub fn fingerprint(mut state: u64, words: impl IntoIterator<Item = u32>) -> u64 {
    for w in words {
        state = (state ^ u64::from(w)).wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The FNV-1a offset basis [`fingerprint`] chains start from.
pub const FINGERPRINT_SEED: u64 = 0xCBF2_9CE4_8422_2325;

/// A JSON value that renders itself; objects keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Num(f64),
    Int(u64),
    Bool(bool),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// One line, no insignificant whitespace.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Two-space indented, one member per line.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        let newline = |out: &mut String, depth: usize| {
            if let Some(step) = indent {
                out.push('\n');
                out.extend(std::iter::repeat_n(' ', step * depth));
            }
        };
        match self {
            // Rust prints the shortest decimal that round-trips, so a
            // measured value keeps all its digits. JSON has no NaN or
            // infinity; a metric that produced one is a bug upstream.
            Json::Num(v) if v.is_finite() => {
                let _ = write!(out, "{v}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_string(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    item.write(out, indent, depth + 1);
                }
                if !items.is_empty() {
                    newline(out, depth);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (key, value)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    newline(out, depth + 1);
                    write_string(out, key);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    value.write(out, indent, depth + 1);
                }
                if !members.is_empty() {
                    newline(out, depth);
                }
                out.push('}');
            }
        }
    }
}

fn write_string(out: &mut String, s: &str) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate_between_order_statistics() {
        let s = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&s, 1.0), 4.0);
        assert_eq!(median(&s), 2.5);
        assert!((percentile(&s, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn relative_range_is_a_share_of_the_median() {
        assert_eq!(relative_range(&[9.0, 10.0, 11.0]), 0.2);
        assert_eq!(relative_range(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn fingerprint_depends_on_order_and_value() {
        let a = fingerprint(FINGERPRINT_SEED, [1, 2, 3]);
        assert_eq!(a, fingerprint(FINGERPRINT_SEED, [1, 2, 3]));
        assert_ne!(a, fingerprint(FINGERPRINT_SEED, [3, 2, 1]));
        assert_ne!(a, fingerprint(FINGERPRINT_SEED, [1, 2, 4]));
    }

    #[test]
    fn json_round_trips_through_the_repo_parser() {
        let doc = Json::obj([
            ("name", Json::str("a \"quoted\"\nline\\")),
            ("value", Json::Num(1.2034567890123)),
            ("count", Json::Int(u64::MAX)),
            ("ok", Json::Bool(true)),
            ("list", Json::Arr(vec![Json::Num(0.1), Json::Arr(vec![])])),
            ("empty", Json::obj::<String>([])),
        ]);
        for text in [doc.compact(), doc.pretty()] {
            let parsed = obs::json::parse(&text).expect("valid JSON");
            assert_eq!(
                parsed.get("name").and_then(|v| v.as_str()),
                Some("a \"quoted\"\nline\\")
            );
            assert_eq!(
                parsed.get("value").and_then(|v| v.as_f64()),
                Some(1.2034567890123)
            );
            assert_eq!(
                parsed
                    .get("list")
                    .and_then(|v| v.as_array())
                    .map(|a| a.len()),
                Some(2)
            );
        }
        assert!(!doc.compact().contains('\n'));
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
    }
}
