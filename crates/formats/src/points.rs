//! The stateless point parser (§3.3, "Point parser" example), and the
//! crate's one number parser.
//!
//! "A point parser is a transducer that takes streams of point offsets
//! and produces a stream of point values. It … isolate\[s\] the
//! structural parsing, performed by finite and pushdown transducers,
//! from handling floating point values. It is stateless as each offset
//! can be parsed into a point value independently."
//!
//! Every coordinate in every format goes through [`parse_f64`]: the
//! GeoJSON PAT and FAT parsers, the WKT row parser and the OSM XML
//! node scanner. It returns exactly what `str::parse::<f64>` returns,
//! bit for bit, and takes an exact shortcut for the plain decimals
//! that make up almost all real coordinate data: Clinger's fast path,
//! as used by Lemire, "Number Parsing at a Gigabyte per Second"
//! (arXiv:2101.11408). The shortcut applies when the literal
//!
//! * has the form `-?digits[.digits]` (no `+`, exponent, bare `.`, or
//!   anything else),
//! * has at most 19 digits in all, so the digits fit a `u64`,
//! * has a digit value (the mantissa, ignoring the point) of at most
//!   2^53, so it converts to `f64` exactly, and
//! * has at most 22 fraction digits, so `10^frac` is an exact `f64`.
//!
//! The result is then `mantissa as f64 / 10^frac`: one division of two
//! exact values, which IEEE 754 rounds correctly — the same rounding
//! `str::parse` performs on the decimal value. Every other literal
//! falls back to `str::parse::<f64>`.

use crate::ParseError;
use atgis_geometry::Point;
use std::num::ParseFloatError;

/// `10^0 ..= 10^22`: every power of ten an `f64` holds exactly.
const EXACT_POW10: [f64; 23] = [
    1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16,
    1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
];

/// The largest mantissa the fast path accepts: every integer up to
/// 2^53 is an exact `f64`.
const MAX_EXACT_MANTISSA: u64 = 1 << 53;

/// The most digits the fast path reads: any 19 digits fit a `u64`.
const MAX_FAST_DIGITS: usize = 19;

/// Parses a decimal literal exactly as `str::parse::<f64>` does (see
/// the module docs for the fast path). No whitespace is trimmed.
#[inline]
pub fn parse_f64(text: &str) -> Result<f64, ParseFloatError> {
    match fast_path(text.as_bytes()) {
        Some(v) => Ok(v),
        None => text.parse(),
    }
}

/// Clinger's exact fast path; `None` when the literal is outside it.
#[inline]
fn fast_path(text: &[u8]) -> Option<f64> {
    let (negative, digits) = match text.split_first() {
        Some((b'-', rest)) => (true, rest),
        _ => (false, text),
    };
    let mut mantissa: u64 = 0;
    let mut int_digits = 0usize;
    while let Some(&b) = digits.get(int_digits) {
        if !b.is_ascii_digit() {
            break;
        }
        // Past MAX_FAST_DIGITS digits this wraps; such literals are
        // rejected below before the value is used.
        mantissa = mantissa.wrapping_mul(10).wrapping_add((b - b'0') as u64);
        int_digits += 1;
    }
    if int_digits == 0 {
        return None;
    }
    let mut frac_digits = 0usize;
    match digits.get(int_digits) {
        None => {}
        Some(b'.') => {
            let frac = &digits[int_digits + 1..];
            if frac.is_empty() {
                return None;
            }
            for &b in frac {
                if !b.is_ascii_digit() {
                    return None;
                }
                mantissa = mantissa.wrapping_mul(10).wrapping_add((b - b'0') as u64);
            }
            frac_digits = frac.len();
        }
        Some(_) => return None,
    }
    if int_digits + frac_digits > MAX_FAST_DIGITS
        || mantissa > MAX_EXACT_MANTISSA
        || frac_digits >= EXACT_POW10.len()
    {
        return None;
    }
    let v = mantissa as f64 / EXACT_POW10[frac_digits];
    Some(if negative { -v } else { v })
}

/// Parses an object id literal. An integer literal that fits a `u64`
/// is read exactly; any other literal (sign, fraction, exponent,
/// overflow) keeps the historical `f64` cast, which truncates and
/// saturates.
pub fn parse_id(text: &str) -> Result<u64, ParseFloatError> {
    text.parse::<u64>()
        .or_else(|_| parse_f64(text).map(|v| v as u64))
}

/// The text of `input[start..end]` with surrounding whitespace
/// trimmed.
fn span_text(input: &[u8], start: usize, end: usize) -> Result<&str, ParseError> {
    let raw = input
        .get(start..end)
        .ok_or_else(|| ParseError::syntax(start as u64, "float span out of bounds"))?;
    Ok(std::str::from_utf8(raw)
        .map_err(|_| ParseError::syntax(start as u64, "non-UTF8 float"))?
        .trim())
}

/// Parses an ASCII float from `input[span]`, tolerating surrounding
/// whitespace.
pub fn parse_float(input: &[u8], start: usize, end: usize) -> Result<f64, ParseError> {
    let text = span_text(input, start, end)?;
    parse_f64(text)
        .map_err(|e| ParseError::syntax(start as u64, format!("bad float {text:?}: {e}")))
}

/// Parses an id literal (see [`parse_id`]) from `input[span]`,
/// tolerating surrounding whitespace.
pub fn parse_id_span(input: &[u8], start: usize, end: usize) -> Result<u64, ParseError> {
    let text = span_text(input, start, end)?;
    parse_id(text).map_err(|e| ParseError::syntax(start as u64, format!("bad id {text:?}: {e}")))
}

/// A `(start, end)` byte span pair addressing the two coordinates of a
/// point in the raw input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointOffsets {
    /// Span of the x (longitude) literal.
    pub x: (usize, usize),
    /// Span of the y (latitude) literal.
    pub y: (usize, usize),
}

/// The stateless point-parsing step: offsets → point value.
pub fn parse_point(input: &[u8], offsets: PointOffsets) -> Result<Point, ParseError> {
    Ok(Point::new(
        parse_float(input, offsets.x.0, offsets.x.1)?,
        parse_float(input, offsets.y.0, offsets.y.1)?,
    ))
}

/// Batch form used by pipelines: maps offset streams to point streams
/// independently per element (hence trivially data-parallel).
pub fn parse_points(input: &[u8], offsets: &[PointOffsets]) -> Result<Vec<Point>, ParseError> {
    offsets.iter().map(|&o| parse_point(input, o)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parses_plain_and_signed_floats() {
        let input = b"[-0.1278, 51.5074]";
        assert_eq!(parse_float(input, 1, 8).unwrap(), -0.1278);
        assert_eq!(parse_float(input, 9, 17).unwrap(), 51.5074);
    }

    #[test]
    fn parses_exponent_notation() {
        let input = b"1.5e-3,2E2";
        assert_eq!(parse_float(input, 0, 6).unwrap(), 0.0015);
        assert_eq!(parse_float(input, 7, 10).unwrap(), 200.0);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_float(b"abc", 0, 3).is_err());
        assert!(parse_float(b"1.0", 0, 99).is_err(), "span out of bounds");
        assert!(parse_float(b"", 0, 0).is_err(), "empty span");
    }

    #[test]
    fn point_parsing() {
        let input = b"[1.5, -2.25]";
        let p = parse_point(
            input,
            PointOffsets {
                x: (1, 4),
                y: (5, 11),
            },
        )
        .unwrap();
        assert_eq!(p, Point::new(1.5, -2.25));
    }

    #[test]
    fn batch_is_elementwise() {
        let input = b"1 2 3 4";
        let offs = [
            PointOffsets {
                x: (0, 1),
                y: (2, 3),
            },
            PointOffsets {
                x: (4, 5),
                y: (6, 7),
            },
        ];
        let pts = parse_points(input, &offs).unwrap();
        assert_eq!(pts, vec![Point::new(1.0, 2.0), Point::new(3.0, 4.0)]);
    }

    /// The bit pattern `str::parse` produces, or `None` on its error.
    fn std_bits(text: &str) -> Option<u64> {
        text.parse::<f64>().ok().map(f64::to_bits)
    }

    fn same_as_std(text: &str) {
        assert_eq!(
            parse_f64(text).ok().map(f64::to_bits),
            std_bits(text),
            "{text:?}"
        );
    }

    #[test]
    fn fast_path_edges_match_std() {
        for t in [
            "0",
            "-0",
            "00",
            "-00.000",
            "0.0",
            "1",
            "-1",
            "1.5",
            "007.25",
            "1.",
            ".5",
            "-.5",
            "+1",
            "-",
            "",
            ".",
            "1e5",
            "1E-5",
            "1.5e3",
            "inf",
            "-inf",
            "NaN",
            "nan",
            "1..2",
            "1.2.3",
            "--1",
            "1-",
            " 1",
            "1 ",
            "0x10",
            "9007199254740992",
            "9007199254740993",
            "-9007199254740993",
            "900719925474099.3",
            "0.9007199254740993",
            "1234567890123456789",
            "12345678901234567890",
            "1.0000000000000000000001",
            "0.1234567890123456789012",
            "0.12345678901234567890123",
            "179.99999999999997",
            "-180",
            "89.123456789",
            "0.0000000000000000000001",
            "1e400",
            "2.5E-1",
        ] {
            same_as_std(t);
        }
    }

    #[test]
    fn fast_path_is_taken_for_plain_decimals() {
        assert_eq!(fast_path(b"-12.5"), Some(-12.5));
        assert_eq!(
            fast_path(b"-0").map(f64::to_bits),
            Some((-0.0f64).to_bits())
        );
        assert_eq!(fast_path(b"1e5"), None, "exponents fall back");
        assert_eq!(fast_path(b"9007199254740993"), None, "mantissa over 2^53");
        assert_eq!(fast_path(b"12345678901234567890"), None, "20 digits");
        assert_eq!(
            fast_path(b"0.00000000000000000000001"),
            None,
            "23 fraction digits"
        );
    }

    /// A literal drawn from the shapes the fast path must get right or
    /// hand over: signs, leading zeros, 15-20 digit mantissas, 22-25
    /// fraction digits, exponents, `1.`, `.5` and garbage bytes.
    fn arb_literal() -> impl Strategy<Value = String> {
        let digits = |n: std::ops::RangeInclusive<usize>| {
            prop::collection::vec(prop::sample::select(b"0123456789".to_vec()), n)
                .prop_map(|v| String::from_utf8(v).expect("ascii"))
        };
        let sign = || prop::sample::select(vec!["", "", "-", "+"]);
        let plain = (sign(), digits(1..=20), digits(0..=25), 0u8..4).prop_map(
            |(s, i, f, shape)| match shape {
                0 => format!("{s}{i}"),
                1 => format!("{s}{i}."),
                2 => format!("{s}.{f}"),
                _ => format!("{s}{i}.{f}"),
            },
        );
        let zeros = (sign(), 0usize..6, digits(1..=16), digits(15..=20))
            .prop_map(|(s, z, i, f)| format!("{s}{}{i}.{f}", "0".repeat(z)));
        let exponent = (sign(), digits(1..=17), digits(0..=8), -330i32..330)
            .prop_map(|(s, i, f, e)| format!("{s}{i}.{f}e{e}"));
        let garbage =
            prop::collection::vec(prop::sample::select(b"0123456789.-+eE x".to_vec()), 0..12)
                .prop_map(|v| String::from_utf8(v).expect("ascii"));
        prop_oneof![4 => plain, 2 => zeros, 1 => exponent, 1 => garbage]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]
        #[test]
        fn fast_path_is_bit_identical_to_std(text in arb_literal()) {
            prop_assert_eq!(parse_f64(&text).ok().map(f64::to_bits), std_bits(&text), "{:?}", text);
        }
    }

    #[test]
    fn ids_above_two_to_the_53_are_exact() {
        assert_eq!(parse_id("9007199254740993").unwrap(), 9_007_199_254_740_993);
        assert_eq!(parse_id("18446744073709551615").unwrap(), u64::MAX);
        assert_eq!(parse_id("42").unwrap(), 42);
        // Other literals keep the f64 cast: truncating, saturating.
        assert_eq!(parse_id("42.9").unwrap(), 42);
        assert_eq!(parse_id("-5").unwrap(), 0);
        assert_eq!(parse_id("1e3").unwrap(), 1000);
        assert_eq!(parse_id("18446744073709551616").unwrap(), u64::MAX);
        assert!(parse_id("x").is_err());
    }
}
