//! Wire plumbing: a JSON parser over [`dfm_bench::json::JsonValue`],
//! bounded line framing, hex payload transport, and the report digest.
//!
//! The parser is the read half of the workspace's hand-rolled JSON
//! story (the write half lives in [`dfm_bench::json`]). It is total:
//! any byte soup returns `Err`, never a panic — fuzzed in the wire
//! protocol tests.

use dfm_bench::json::JsonValue;
use std::io::BufRead;

/// Maximum accepted request/response line, bytes. Big enough for a
/// multi-megabyte hex GDS upload, small enough to bound a hostile
/// connection's memory.
pub const MAX_LINE_BYTES: usize = 64 * 1024 * 1024;

/// Maximum JSON nesting depth the parser follows.
const MAX_DEPTH: usize = 64;

/// Parses one JSON document (object/array/scalar) from `s`, in time
/// linear in its length.
///
/// # Errors
///
/// A human-readable message with a byte offset; never panics, at any
/// input.
pub fn parse_json(s: &str) -> Result<JsonValue, String> {
    let bytes = s.as_bytes();
    let mut p = Parser { bytes, pos: 0 };
    p.skip_ws();
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != bytes.len() {
        return Err(format!("trailing bytes at offset {}", p.pos));
    }
    Ok(v)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at offset {}", b as char, self.pos))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, String> {
        if depth > MAX_DEPTH {
            return Err(format!("nesting deeper than {MAX_DEPTH} at offset {}", self.pos));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::Str(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            Some(c) => Err(format!("unexpected byte 0x{c:02x} at offset {}", self.pos)),
            None => Err(format!("unexpected end of input at offset {}", self.pos)),
        }
    }

    fn literal(&mut self, lit: &str, v: JsonValue) -> Result<JsonValue, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("bad literal at offset {}", self.pos))
        }
    }

    fn number(&mut self) -> Result<JsonValue, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| format!("non-utf8 number at offset {start}"))?;
        let n: f64 = text
            .parse()
            .map_err(|_| format!("bad number '{text}' at offset {start}"))?;
        if n.is_finite() {
            Ok(JsonValue::Num(n))
        } else {
            Err(format!("non-finite number at offset {start}"))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Take the run of plain bytes up to the next `"`, `\` or
            // control byte in one slice. A run ends only at an ASCII
            // byte, which is always a char boundary, so each byte is
            // validated once and the scan stays linear in the input.
            let start = self.pos;
            let rest = &self.bytes[start..];
            let run = rest
                .iter()
                .position(|&c| c == b'"' || c == b'\\' || c < 0x20)
                .unwrap_or(rest.len());
            if run > 0 {
                let text = std::str::from_utf8(&rest[..run]).map_err(|e| {
                    format!("non-utf8 string at offset {}", start + e.valid_up_to())
                })?;
                out.push_str(text);
                self.pos += run;
            }
            match self.peek() {
                None => return Err("unterminated string".to_string()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{8}'),
                        Some(b'f') => out.push('\u{c}'),
                        Some(b'u') => {
                            let cp = self.unicode_escape()?;
                            out.push(cp);
                            continue;
                        }
                        _ => return Err(format!("bad escape at offset {}", self.pos)),
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    return Err(format!("raw control character at offset {}", self.pos));
                }
            }
        }
    }

    fn unicode_escape(&mut self) -> Result<char, String> {
        // self.pos is at the 'u'.
        let hex_at = |p: &Parser<'a>, at: usize| -> Result<u32, String> {
            let h = p
                .bytes
                .get(at..at + 4)
                .and_then(|b| std::str::from_utf8(b).ok())
                .ok_or_else(|| format!("truncated \\u escape at offset {}", at))?;
            u32::from_str_radix(h, 16).map_err(|_| format!("bad \\u escape at offset {at}"))
        };
        let u1 = hex_at(self, self.pos + 1)?;
        self.pos += 5;
        if (0xd800..0xdc00).contains(&u1) {
            // High surrogate: require a following \uXXXX low surrogate.
            if self.bytes.get(self.pos) == Some(&b'\\') && self.bytes.get(self.pos + 1) == Some(&b'u')
            {
                let u2 = hex_at(self, self.pos + 2)?;
                if (0xdc00..0xe000).contains(&u2) {
                    self.pos += 6;
                    let cp = 0x10000 + ((u1 - 0xd800) << 10) + (u2 - 0xdc00);
                    return char::from_u32(cp).ok_or_else(|| "bad surrogate pair".to_string());
                }
            }
            return Err("lone high surrogate".to_string());
        }
        char::from_u32(u1).ok_or_else(|| "bad \\u codepoint".to_string())
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            let v = self.value(depth + 1)?;
            pairs.push((key, v));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(pairs));
                }
                _ => return Err(format!("expected ',' or '}}' at offset {}", self.pos)),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Arr(items));
        }
        loop {
            let v = self.value(depth + 1)?;
            items.push(v);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at offset {}", self.pos)),
            }
        }
    }
}

/// Reads one `\n`-terminated frame, rejecting lines longer than
/// `max_bytes`. Returns `Ok(None)` on a clean EOF before any byte.
/// Handles partial reads by construction ([`BufRead::fill_buf`] loops
/// until the delimiter arrives).
///
/// # Errors
///
/// `Err` on I/O failure, an over-long line, or EOF mid-line.
pub fn read_frame(reader: &mut impl BufRead, max_bytes: usize) -> Result<Option<String>, String> {
    let mut line: Vec<u8> = Vec::new();
    loop {
        let buf = reader.fill_buf().map_err(|e| format!("read: {e}"))?;
        if buf.is_empty() {
            return if line.is_empty() {
                Ok(None)
            } else {
                Err("eof inside frame".to_string())
            };
        }
        let take = buf.iter().position(|&b| b == b'\n');
        match take {
            Some(i) => {
                if line.len() + i > max_bytes {
                    return Err(format!("frame longer than {max_bytes} bytes"));
                }
                line.extend_from_slice(&buf[..i]);
                reader.consume(i + 1);
                let s = String::from_utf8(line).map_err(|_| "frame is not utf-8".to_string())?;
                return Ok(Some(s));
            }
            None => {
                let n = buf.len();
                if line.len() + n > max_bytes {
                    // Drain what we can see, then refuse: the caller
                    // closes the connection, bounding memory.
                    return Err(format!("frame longer than {max_bytes} bytes"));
                }
                line.extend_from_slice(buf);
                reader.consume(n);
            }
        }
    }
}

/// Hex-encodes binary payloads (GDS uploads) for the JSON transport.
pub fn to_hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push(char::from_digit((b >> 4) as u32, 16).expect("nibble"));
        s.push(char::from_digit((b & 0xf) as u32, 16).expect("nibble"));
    }
    s
}

/// Decodes [`to_hex`] output.
///
/// # Errors
///
/// On odd length or a non-hex digit.
pub fn from_hex(s: &str) -> Result<Vec<u8>, String> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(2) {
        return Err("hex payload has odd length".to_string());
    }
    let nib = |c: u8| -> Result<u8, String> {
        match c {
            b'0'..=b'9' => Ok(c - b'0'),
            b'a'..=b'f' => Ok(c - b'a' + 10),
            b'A'..=b'F' => Ok(c - b'A' + 10),
            _ => Err(format!("bad hex digit 0x{c:02x}")),
        }
    };
    let mut out = Vec::with_capacity(bytes.len() / 2);
    for pair in bytes.chunks_exact(2) {
        out.push((nib(pair[0])? << 4) | nib(pair[1])?);
    }
    Ok(out)
}

/// The 64-bit digest printed in a report's `drc:` and `litho.printed:`
/// lines, and the one the cache's spec/deck keys and the coordinator id
/// are derived from.
///
/// This is **not** FNV-1a: it has FNV-1a's shape and offset basis but
/// multiplies by `0x1000_0000_01b3` instead of the FNV prime
/// `0x100_0000_01b3`. It is kept bit-for-bit because its output is
/// part of every rendered report (and so of the golden report digest)
/// and of every cache key on disk. New digests use FNV-1a
/// (`dfm_rand::fnv1a_64`).
pub fn signoff_digest_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    #[test]
    fn parses_what_the_writer_renders() {
        let doc = JsonValue::obj([
            ("cmd", JsonValue::str("submit")),
            ("n", JsonValue::Num(42.0)),
            ("frac", JsonValue::Num(-0.125)),
            ("flag", JsonValue::Bool(false)),
            ("null", JsonValue::Null),
            (
                "arr",
                JsonValue::Arr(vec![JsonValue::Num(1.0), JsonValue::str("x\"y\n")]),
            ),
        ]);
        let parsed = parse_json(&doc.render()).expect("parse");
        assert_eq!(parsed, doc);
    }

    #[test]
    fn rejects_garbage_with_errors_not_panics() {
        for bad in [
            "", "{", "}", "[1,", "{\"a\"", "{\"a\":}", "tru", "nul", "1e999", "\"\\q\"",
            "\"unterminated", "{\"a\":1}x", "\"\\ud800\"", "01e", "--3",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn string_errors_keep_their_messages_and_offsets() {
        for (bad, msg) in [
            ("\"ab\u{1}c\"", "raw control character at offset 3"),
            ("\"é\n\"", "raw control character at offset 3"),
            ("\"abc", "unterminated string"),
            ("\"abc\\", "bad escape at offset 5"),
            ("\"a\\qb\"", "bad escape at offset 3"),
            ("[\"é\\x\"]", "bad escape at offset 5"),
        ] {
            assert_eq!(parse_json(bad), Err(msg.to_string()), "{bad:?}");
        }
    }

    #[test]
    fn a_32_mb_string_parses_in_linear_time() {
        // A quadratic scan of this string would take days; the linear
        // one takes well under a second even in a debug build.
        let body: String = "0123456789abcdeé".repeat(2 * 1024 * 1024 * 16 / 17);
        let doc = format!("{{\"gds_hex\":\"{body}\\n\"}}");
        assert!(doc.len() >= 32 * 1024 * 1024);
        let started = std::time::Instant::now();
        let parsed = parse_json(&doc).expect("parse");
        let took = started.elapsed();
        assert!(took < std::time::Duration::from_secs(20), "took {took:?}");
        let s = parsed.get("gds_hex").and_then(JsonValue::as_str).expect("string");
        assert_eq!(s.len(), body.len() + 1);
        assert!(s.starts_with(&body) && s.ends_with('\n'));
    }

    #[test]
    fn escaped_strings_round_trip() {
        // Each raw value picks a character class (low 3 bits) and a
        // code point inside it (the rest), so shrinking stays on the
        // raw integers.
        fn to_char(v: u32) -> char {
            let at = v >> 3;
            let cp = match v & 7 {
                // Printable ASCII, then the control characters.
                0 => 0x20 + at % 0x5f,
                1 => at % 0x20,
                // The bytes the writer escapes or may pass through.
                2 => [0x22, 0x5c, 0x2f, 0x7f][at as usize % 4],
                // Two-, three- (either side of the surrogates) and
                // four-byte UTF-8.
                3 => 0x80 + at % 0x780,
                4 => 0x800 + at % (0xd800 - 0x800),
                5 => 0xe000 + at % 0x2000,
                _ => 0x10000 + at % 0x100000,
            };
            char::from_u32(cp).expect("valid scalar")
        }
        dfm_check::check(
            "escaped_strings_round_trip",
            &dfm_check::Config::with_cases(512),
            &dfm_check::vec(0u32..u32::MAX, 0..48),
            |raw| {
                let s: String = raw.iter().map(|&v| to_char(v)).collect();
                let back = parse_json(&dfm_bench::json::escape(&s));
                dfm_check::prop_assert_eq!(back, Ok(JsonValue::Str(s.clone())));
                Ok(())
            },
        );
    }

    #[test]
    fn depth_limit_is_an_error() {
        let deep = "[".repeat(100) + &"]".repeat(100);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(
            parse_json("\"\\u0041\\u00e9\\ud83d\\ude00\"").unwrap(),
            JsonValue::str("Aé😀")
        );
    }

    #[test]
    fn frames_split_on_newlines() {
        let mut r = BufReader::new(&b"one\ntwo\n"[..]);
        assert_eq!(read_frame(&mut r, 100).unwrap(), Some("one".to_string()));
        assert_eq!(read_frame(&mut r, 100).unwrap(), Some("two".to_string()));
        assert_eq!(read_frame(&mut r, 100).unwrap(), None);
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut r = BufReader::new(&b"aaaaaaaaaaaaaaaaaaaa\n"[..]);
        assert!(read_frame(&mut r, 8).is_err());
    }

    #[test]
    fn one_byte_at_a_time_reader_still_frames() {
        struct OneByte<'a>(&'a [u8]);
        impl std::io::Read for OneByte<'_> {
            fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
                if self.0.is_empty() {
                    return Ok(0);
                }
                buf[0] = self.0[0];
                self.0 = &self.0[1..];
                Ok(1)
            }
        }
        let mut r = BufReader::with_capacity(1, OneByte(b"hello world\n"));
        assert_eq!(
            read_frame(&mut r, 100).unwrap(),
            Some("hello world".to_string())
        );
    }

    #[test]
    fn hex_round_trips() {
        let data: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&data)).unwrap(), data);
        assert!(from_hex("abc").is_err());
        assert!(from_hex("zz").is_err());
    }

    #[test]
    fn signoff_digest_is_pinned_and_differs_from_fnv1a() {
        assert_eq!(signoff_digest_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(signoff_digest_64(b"a"), 0xaf74_d84c_8601_ec8c);
        assert_eq!(dfm_rand::fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
