//! The workspace's one JSON writer.
//!
//! Every JSON document the workspace emits (Chrome trace exports, power
//! waveforms, the serving sweep's policy matrix) streams through a
//! [`JsonWriter`]: values are appended straight into one pre-sized
//! buffer, never built as per-event `String`s. The writer has no notion of
//! nesting; the caller supplies the structure as literal fragments and the
//! writer renders the values between them:
//!
//! - [`raw`](JsonWriter::raw) appends a literal fragment (punctuation,
//!   keys, layout whitespace) verbatim;
//! - [`uint`](JsonWriter::uint) renders an unsigned integer without going
//!   through `core::fmt`, byte-identical to `{}`;
//! - [`float`](JsonWriter::float) renders a finite float through `{}` (the
//!   shortest form that round-trips, never an exponent), and
//!   [`fixed`](JsonWriter::fixed) through `{:.N}`;
//! - [`string`](JsonWriter::string) renders a quoted string with `"`, `\`
//!   and control characters escaped.
//!
//! JSON has no NaN or infinity, so both float paths render a non-finite
//! value as `null`: every document the writer produces parses.
//!
//! ```
//! use npu_arch::json::JsonWriter;
//!
//! let mut w = JsonWriter::with_capacity(64);
//! w.raw("{\"name\":").string("sa\t0").raw(",\"ts\":").uint(1_024);
//! w.raw(",\"watts\":").float(2.5).raw(",\"ratio\":").float(f64::NAN).raw("}");
//! assert_eq!(w.finish(), r#"{"name":"sa\t0","ts":1024,"watts":2.5,"ratio":null}"#);
//! ```

use std::io::Write as _;

/// `"00" "01" … "99"`: two ASCII digits per value below 100.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// A streaming JSON writer over one growable buffer (see the module docs).
#[derive(Debug, Default)]
pub struct JsonWriter {
    out: Vec<u8>,
}

impl JsonWriter {
    /// An empty writer whose buffer holds `bytes` before it reallocates.
    #[must_use]
    pub fn with_capacity(bytes: usize) -> Self {
        JsonWriter { out: Vec::with_capacity(bytes) }
    }

    /// Appends a literal fragment verbatim. The caller keeps the document
    /// well formed.
    #[inline]
    pub fn raw(&mut self, fragment: &str) -> &mut Self {
        self.out.extend_from_slice(fragment.as_bytes());
        self
    }

    /// Appends an unsigned integer in decimal, the same bytes as `{}`.
    #[inline]
    pub fn uint(&mut self, value: u64) -> &mut Self {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        let mut rest = value;
        while rest >= 100 {
            let pair = (rest % 100) as usize * 2;
            rest /= 100;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if rest >= 10 {
            let pair = rest as usize * 2;
            at -= 2;
            digits[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            at -= 1;
            digits[at] = b'0' + rest as u8;
        }
        self.out.extend_from_slice(&digits[at..]);
        self
    }

    /// Appends a float the way `{}` prints it: the shortest decimal that
    /// round-trips, with no exponent. NaN and ±inf render as `null`.
    pub fn float(&mut self, value: f64) -> &mut Self {
        if value.is_finite() {
            let _ = write!(self.out, "{value}");
        } else {
            self.out.extend_from_slice(b"null");
        }
        self
    }

    /// Appends a float with exactly `decimals` digits after the point, the
    /// same bytes as `{:.decimals$}`. NaN and ±inf render as `null`.
    pub fn fixed(&mut self, value: f64, decimals: usize) -> &mut Self {
        if value.is_finite() {
            let _ = write!(self.out, "{value:.decimals$}");
        } else {
            self.out.extend_from_slice(b"null");
        }
        self
    }

    /// Appends `s` as a quoted JSON string: `"` and `\` are backslashed,
    /// newline, carriage return and tab take their short escapes, the
    /// other control characters below U+0020 become `\u00XX`, and every
    /// other character is copied as is.
    pub fn string(&mut self, s: &str) -> &mut Self {
        self.out.push(b'"');
        for b in s.bytes() {
            match b {
                b'"' => self.out.extend_from_slice(b"\\\""),
                b'\\' => self.out.extend_from_slice(b"\\\\"),
                b'\n' => self.out.extend_from_slice(b"\\n"),
                b'\r' => self.out.extend_from_slice(b"\\r"),
                b'\t' => self.out.extend_from_slice(b"\\t"),
                b if b < 0x20 => {
                    let _ = write!(self.out, "\\u{b:04x}");
                }
                b => self.out.push(b),
            }
        }
        self.out.push(b'"');
        self
    }

    /// The rendered document.
    ///
    /// # Panics
    ///
    /// Only if the buffer is not UTF-8, which no path allows: fragments
    /// and strings are copied from `&str` (escapes replace ASCII bytes
    /// only), and numbers are ASCII.
    #[must_use]
    pub fn finish(self) -> String {
        String::from_utf8(self.out).expect("the writer appends only UTF-8")
    }
}
