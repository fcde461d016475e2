//! Punycode: the Bootstring encoding of RFC 3492.
//!
//! Implemented from the RFC directly (parameters of §5, algorithms of §6).
//! Decoding and the round-trip comparison run in buffers sized from the
//! input ([`decode_chars`], [`encodes_to`]), on the stack for anything a
//! 63-octet DNS label can carry; [`decode`] and [`encode`] build `String`s
//! on top of the same code.

/// Decoding failure reasons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PunycodeError {
    /// A basic (pre-delimiter) code point was not ASCII.
    NonBasicCodePoint,
    /// An extended digit was outside `[a-z0-9]`.
    InvalidDigit,
    /// Arithmetic overflowed (RFC 3492 §6.4 guard).
    Overflow,
    /// The decoded value is not a Unicode scalar (e.g. a surrogate).
    InvalidCodePoint,
    /// Input ended in the middle of a delta.
    Truncated,
}

const BASE: u32 = 36;
const TMIN: u32 = 1;
const TMAX: u32 = 26;
const SKEW: u32 = 38;
const DAMP: u32 = 700;
const INITIAL_BIAS: u32 = 72;
const INITIAL_N: u32 = 128;
const DELIMITER: char = '-';

fn adapt(mut delta: u32, num_points: u32, first_time: bool) -> u32 {
    delta /= if first_time { DAMP } else { 2 };
    delta += delta / num_points;
    let mut k = 0;
    while delta > ((BASE - TMIN) * TMAX) / 2 {
        delta /= BASE - TMIN;
        k += BASE;
    }
    k + (((BASE - TMIN + 1) * delta) / (delta + SKEW))
}

fn digit_to_char(d: u32) -> char {
    debug_assert!(d < BASE);
    if d < 26 {
        (b'a' + d as u8) as char
    } else {
        (b'0' + (d - 26) as u8) as char
    }
}

fn char_to_digit(c: char) -> Option<u32> {
    match c {
        'a'..='z' => Some(c as u32 - 'a' as u32),
        'A'..='Z' => Some(c as u32 - 'A' as u32),
        '0'..='9' => Some(c as u32 - '0' as u32 + 26),
        _ => None,
    }
}

/// Capacity of the stack buffers [`decode_chars`] uses: a whole DNS label
/// (RFC 1034 §3.1). Longer inputs decode on the heap.
const LABEL_CAP: usize = 63;

/// The code points one Punycode string decodes to.
///
/// Decoding never yields more code points than the input has octets (each
/// basic code point and each delta consumes at least one), so a buffer of
/// `input.len()` characters always suffices: on the stack when that fits
/// a 63-octet label, on the heap otherwise.
#[derive(Debug, Clone)]
pub struct Decoded {
    stack: [char; LABEL_CAP],
    heap: Vec<char>,
    len: usize,
}

impl Decoded {
    /// The decoded code points, in order.
    pub fn as_slice(&self) -> &[char] {
        let buf = if self.heap.is_empty() { self.stack.as_slice() } else { self.heap.as_slice() };
        buf.get(..self.len).unwrap_or(buf)
    }

    /// Lowercase the ASCII code points in place. Deltas only insert code
    /// points ≥ U+0080, so this equals decoding the ASCII-lowercased input.
    pub fn make_ascii_lowercase(&mut self) {
        let len = self.len;
        let buf = if self.heap.is_empty() { self.stack.as_mut_slice() } else { self.heap.as_mut_slice() };
        for c in buf.iter_mut().take(len) {
            c.make_ascii_lowercase();
        }
    }

    /// Run `f` on the decoded text: UTF-8 in a stack buffer when the code
    /// points fit a label, a `String` beyond that.
    pub fn with_str<R>(&self, f: impl FnOnce(&str) -> R) -> R {
        let chars = self.as_slice();
        if chars.len() > LABEL_CAP {
            return f(&chars.iter().collect::<String>());
        }
        let mut bytes = [0u8; 4 * LABEL_CAP];
        let mut len = 0;
        for c in chars {
            let Some(slot) = bytes.get_mut(len..) else { break };
            len += c.encode_utf8(slot).len();
        }
        // Whole characters were encoded, so the prefix is valid UTF-8.
        f(bytes.get(..len).and_then(|b| std::str::from_utf8(b).ok()).unwrap_or_default())
    }
}

/// Encode a Unicode string as Punycode (without any `xn--` prefix).
///
/// Returns `None` on overflow (inputs beyond the algorithm's range).
pub fn encode(input: &str) -> Option<String> {
    let mut output = String::with_capacity(input.len());
    encode_with(input.chars(), |c| {
        output.push(c);
        true
    })?;
    Some(output)
}

/// Does `chars` encode to `expected`, ignoring ASCII case? Compares the
/// encoder's output as it is produced, without building it; an input
/// [`encode`] rejects never matches. Equal to
/// `encode(s).is_some_and(|e| e.eq_ignore_ascii_case(expected))` for the
/// string `s` of `chars`.
pub fn encodes_to(chars: &[char], expected: &str) -> bool {
    let mut want = expected.bytes();
    let complete = encode_with(chars.iter().copied(), |c| {
        want.next().is_some_and(|b| c.is_ascii() && b.eq_ignore_ascii_case(&(c as u8)))
    });
    complete.is_some() && want.next().is_none()
}

/// RFC 3492 §6.3 over a re-iterable code-point sequence. Each output
/// character goes to `emit`, which returns `false` to stop early. `None`
/// on overflow or when `emit` stopped.
fn encode_with<I>(input: I, mut emit: impl FnMut(char) -> bool) -> Option<()>
where
    I: Iterator<Item = char> + Clone,
{
    let mut put = |c: char| emit(c).then_some(());
    let total = input.clone().count();
    let mut basic = 0usize;
    for c in input.clone().filter(char::is_ascii) {
        put(c)?;
        basic += 1;
    }
    let b = u32::try_from(basic).ok()?;
    let mut h = b;
    // RFC 3492 §6.3: the delimiter is emitted whenever there are basic code
    // points, even if no extended code points follow ("-> $1.00 <-" encodes
    // to "-> $1.00 <--").
    if b > 0 {
        put(DELIMITER)?;
    }
    let mut n = INITIAL_N;
    let mut delta: u32 = 0;
    let mut bias = INITIAL_BIAS;
    while (h as usize) < total {
        let m = input.clone().map(u32::from).filter(|&c| c >= n).min()?;
        delta = delta.checked_add((m - n).checked_mul(h + 1)?)?;
        n = m;
        for c in input.clone().map(u32::from) {
            if c < n {
                delta = delta.checked_add(1)?;
            }
            if c == n {
                let mut q = delta;
                let mut k = BASE;
                loop {
                    let t = if k <= bias {
                        TMIN
                    } else if k >= bias + TMAX {
                        TMAX
                    } else {
                        k - bias
                    };
                    if q < t {
                        break;
                    }
                    put(digit_to_char(t + (q - t) % (BASE - t)))?;
                    q = (q - t) / (BASE - t);
                    k += BASE;
                }
                put(digit_to_char(q))?;
                bias = adapt(delta, h + 1, h == b);
                delta = 0;
                h += 1;
            }
        }
        delta = delta.checked_add(1)?;
        n = n.checked_add(1)?;
    }
    Some(())
}

/// Decode a Punycode string (without any `xn--` prefix).
pub fn decode(input: &str) -> Result<String, PunycodeError> {
    decode_chars(input).map(|d| d.as_slice().iter().collect())
}

/// Decode a Punycode string into a [`Decoded`] buffer: the same result as
/// [`decode`], without building a `String` (and, for inputs of at most 63
/// octets, without touching the heap).
pub fn decode_chars(input: &str) -> Result<Decoded, PunycodeError> {
    let mut out = Decoded { stack: ['\0'; LABEL_CAP], heap: Vec::new(), len: 0 };
    if input.len() > LABEL_CAP {
        out.heap = vec!['\0'; input.len()];
    }
    let buf = if out.heap.is_empty() { out.stack.as_mut_slice() } else { out.heap.as_mut_slice() };
    out.len = decode_into(input, buf)?;
    Ok(out)
}

/// RFC 3492 §6.2 into `out`, which must hold `input.len()` characters (see
/// [`Decoded`]); returns how many it wrote.
fn decode_into(input: &str, out: &mut [char]) -> Result<usize, PunycodeError> {
    let (basic_part, extended) = match input.rsplit_once(DELIMITER) {
        Some((basic, ext)) => (basic, ext),
        None => ("", input),
    };
    let mut len = 0usize;
    for c in basic_part.chars() {
        if !c.is_ascii() {
            return Err(PunycodeError::NonBasicCodePoint);
        }
        // The buffer holds one character per input octet, so the slot
        // always exists.
        *out.get_mut(len).ok_or(PunycodeError::Overflow)? = c;
        len += 1;
    }
    let mut n = INITIAL_N;
    let mut i: u32 = 0;
    let mut bias = INITIAL_BIAS;
    let mut iter = extended.chars().peekable();
    while iter.peek().is_some() {
        let old_i = i;
        let mut w: u32 = 1;
        let mut k = BASE;
        loop {
            let c = iter.next().ok_or(PunycodeError::Truncated)?;
            let digit = char_to_digit(c).ok_or(PunycodeError::InvalidDigit)?;
            i = i
                .checked_add(digit.checked_mul(w).ok_or(PunycodeError::Overflow)?)
                .ok_or(PunycodeError::Overflow)?;
            let t = if k <= bias {
                TMIN
            } else if k >= bias + TMAX {
                TMAX
            } else {
                k - bias
            };
            if digit < t {
                break;
            }
            w = w.checked_mul(BASE - t).ok_or(PunycodeError::Overflow)?;
            k += BASE;
        }
        let count = len as u32 + 1;
        bias = adapt(i - old_i, count, old_i == 0);
        n = n
            .checked_add(i / count)
            .ok_or(PunycodeError::Overflow)?;
        i %= count;
        let ch = char::from_u32(n).ok_or(PunycodeError::InvalidCodePoint)?;
        // Insert at `i` (≤ len): every delta consumed at least one input
        // octet, so `len < out.len()` holds here.
        let at = i as usize;
        if len >= out.len() {
            return Err(PunycodeError::Overflow);
        }
        out.copy_within(at..len, at + 1);
        *out.get_mut(at).ok_or(PunycodeError::Overflow)? = ch;
        len += 1;
        i += 1;
    }
    Ok(len)
}

#[cfg(test)]
mod tests {
    use super::*;

    // RFC 3492 §7.1 sample strings.
    #[test]
    fn rfc_sample_arabic() {
        let u = "\u{644}\u{64A}\u{647}\u{645}\u{627}\u{628}\u{62A}\u{643}\u{644}\u{645}\u{648}\u{634}\u{639}\u{631}\u{628}\u{64A}\u{61F}";
        let p = "egbpdaj6bu4bxfgehfvwxn";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn rfc_sample_chinese_simplified() {
        let u = "\u{4ED6}\u{4EEC}\u{4E3A}\u{4EC0}\u{4E48}\u{4E0D}\u{8BF4}\u{4E2D}\u{6587}";
        let p = "ihqwcrb4cv8a8dqg056pqjye";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn rfc_sample_mixed_ascii() {
        // (S) -> $1.00 <-
        let u = "-> $1.00 <-";
        let p = "-> $1.00 <--";
        assert_eq!(encode(u).unwrap(), p);
        assert_eq!(decode(p).unwrap(), u);
    }

    #[test]
    fn common_domains() {
        assert_eq!(encode("münchen").unwrap(), "mnchen-3ya");
        assert_eq!(decode("mnchen-3ya").unwrap(), "münchen");
        assert_eq!(encode("中国").unwrap(), "fiqs8s");
        assert_eq!(decode("fiqs8s").unwrap(), "中国");
        assert_eq!(encode("bücher").unwrap(), "bcher-kva");
    }

    #[test]
    fn pure_ascii_round_trip() {
        assert_eq!(encode("example").unwrap(), "example-");
        assert_eq!(decode("example-").unwrap(), "example");
    }

    #[test]
    fn paper_deceptive_label() {
        // §6.1 P1.3: "xn--www-hn0a" is "\u{200E}www" — LRM prepended.
        assert_eq!(decode("www-hn0a").unwrap(), "\u{200E}www");
        assert_eq!(encode("\u{200E}www").unwrap(), "www-hn0a");
    }

    #[test]
    fn rejects_malformed() {
        assert_eq!(decode("é-abc"), Err(PunycodeError::NonBasicCodePoint));
        assert_eq!(decode("abc-!!!"), Err(PunycodeError::InvalidDigit));
        // A delta engineered to overflow.
        assert_eq!(decode("99999999999"), Err(PunycodeError::Overflow));
    }

    #[test]
    fn empty_input() {
        assert_eq!(encode("").unwrap(), "");
        assert_eq!(decode("").unwrap(), "");
    }
}
