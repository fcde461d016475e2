//! ASN.1 INTEGER helpers (minimal two's-complement, big-endian).

use crate::error::{Error, Result};

/// Encode a `u64` as minimal DER INTEGER content octets.
pub fn encode_u64(v: u64) -> Vec<u8> {
    let bytes = v.to_be_bytes();
    let skip = bytes.iter().take_while(|&&b| b == 0).count().min(7);
    let mut body = bytes.get(skip..).unwrap_or(&[0]).to_vec();
    if body.first().is_some_and(|b| b & 0x80 != 0) {
        body.insert(0, 0); // keep non-negative
    }
    body
}

/// Encode an unsigned big-endian magnitude as DER INTEGER content octets.
///
/// Strips redundant leading zeros, then prepends one zero octet if the top
/// bit is set (the value is unsigned). An empty magnitude encodes zero.
pub fn encode_unsigned(magnitude: &[u8]) -> Vec<u8> {
    let skip = magnitude.iter().take_while(|&&b| b == 0).count();
    let trimmed = magnitude.get(skip..).unwrap_or(&[]);
    if trimmed.is_empty() {
        return vec![0];
    }
    let mut body = trimmed.to_vec();
    if body[0] & 0x80 != 0 {
        body.insert(0, 0);
    }
    body
}

/// Validate DER INTEGER content octets (non-empty, minimally encoded).
#[inline]
pub fn validate(body: &[u8]) -> Result<()> {
    match body {
        [] => Err(Error::InvalidInteger),
        [_] => Ok(()),
        [0x00, second, ..] if *second & 0x80 == 0 => Err(Error::InvalidInteger),
        [0xFF, second, ..] if *second & 0x80 != 0 => Err(Error::InvalidInteger),
        _ => Ok(()),
    }
}

/// Decode content octets into a `u64`, rejecting negatives and overflow.
#[inline]
pub fn decode_u64(body: &[u8]) -> Result<u64> {
    validate(body)?;
    if body[0] & 0x80 != 0 {
        return Err(Error::IntegerOverflow); // negative
    }
    let digits: &[u8] = if body[0] == 0 { &body[1..] } else { body };
    if digits.len() > 8 {
        return Err(Error::IntegerOverflow);
    }
    let mut v: u64 = 0;
    for &b in digits {
        v = (v << 8) | b as u64;
    }
    Ok(v)
}

/// Decode content octets into an `i64`.
pub fn decode_i64(body: &[u8]) -> Result<i64> {
    validate(body)?;
    if body.len() > 8 {
        return Err(Error::IntegerOverflow);
    }
    let mut v: i64 = if body[0] & 0x80 != 0 { -1 } else { 0 };
    for &b in body {
        v = (v << 8) | b as i64;
    }
    Ok(v)
}

/// The unsigned magnitude of a non-negative INTEGER body (leading sign octet
/// removed). Used for certificate serial numbers, which may be up to 20
/// octets (CABF BR §7.1).
#[inline]
pub fn unsigned_magnitude(body: &[u8]) -> Result<&[u8]> {
    validate(body)?;
    if body[0] & 0x80 != 0 {
        return Err(Error::IntegerOverflow);
    }
    Ok(if body.len() > 1 && body[0] == 0 { &body[1..] } else { body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u64_round_trip() {
        for v in [0u64, 1, 127, 128, 255, 256, 0x7FFF_FFFF, u64::MAX] {
            let body = encode_u64(v);
            validate(&body).unwrap();
            assert_eq!(decode_u64(&body).unwrap(), v, "v={v}");
        }
    }

    #[test]
    fn minimal_encodings() {
        assert_eq!(encode_u64(0), vec![0x00]);
        assert_eq!(encode_u64(127), vec![0x7F]);
        assert_eq!(encode_u64(128), vec![0x00, 0x80]);
        assert_eq!(encode_u64(256), vec![0x01, 0x00]);
    }

    #[test]
    fn rejects_non_minimal() {
        assert_eq!(validate(&[0x00, 0x7F]), Err(Error::InvalidInteger));
        assert_eq!(validate(&[0xFF, 0x80]), Err(Error::InvalidInteger));
        assert_eq!(validate(&[]), Err(Error::InvalidInteger));
        validate(&[0x00, 0x80]).unwrap(); // needed zero
        validate(&[0xFF, 0x7F]).unwrap(); // needed sign
    }

    #[test]
    fn i64_decoding() {
        assert_eq!(decode_i64(&[0xFF]).unwrap(), -1);
        assert_eq!(decode_i64(&[0x80]).unwrap(), -128);
        assert_eq!(decode_i64(&[0x00, 0x80]).unwrap(), 128);
    }

    #[test]
    fn unsigned_magnitude_strips_sign_octet() {
        assert_eq!(unsigned_magnitude(&[0x00, 0x80]).unwrap(), &[0x80]);
        assert_eq!(unsigned_magnitude(&[0x7F]).unwrap(), &[0x7F]);
        assert!(unsigned_magnitude(&[0xFF]).is_err());
    }

    #[test]
    fn twenty_octet_serials_survive() {
        let serial = [0x7Au8; 20];
        let body = encode_unsigned(&serial);
        assert_eq!(unsigned_magnitude(&body).unwrap(), &serial);
    }
}
