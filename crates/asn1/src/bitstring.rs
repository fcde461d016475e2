//! BIT STRING values (signatures, public keys, KeyUsage flags).

use crate::error::{Error, Result};

/// A decoded BIT STRING: bytes plus a count of unused trailing bits.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitString {
    /// Number of unused bits in the final octet (0–7).
    pub unused_bits: u8,
    /// The data octets.
    pub bytes: Vec<u8>,
}

impl BitString {
    /// A byte-aligned bit string.
    pub fn from_bytes(bytes: &[u8]) -> BitString {
        BitString { unused_bits: 0, bytes: bytes.to_vec() }
    }

    /// Parse BIT STRING content octets.
    pub fn from_der_value(value: &[u8]) -> Result<BitString> {
        let (unused, data) = BitString::split_der_value(value)?;
        Ok(BitString { unused_bits: unused, bytes: data.to_vec() })
    }

    /// Validate BIT STRING content octets and split them into
    /// `(unused_bits, data)` without copying — the zero-copy view's form
    /// of [`BitString::from_der_value`], sharing its exact checks.
    #[inline]
    pub fn split_der_value(value: &[u8]) -> Result<(u8, &[u8])> {
        let (&unused, data) = value.split_first().ok_or(Error::InvalidBitString)?;
        if unused > 7 || (data.is_empty() && unused != 0) {
            return Err(Error::InvalidBitString);
        }
        if unused > 0 {
            // DER: unused bits must be zero.
            let last = *data.last().ok_or(Error::InvalidBitString)?;
            if last & ((1u16 << unused) as u8).wrapping_sub(1) != 0 {
                return Err(Error::InvalidBitString);
            }
        }
        Ok((unused, data))
    }

    /// Encode to content octets.
    pub fn to_der_value(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.bytes.len() + 1);
        out.push(self.unused_bits);
        out.extend_from_slice(&self.bytes);
        out
    }

    /// Bit `i` (0 = most significant bit of the first octet), as KeyUsage
    /// flags are numbered.
    pub fn bit(&self, i: usize) -> bool {
        let total_bits = self.bytes.len() * 8 - self.unused_bits as usize;
        if i >= total_bits {
            return false;
        }
        self.bytes.get(i / 8).is_some_and(|b| b & (0x80 >> (i % 8)) != 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip() {
        let bs = BitString::from_bytes(&[0xA5, 0x5A]);
        let der = bs.to_der_value();
        assert_eq!(der, vec![0x00, 0xA5, 0x5A]);
        assert_eq!(BitString::from_der_value(&der).unwrap(), bs);
    }

    #[test]
    fn rejects_bad_unused() {
        assert!(BitString::from_der_value(&[]).is_err());
        assert!(BitString::from_der_value(&[8, 0xFF]).is_err());
        assert!(BitString::from_der_value(&[3]).is_err()); // unused with no data
        assert!(BitString::from_der_value(&[1, 0x01]).is_err()); // nonzero padding
        assert!(BitString::from_der_value(&[1, 0x02]).is_ok());
    }

    #[test]
    fn bit_indexing_matches_key_usage() {
        // digitalSignature is bit 0 (MSB of first octet).
        let bs = BitString::from_der_value(&[0x07, 0x80]).unwrap();
        assert!(bs.bit(0));
        assert!(!bs.bit(1));
        assert!(!bs.bit(5)); // within unused region
    }
}
