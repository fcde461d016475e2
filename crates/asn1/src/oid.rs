//! OBJECT IDENTIFIER values and the X.509 OID dictionary.

use crate::error::{Error, Result};
use std::fmt;

/// Inline capacity: every OID in the X.509 dictionary (and essentially every
/// OID seen on the wire) fits in 22 content octets, so the common case never
/// touches the heap. Chosen so `size_of::<Oid>()` matches the old
/// `Vec<u8>`-backed layout (24 bytes).
const INLINE_CAP: usize = 22;

/// Storage for the DER content octets: small OIDs live inline on the stack,
/// pathological ones spill to the heap.
#[derive(Clone)]
enum Repr {
    /// The first `len` bytes of `buf` are the content octets.
    Inline {
        /// Number of valid bytes in `buf`.
        len: u8,
        /// Inline content octets (zero-padded past `len`).
        buf: [u8; INLINE_CAP],
    },
    /// Heap storage for OIDs longer than [`INLINE_CAP`].
    Heap(Box<[u8]>),
}

/// An OBJECT IDENTIFIER, stored as its DER content octets.
///
/// Storing the wire form keeps comparisons and re-encoding trivial; the arc
/// sequence is decoded on demand. The representation is a small-buffer
/// optimization: dictionary OIDs (`known::*`) and everything certificates
/// carry in practice are built, cloned, and compared without allocating.
#[derive(Clone)]
pub struct Oid {
    repr: Repr,
}

impl Oid {
    /// Build from raw content octets already validated by the caller.
    #[inline]
    fn from_bytes(der: &[u8]) -> Oid {
        if der.len() <= INLINE_CAP {
            let mut buf = [0u8; INLINE_CAP];
            for (dst, src) in buf.iter_mut().zip(der) {
                *dst = *src;
            }
            Oid { repr: Repr::Inline { len: der.len() as u8, buf } }
        } else {
            Oid { repr: Repr::Heap(der.into()) }
        }
    }

    /// Build from an arc sequence, e.g. `&[2, 5, 4, 3]` for `id-at-commonName`.
    ///
    /// Returns `None` for sequences that cannot be encoded (fewer than two
    /// arcs, first/second arcs out of range, or a first subidentifier
    /// `40 * a0 + a1` past `u64::MAX`).
    pub fn from_arcs(arcs: &[u64]) -> Option<Oid> {
        let mut buf = [0u8; INLINE_CAP];
        let len = encode_arcs(arcs, &mut buf)?;
        if len <= INLINE_CAP {
            return Some(Oid { repr: Repr::Inline { len: len as u8, buf } });
        }
        let mut der = vec![0u8; len]; // analysis:allow(unbounded_alloc) the length is the exact encoding of caller-supplied arcs on the builder path, not attacker-controlled input
        encode_arcs(arcs, &mut der);
        Some(Oid { repr: Repr::Heap(der.into()) })
    }

    /// The dictionary constructor behind [`known`]: `arcs` encoded inline,
    /// evaluated when a `known` constant is, so an entry that cannot be
    /// encoded within [`INLINE_CAP`] octets fails the build.
    const fn dictionary(arcs: &[u64]) -> Oid {
        let mut buf = [0u8; INLINE_CAP];
        match encode_arcs(arcs, &mut buf) {
            Some(len) if len <= INLINE_CAP => Oid { repr: Repr::Inline { len: len as u8, buf } },
            _ => panic!("dictionary OID does not encode inline"), // analysis:allow(panic_macro) const-evaluated only: every call initializes a `const`, so a bad entry is a compile error
        }
    }

    /// Parse DER content octets (the V of the OID's TLV).
    #[inline]
    pub fn from_der_value(der: &[u8]) -> Result<Oid> {
        if der.last().is_none_or(|b| b & 0x80 != 0) {
            return Err(Error::InvalidOid);
        }
        // Verify each arc is minimally encoded and fits in u64: at most ten
        // septets, and a ten-septet arc's leading septet holds only bit 63.
        let mut septets = 0u8;
        let mut lead = 0u8;
        for &b in der {
            if septets == 0 {
                if b == 0x80 {
                    return Err(Error::InvalidOid); // non-minimal
                }
                lead = b;
            }
            septets += 1;
            if septets > 10 || (septets == 10 && lead > 0x81) {
                return Err(Error::InvalidOid);
            }
            if b & 0x80 == 0 {
                septets = 0;
            }
        }
        Ok(Oid::from_bytes(der))
    }

    /// Parse a dotted-decimal string like `"2.5.4.3"`.
    pub fn from_dotted(s: &str) -> Option<Oid> {
        let arcs: Option<Vec<u64>> = s.split('.').map(|p| p.parse().ok()).collect();
        Oid::from_arcs(&arcs?)
    }

    /// The DER content octets.
    #[inline]
    pub fn as_der_value(&self) -> &[u8] {
        match &self.repr {
            Repr::Inline { len, buf } => buf.get(..usize::from(*len)).unwrap_or(buf),
            Repr::Heap(der) => der,
        }
    }

    /// Decode the arc sequence.
    pub fn arcs(&self) -> Vec<u64> {
        let mut arcs = Vec::new();
        let mut iter = self.as_der_value().iter();
        let mut cur: u64 = 0;
        let mut first = true;
        for &b in iter.by_ref() {
            cur = (cur << 7) | (b & 0x7F) as u64;
            if b & 0x80 == 0 {
                if first {
                    if cur < 40 {
                        arcs.push(0);
                        arcs.push(cur);
                    } else if cur < 80 {
                        arcs.push(1);
                        arcs.push(cur - 40);
                    } else {
                        arcs.push(2);
                        arcs.push(cur - 80);
                    }
                    first = false;
                } else {
                    arcs.push(cur);
                }
                cur = 0;
            }
        }
        arcs
    }

    /// Dotted-decimal form.
    pub fn to_dotted(&self) -> String {
        self.arcs().iter().map(|a| a.to_string()).collect::<Vec<_>>().join(".")
    }

    /// Short name from the X.509 dictionary (e.g. `CN`), if known.
    pub fn short_name(&self) -> Option<&'static str> {
        known::lookup(self).map(|(short, _)| short)
    }

    /// Long name from the X.509 dictionary (e.g. `commonName`), if known.
    pub fn long_name(&self) -> Option<&'static str> {
        known::lookup(self).map(|(_, long)| long)
    }
}

// Equality, ordering, and hashing all go through the content octets so an
// inline and a heap `Oid` with the same wire form are indistinguishable.
impl PartialEq for Oid {
    #[inline]
    fn eq(&self, other: &Oid) -> bool {
        self.as_der_value() == other.as_der_value()
    }
}

impl Eq for Oid {}

impl std::hash::Hash for Oid {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_der_value().hash(state);
    }
}

impl PartialOrd for Oid {
    fn partial_cmp(&self, other: &Oid) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Oid {
    fn cmp(&self, other: &Oid) -> std::cmp::Ordering {
        self.as_der_value().cmp(other.as_der_value())
    }
}

/// The workspace's one OID encoder: writes the DER content octets of
/// `arcs` into `out`, as many as fit, and returns the full encoded length;
/// `None` when the arcs cannot be encoded (see [`Oid::from_arcs`]). A
/// `const fn`, so the [`known`] dictionary is encoded at compile time.
const fn encode_arcs(arcs: &[u64], out: &mut [u8]) -> Option<usize> {
    let [a0, a1, rest @ ..] = arcs else {
        return None;
    };
    if *a0 > 2 || (*a0 < 2 && *a1 > 39) {
        return None;
    }
    let Some(first) = (*a0 * 40).checked_add(*a1) else {
        return None;
    };
    let mut at = put_base128(first, out, 0);
    let mut rest = rest;
    while let [arc, tail @ ..] = rest {
        at = put_base128(*arc, out, at);
        rest = tail;
    }
    Some(at)
}

/// Write `v` as base-128 septets at `out[at..]`, most significant first
/// with the continuation bit on every octet but the last, dropping octets
/// past the end of `out`; returns the position after the last septet.
pub(crate) const fn put_base128(v: u64, out: &mut [u8], at: usize) -> usize {
    // Ten septets cover a u64; `top` is the highest non-zero one.
    let mut top = 9;
    while top > 0 && (v >> (7 * top)) & 0x7F == 0 {
        top -= 1;
    }
    let mut at = at;
    let mut i = top;
    loop {
        let septet = ((v >> (7 * i)) & 0x7F) as u8;
        if let Some((_, [slot, ..])) = out.split_at_mut_checked(at) {
            *slot = if i > 0 { septet | 0x80 } else { septet };
        }
        at += 1;
        if i == 0 {
            return at;
        }
        i -= 1;
    }
}

impl fmt::Debug for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.short_name() {
            Some(name) => write!(f, "Oid({} /{}/)", self.to_dotted(), name),
            None => write!(f, "Oid({})", self.to_dotted()),
        }
    }
}

impl fmt::Display for Oid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_dotted())
    }
}

/// The OID dictionary used throughout the workspace: DN attribute types
/// (Table 9 of the paper, plus App. E's tested attribute OIDs), extension
/// OIDs (Fig. 1), and algorithm identifiers for the simulated signer.
pub mod known {
    use super::Oid;

    macro_rules! oids {
        ($($(#[$doc:meta])* $name:ident = [$($arc:expr),+], $short:literal, $long:literal;)+) => {
            $(
                $(#[$doc])*
                #[inline]
                pub const fn $name() -> Oid {
                    // Encoded at compile time by the encoder `from_arcs`
                    // uses; a call copies the constant's 24 bytes (no
                    // heap, no lock, no call once inlined).
                    const OID: Oid = Oid::dictionary(&[$($arc),+]);
                    OID
                }
            )+

            /// Every entry as `(constant, arcs, short name, long name)`.
            #[cfg(test)]
            pub(super) const ENTRIES: &[(Oid, &[u64], &str, &str)] =
                &[$(($name(), &[$($arc),+], $short, $long)),+];

            /// Look up `(short_name, long_name)` for a known OID.
            pub fn lookup(oid: &Oid) -> Option<(&'static str, &'static str)> {
                $(
                    if oid == &$name() {
                        return Some(($short, $long));
                    }
                )+
                None
            }
        };
    }

    oids! {
        /// `id-at-commonName` — 2.5.4.3.
        common_name = [2, 5, 4, 3], "CN", "commonName";
        /// `id-at-surname` — 2.5.4.4.
        surname = [2, 5, 4, 4], "SN", "surname";
        /// `id-at-serialNumber` — 2.5.4.5.
        serial_number = [2, 5, 4, 5], "serialNumber", "serialNumber";
        /// `id-at-countryName` — 2.5.4.6.
        country_name = [2, 5, 4, 6], "C", "countryName";
        /// `id-at-localityName` — 2.5.4.7.
        locality_name = [2, 5, 4, 7], "L", "localityName";
        /// `id-at-stateOrProvinceName` — 2.5.4.8.
        state_or_province = [2, 5, 4, 8], "ST", "stateOrProvinceName";
        /// `id-at-streetAddress` — 2.5.4.9.
        street_address = [2, 5, 4, 9], "STREET", "streetAddress";
        /// `id-at-organizationName` — 2.5.4.10.
        organization_name = [2, 5, 4, 10], "O", "organizationName";
        /// `id-at-organizationalUnitName` — 2.5.4.11.
        organizational_unit = [2, 5, 4, 11], "OU", "organizationalUnitName";
        /// `id-at-title` — 2.5.4.12.
        title = [2, 5, 4, 12], "title", "title";
        /// `id-at-businessCategory` — 2.5.4.15.
        business_category = [2, 5, 4, 15], "businessCategory", "businessCategory";
        /// `id-at-postalCode` — 2.5.4.17.
        postal_code = [2, 5, 4, 17], "postalCode", "postalCode";
        /// `id-at-givenName` — 2.5.4.42.
        given_name = [2, 5, 4, 42], "GN", "givenName";
        /// `id-at-initials` — 2.5.4.43.
        initials = [2, 5, 4, 43], "initials", "initials";
        /// `id-at-dnQualifier` — 2.5.4.46.
        dn_qualifier = [2, 5, 4, 46], "dnQualifier", "dnQualifier";
        /// `id-at-pseudonym` — 2.5.4.65.
        pseudonym = [2, 5, 4, 65], "pseudonym", "pseudonym";
        /// EV jurisdictionLocalityName — 1.3.6.1.4.1.311.60.2.1.1.
        jurisdiction_locality = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 1], "jurisdictionL", "jurisdictionLocalityName";
        /// EV jurisdictionStateOrProvinceName — 1.3.6.1.4.1.311.60.2.1.2.
        jurisdiction_state = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 2], "jurisdictionST", "jurisdictionStateOrProvinceName";
        /// EV jurisdictionCountryName — 1.3.6.1.4.1.311.60.2.1.3.
        jurisdiction_country = [1, 3, 6, 1, 4, 1, 311, 60, 2, 1, 3], "jurisdictionC", "jurisdictionCountryName";
        /// `domainComponent` — 0.9.2342.19200300.100.1.25.
        domain_component = [0, 9, 2342, 19200300, 100, 1, 25], "DC", "domainComponent";
        /// `userId` — 0.9.2342.19200300.100.1.1.
        user_id = [0, 9, 2342, 19200300, 100, 1, 1], "UID", "userId";
        /// PKCS#9 `emailAddress` — 1.2.840.113549.1.9.1.
        email_address = [1, 2, 840, 113549, 1, 9, 1], "emailAddress", "emailAddress";
        /// `id-ce-subjectAltName` — 2.5.29.17.
        subject_alt_name = [2, 5, 29, 17], "SAN", "subjectAltName";
        /// `id-ce-issuerAltName` — 2.5.29.18.
        issuer_alt_name = [2, 5, 29, 18], "IAN", "issuerAltName";
        /// `id-ce-basicConstraints` — 2.5.29.19.
        basic_constraints = [2, 5, 29, 19], "BC", "basicConstraints";
        /// `id-ce-keyUsage` — 2.5.29.15.
        key_usage = [2, 5, 29, 15], "KU", "keyUsage";
        /// `id-ce-extKeyUsage` — 2.5.29.37.
        ext_key_usage = [2, 5, 29, 37], "EKU", "extKeyUsage";
        /// `id-ce-certificatePolicies` — 2.5.29.32.
        certificate_policies = [2, 5, 29, 32], "CP", "certificatePolicies";
        /// `id-ce-cRLDistributionPoints` — 2.5.29.31.
        crl_distribution_points = [2, 5, 29, 31], "CRLDP", "cRLDistributionPoints";
        /// `id-ce-subjectKeyIdentifier` — 2.5.29.14.
        subject_key_identifier = [2, 5, 29, 14], "SKI", "subjectKeyIdentifier";
        /// `id-ce-authorityKeyIdentifier` — 2.5.29.35.
        authority_key_identifier = [2, 5, 29, 35], "AKI", "authorityKeyIdentifier";
        /// `id-ce-nameConstraints` — 2.5.29.30.
        name_constraints = [2, 5, 29, 30], "NC", "nameConstraints";
        /// `id-pe-authorityInfoAccess` — 1.3.6.1.5.5.7.1.1.
        authority_info_access = [1, 3, 6, 1, 5, 5, 7, 1, 1], "AIA", "authorityInfoAccess";
        /// `id-pe-subjectInfoAccess` — 1.3.6.1.5.5.7.1.11.
        subject_info_access = [1, 3, 6, 1, 5, 5, 7, 1, 11], "SIA", "subjectInfoAccess";
        /// CT precertificate poison — 1.3.6.1.4.1.11129.2.4.3.
        ct_poison = [1, 3, 6, 1, 4, 1, 11129, 2, 4, 3], "CTPoison", "ctPrecertificatePoison";
        /// CT SCT list — 1.3.6.1.4.1.11129.2.4.2.
        ct_sct_list = [1, 3, 6, 1, 4, 1, 11129, 2, 4, 2], "SCTList", "signedCertificateTimestampList";
        /// `id-ad-ocsp` — 1.3.6.1.5.5.7.48.1.
        ad_ocsp = [1, 3, 6, 1, 5, 5, 7, 48, 1], "OCSP", "id-ad-ocsp";
        /// `id-ad-caIssuers` — 1.3.6.1.5.5.7.48.2.
        ad_ca_issuers = [1, 3, 6, 1, 5, 5, 7, 48, 2], "caIssuers", "id-ad-caIssuers";
        /// `id-ad-caRepository` — 1.3.6.1.5.5.7.48.5.
        ad_ca_repository = [1, 3, 6, 1, 5, 5, 7, 48, 5], "caRepository", "id-ad-caRepository";
        /// `id-on-SmtpUTF8Mailbox` — 1.3.6.1.5.5.7.8.9 (RFC 9598).
        smtp_utf8_mailbox = [1, 3, 6, 1, 5, 5, 7, 8, 9], "SmtpUTF8Mailbox", "id-on-SmtpUTF8Mailbox";
        /// `id-qt-cps` — 1.3.6.1.5.5.7.2.1.
        qt_cps = [1, 3, 6, 1, 5, 5, 7, 2, 1], "CPS", "id-qt-cps";
        /// `id-qt-unotice` — 1.3.6.1.5.5.7.2.2.
        qt_unotice = [1, 3, 6, 1, 5, 5, 7, 2, 2], "userNotice", "id-qt-unotice";
        /// `anyPolicy` — 2.5.29.32.0.
        any_policy = [2, 5, 29, 32, 0], "anyPolicy", "anyPolicy";
        /// Simulated signature algorithm ("sha256-with-simsig"): a private
        /// arc standing in for sha256WithRSAEncryption — see x509::sign.
        sim_signature = [1, 3, 6, 1, 4, 1, 99999, 1], "simSig", "sha256WithSimulatedSignature";
        /// Simulated public key algorithm.
        sim_public_key = [1, 3, 6, 1, 4, 1, 99999, 2], "simKey", "simulatedPublicKey";
        /// `extendedKeyUsage` serverAuth — 1.3.6.1.5.5.7.3.1.
        eku_server_auth = [1, 3, 6, 1, 5, 5, 7, 3, 1], "serverAuth", "id-kp-serverAuth";
        /// `extendedKeyUsage` clientAuth — 1.3.6.1.5.5.7.3.2.
        eku_client_auth = [1, 3, 6, 1, 5, 5, 7, 3, 2], "clientAuth", "id-kp-clientAuth";
        /// `id-pe-logotype` (RFC 3709/9399) — 1.3.6.1.5.5.7.1.12.
        logotype = [1, 3, 6, 1, 5, 5, 7, 1, 12], "logotype", "id-pe-logotype";
        /// `extendedKeyUsage` BIMI brand indicator — 1.3.6.1.5.5.7.3.31.
        eku_bimi = [1, 3, 6, 1, 5, 5, 7, 3, 31], "BIMI", "id-kp-BrandIndicatorforMessageIdentification";
        /// BIMI mark-certificate policy — 1.3.6.1.4.1.53087.1.1.
        bimi_mark_cert_policy = [1, 3, 6, 1, 4, 1, 53087, 1, 1], "markCertPolicy", "bimi-mark-certificate-policy";
        /// BIMI subject markType — 1.3.6.1.4.1.53087.1.13.
        bimi_mark_type = [1, 3, 6, 1, 4, 1, 53087, 1, 13], "markType", "bimi-markType";
        /// BIMI trademarkOfficeName — 1.3.6.1.4.1.53087.1.2.
        bimi_trademark_office = [1, 3, 6, 1, 4, 1, 53087, 1, 2], "trademarkOffice", "bimi-trademarkOfficeName";
        /// BIMI trademarkCountryOrRegionName — 1.3.6.1.4.1.53087.1.3.
        bimi_trademark_country = [1, 3, 6, 1, 4, 1, 53087, 1, 3], "trademarkCountry", "bimi-trademarkCountryOrRegionName";
        /// BIMI trademarkRegistration — 1.3.6.1.4.1.53087.1.4.
        bimi_trademark_id = [1, 3, 6, 1, 4, 1, 53087, 1, 4], "trademarkRegistration", "bimi-trademarkRegistration";
        /// BIMI statuteCountryOrRegionName — 1.3.6.1.4.1.53087.3.2.
        bimi_statute_country = [1, 3, 6, 1, 4, 1, 53087, 3, 2], "statuteCountry", "bimi-statuteCountryOrRegionName";
        /// BIMI statuteCitation — 1.3.6.1.4.1.53087.3.5.
        bimi_statute_citation = [1, 3, 6, 1, 4, 1, 53087, 3, 5], "statuteCitation", "bimi-statuteCitation";
        /// BIMI priorUseMarkSourceURL — 1.3.6.1.4.1.53087.5.1.
        bimi_prior_use_url = [1, 3, 6, 1, 4, 1, 53087, 5, 1], "priorUseURL", "bimi-priorUseMarkSourceURL";
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arcs_round_trip() {
        for arcs in [
            vec![2u64, 5, 4, 3],
            vec![1, 2, 840, 113549, 1, 9, 1],
            vec![0, 9, 2342, 19200300, 100, 1, 25],
            vec![1, 3, 6, 1, 4, 1, 11129, 2, 4, 3],
            vec![2, 999, 3],
        ] {
            let oid = Oid::from_arcs(&arcs).unwrap();
            assert_eq!(oid.arcs(), arcs);
            let reparsed = Oid::from_der_value(oid.as_der_value()).unwrap();
            assert_eq!(reparsed, oid);
        }
    }

    #[test]
    fn known_wire_forms() {
        // commonName = 06 03 55 04 03 (value part).
        assert_eq!(known::common_name().as_der_value(), &[0x55, 0x04, 0x03]);
        // emailAddress = 2A 86 48 86 F7 0D 01 09 01.
        assert_eq!(
            known::email_address().as_der_value(),
            &[0x2A, 0x86, 0x48, 0x86, 0xF7, 0x0D, 0x01, 0x09, 0x01]
        );
    }

    #[test]
    fn dotted_parsing() {
        let oid = Oid::from_dotted("2.5.4.3").unwrap();
        assert_eq!(oid, known::common_name());
        assert_eq!(oid.to_dotted(), "2.5.4.3");
        assert!(Oid::from_dotted("").is_none());
        assert!(Oid::from_dotted("3.1").is_none());
        assert!(Oid::from_dotted("1.40").is_none());
    }

    #[test]
    fn rejects_malformed_der() {
        assert!(Oid::from_der_value(&[]).is_err());
        assert!(Oid::from_der_value(&[0x80, 0x01]).is_err()); // non-minimal
        assert!(Oid::from_der_value(&[0x55, 0x84]).is_err()); // truncated arc
    }

    #[test]
    fn dictionary_entries_match_the_encoder() {
        for (oid, arcs, short, long) in known::ENTRIES {
            assert_eq!(Some(oid), Oid::from_arcs(arcs).as_ref(), "{arcs:?}");
            assert_eq!(Oid::from_der_value(oid.as_der_value()).as_ref(), Ok(oid), "{arcs:?}");
            assert_eq!(oid.arcs(), *arcs);
            assert_eq!(known::lookup(oid), Some((*short, *long)), "{arcs:?}");
        }
        assert_eq!(known::ENTRIES.len(), 57);
    }

    /// The dictionary is built at compile time: these `const` items (and
    /// `known::ENTRIES`) stop compiling if a constructor goes back to
    /// lazy initialisation.
    const COMMON_NAME: Oid = known::common_name();
    const LONGEST_ENTRY: Oid = known::jurisdiction_locality();

    #[test]
    fn dictionary_constants_are_compile_time() {
        assert_eq!(COMMON_NAME.as_der_value(), &[0x55, 0x04, 0x03]);
        assert_eq!(LONGEST_ENTRY.as_der_value().len(), 11);
        let longest = known::ENTRIES.iter().map(|(oid, ..)| oid.as_der_value().len()).max();
        assert_eq!(longest, Some(11));
    }

    #[test]
    fn first_subidentifier_overflow_is_rejected() {
        // 2 * 40 + a1 past u64::MAX: no OID, where the encoder used to
        // wrap (release) or panic (debug).
        assert!(Oid::from_dotted("2.18446744073709551615").is_none());
        assert!(Oid::from_arcs(&[2, u64::MAX - 79, 1]).is_none());
        // The largest first subidentifier still encodes, in ten septets.
        let max = Oid::from_arcs(&[2, u64::MAX - 80]).unwrap();
        assert_eq!(max.as_der_value().len(), 10);
        assert_eq!(max.arcs(), [2, u64::MAX - 80]);
    }

    #[test]
    fn arcs_past_u64_are_rejected() {
        // 1.2 then a ten-septet arc whose lead septet sets bit 64: 2^64.
        let over = [0x2A, 0x82, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(Oid::from_der_value(&over).unwrap_err(), Error::InvalidOid);
        // Bit 63 alone fits: 1.2.(2^63), and u64::MAX itself.
        let top = [0x2A, 0x81, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(Oid::from_der_value(&top).unwrap().arcs(), [1, 2, 1 << 63]);
        let max = Oid::from_arcs(&[1, 2, u64::MAX]).unwrap();
        assert_eq!(Oid::from_der_value(max.as_der_value()).unwrap().arcs(), [1, 2, u64::MAX]);
        // Eleven septets never fit.
        let long = [0x2A, 0x80 | 0x01, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00];
        assert_eq!(Oid::from_der_value(&long).unwrap_err(), Error::InvalidOid);
    }

    #[test]
    fn dictionary_lookup() {
        assert_eq!(known::common_name().short_name(), Some("CN"));
        assert_eq!(known::organization_name().long_name(), Some("organizationName"));
        assert_eq!(Oid::from_dotted("1.2.3.4").unwrap().short_name(), None);
    }
}
