//! Unicert classification (§2.3 / §4.1).
//!
//! A certificate is a *Unicert* when it contains characters beyond
//! printable ASCII (U+0020–U+007E) in any field, or IDNs in its
//! DNSName-related fields. An *IDNCert* is the IDN-carrying subset.

use unicert_asn1::oid::known;

use unicert_lint::helpers::Which;
use unicert_lint::LintContext;
use unicert_x509::value::wire_text;
use unicert_x509::{CertView, GeneralName};

/// Classification of one certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnicertClass {
    /// Any field carries non-printable-ASCII content.
    pub has_unicode: bool,
    /// DNS-related fields carry IDNs (A-labels or raw U-labels).
    pub has_idn: bool,
}

impl UnicertClass {
    /// Is this certificate a Unicert at all?
    pub fn is_unicert(&self) -> bool {
        self.has_unicode || self.has_idn
    }

    /// Is it an IDNCert?
    pub fn is_idn_cert(&self) -> bool {
        self.has_idn
    }
}

pub(crate) fn value_has_unicode(bytes: &[u8]) -> bool {
    // Raw byte view: anything outside 0x20..=0x7E counts (§2.3 applies to
    // contents regardless of decodability).
    bytes.iter().any(|&b| !(0x20..=0x7E).contains(&b))
}

/// `(has_unicode, has_idn)` of one GeneralName: its raw bytes, and its wire
/// text read in place. A DNSName is an IDN when the whole name is; an
/// RFC822Name or URI when some `@`/`/`-separated part is.
fn classify_name(name: &GeneralName) -> (bool, bool) {
    let (v, split) = match name {
        GeneralName::DnsName(v) => (v, false),
        GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => (v, true),
        _ => return (false, false),
    };
    let idn = wire_text(v.tag_number, &v.bytes).is_ok_and(|text| {
        if split {
            text.split(['@', '/']).any(unicert_idna::is_idn_domain)
        } else {
            unicert_idna::is_idn_domain(&text)
        }
    });
    (value_has_unicode(&v.bytes), idn)
}

/// Classify a certificate through the view parsed from its DER; DER that
/// does not parse comes back as the parse error.
pub fn classify(der: &[u8]) -> unicert_asn1::Result<UnicertClass> {
    let view = CertView::parse_der(der)?;
    let class = classify_ctx(&LintContext::from_view(&view));
    Ok(class)
}

/// Classify through a memoized [`LintContext`], sharing parsed extensions
/// and decoded attribute text with the lint run that uses the same context.
pub fn classify_ctx(ctx: &LintContext<'_>) -> UnicertClass {
    let mut has_unicode = false;
    let mut has_idn = false;

    for attr in ctx.dn_attrs(Which::Subject).iter().chain(ctx.dn_attrs(Which::Issuer)) {
        if value_has_unicode(attr.val.bytes()) {
            has_unicode = true;
        }
        // CN may carry a domain: IDN check applies to it too (§4.1 —
        // "containing IDNs in the DNSName-related fields (e.g. CommonName
        // and the extensions)").
        if attr.oid == known::common_name() {
            if let Some(text) = attr.val.wire_text() {
                if unicert_idna::is_idn_domain(text) {
                    has_idn = true;
                }
            }
        }
    }
    // All extensions (duplicates included), parse results memoized in ctx.
    for parsed in ctx.parsed_extensions().iter().flatten() {
        use unicert_x509::ParsedExtension::*;
        let mut visit = |n: &GeneralName| {
            let (unicode, idn) = classify_name(n);
            has_unicode |= unicode;
            has_idn |= idn;
        };
        match parsed {
            SubjectAltName(n) | IssuerAltName(n) => n.iter().for_each(&mut visit),
            CrlDistributionPoints(dps) => {
                dps.iter().flat_map(|d| d.full_names.iter()).for_each(&mut visit)
            }
            AuthorityInfoAccess(ads) | SubjectInfoAccess(ads) => {
                ads.iter().map(|a| &a.location).for_each(&mut visit)
            }
            CertificatePolicies(ps) => {
                for p in ps {
                    for q in &p.qualifiers {
                        if let unicert_x509::extensions::PolicyQualifier::UserNotice {
                            explicit_text: Some(t),
                        } = q
                        {
                            if value_has_unicode(&t.bytes) {
                                has_unicode = true;
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
    UnicertClass { has_unicode, has_idn }
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, SimKey};

    fn build(f: impl FnOnce(CertificateBuilder) -> CertificateBuilder) -> Vec<u8> {
        f(CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90))
            .build_signed(&SimKey::from_seed("classify-ca"))
            .raw
    }

    #[test]
    fn ascii_cert_is_not_a_unicert() {
        let cert = build(|b| b.subject_cn("plain.example").add_dns_san("plain.example"));
        // Issuer has ASCII defaults too.
        let c = classify(&cert).unwrap();
        assert!(!c.is_unicert());
    }

    #[test]
    fn unicode_org_is_a_unicert() {
        let cert = build(|b| b.subject_org("Müller GmbH"));
        assert!(classify(&cert).unwrap().is_unicert());
        assert!(!classify(&cert).unwrap().is_idn_cert());
    }

    #[test]
    fn ace_san_is_an_idncert() {
        let cert = build(|b| b.add_dns_san("xn--mnchen-3ya.de"));
        let c = classify(&cert).unwrap();
        assert!(c.is_idn_cert());
        assert!(c.is_unicert());
        assert!(!c.has_unicode); // pure ASCII bytes, still an IDNCert
    }

    #[test]
    fn idn_in_cn_counts() {
        let cert = build(|b| b.subject_cn("xn--fiqs8s.cn"));
        assert!(classify(&cert).unwrap().is_idn_cert());
    }

    #[test]
    fn control_bytes_count_as_unicode() {
        let cert = build(|b| {
            b.subject_attr_raw(
                unicert_asn1::oid::known::organization_name(),
                unicert_asn1::StringKind::Utf8,
                b"Evil\x00Org",
            )
        });
        assert!(classify(&cert).unwrap().has_unicode);
    }
}
