//! T3c — *Invalid Structure* lints (2, none new).

use super::lint;
use crate::framework::{Lint, LintStatus, NoncomplianceType::InvalidStructure, Severity::*, Source::*};
use crate::helpers::{self, Which};
use std::borrow::Cow;
use std::net::Ipv4Addr;
use unicert_asn1::oid::known;
use unicert_asn1::StringKind;
use unicert_x509::value::lossy_text;
use unicert_x509::GeneralName;

/// A text's case-insensitive comparison key: ASCII text as is (compared
/// with `eq_ignore_ascii_case`), anything else lowercased. Two texts have
/// equal `to_lowercase` forms exactly when their keys are equal ignoring
/// ASCII case, so only non-ASCII text pays for a new `String`.
fn case_key(text: &str) -> Cow<'_, str> {
    if text.is_ascii() {
        Cow::Borrowed(text)
    } else {
        Cow::Owned(text.to_lowercase())
    }
}

/// The content octets of a DNSName, RFC822Name or URI entry when they are
/// its ASCII wire text, which is then its own comparison key.
fn ascii_san_text(name: &GeneralName) -> Option<&str> {
    match name {
        GeneralName::DnsName(v) | GeneralName::Rfc822Name(v) | GeneralName::Uri(v) => {
            StringKind::from_tag_number(v.tag_number)
                .and_then(|k| k.as_wire_text(&v.bytes))
                .filter(|t| t.is_ascii())
        }
        _ => None,
    }
}

/// The lowercased lossy texts of the DNSName, RFC822Name and URI entries
/// that [`ascii_san_text`] does not lend. Built once for all CNs; a SAN
/// of ASCII entries, the usual case, allocates nothing.
fn lowered_san_texts(san: &[GeneralName]) -> Vec<String> {
    san.iter()
        .filter_map(|n| match n {
            GeneralName::DnsName(v) | GeneralName::Rfc822Name(v) | GeneralName::Uri(v)
                if ascii_san_text(n).is_none() =>
            {
                Some(lossy_text(v.tag_number, &v.bytes).to_lowercase())
            }
            _ => None,
        })
        .collect()
}

/// The 2 T3c lints.
pub fn lints() -> Vec<Lint> {
    vec![
        // Named per Table 11. The BRs phrase this as a MUST ("if present,
        // the CN must contain a value from the SAN"), which is why Table 1
        // reports all Invalid Structure findings at Error level despite the
        // legacy `w_` prefix.
        lint!(
            "w_cab_subject_common_name_not_in_san",
            "If present, the subject CN should duplicate a SAN entry (the CN itself is NOT RECOMMENDED)",
            "CABF BR §7.1.4.2.2(a)",
            CabfBr, Warning, InvalidStructure, new = false,
            |ctx| {
                let mut cns = ctx.attr_vals(Which::Subject, &known::common_name()).peekable();
                if cns.peek().is_none() {
                    return LintStatus::NotApplicable;
                }
                let san = ctx.san();
                let lowered = lowered_san_texts(san);
                let all_found = cns.all(|cn| {
                    helpers::lenient_text(cn).is_some_and(|t| {
                        let key = case_key(t);
                        // An IPv4 entry matches its dotted quad, the only
                        // form `Ipv4Addr` parses (no leading zeros).
                        let ip = key.parse::<Ipv4Addr>().ok();
                        san.iter().any(|n| match n {
                            GeneralName::IpAddress(b) => ip.is_some_and(|ip| ip.octets()[..] == b[..]),
                            _ => ascii_san_text(n).is_some_and(|s| s.eq_ignore_ascii_case(&key)),
                        }) || lowered.iter().any(|s| s.eq_ignore_ascii_case(&key))
                    })
                });
                if all_found {
                    LintStatus::Pass
                } else {
                    LintStatus::Violation
                }
            }
        ),
        lint!(
            "e_subject_duplicate_attribute",
            "Subject must not repeat the same attribute type (multiple CNs are owned by the extra-CN lint)",
            "RFC 5280 §4.1.2.6 / X.501 DN uniqueness",
            Rfc5280, Error, InvalidStructure, new = false,
            |ctx| {
                if ctx.dn_is_empty(Which::Subject) {
                    return LintStatus::NotApplicable;
                }
                let mut seen = std::collections::HashSet::new();
                for attr in ctx.dn_attrs(Which::Subject) {
                    // Repeated CNs are reported by
                    // w_cab_subject_contain_extra_common_name (T3d).
                    if attr.oid == known::common_name() {
                        continue;
                    }
                    if !seen.insert(attr.oid.clone()) {
                        return LintStatus::Violation;
                    }
                }
                LintStatus::Pass
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::run_one;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, RawValue, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn cn_not_in_san_fires() {
        let cert = builder()
            .subject_cn("mismatch.example")
            .add_dns_san("other.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Violation);
        // CN absent → NA.
        let cert = builder().add_dns_san("x.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::NotApplicable);
        // Case-insensitive match passes.
        let cert = builder()
            .subject_cn("OK.Example")
            .add_dns_san("ok.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Pass);
        // CN present but no SAN at all.
        let cert = builder().subject_cn("nosan.example").build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_cab_subject_common_name_not_in_san", &cert), LintStatus::Violation);
    }

    #[test]
    fn cn_not_in_san_checks_every_cn() {
        let lint = "w_cab_subject_common_name_not_in_san";
        let both = builder().subject_cn("a.example").subject_cn("B.example");
        let cert = both.clone().add_dns_san("b.example").add_dns_san("a.example");
        assert_eq!(run_one(lint, &cert.build_signed(&SimKey::from_seed("ca"))), LintStatus::Pass);
        let cert = both.add_dns_san("a.example").add_dns_san("c.example");
        assert_eq!(run_one(lint, &cert.build_signed(&SimKey::from_seed("ca"))), LintStatus::Violation);

        // Non-ASCII and IPv4 entries, matched by several CNs: a Latin-1
        // IA5 DNSName lowercases like the CN, an address matches only its
        // dotted quad.
        let san = builder()
            .add_san(GeneralName::DnsName(RawValue::from_raw(StringKind::Ia5, b"b\xfccher.example")))
            .add_san(GeneralName::IpAddress(vec![192, 0, 2, 1]))
            .add_dns_san("ok.example");
        for (cns, want) in [
            (&["B\u{dc}CHER.example", "192.0.2.1", "OK.example"][..], LintStatus::Pass),
            (&["192.0.2.1", "b\u{fc}cher.example"][..], LintStatus::Pass),
            (&["b\u{fc}cher.example", "192.0.2.01"][..], LintStatus::Violation),
            (&["192.0.2.1", "bucher.example"][..], LintStatus::Violation),
        ] {
            let cert = cns.iter().fold(san.clone(), |b, cn| b.subject_cn(cn));
            assert_eq!(run_one(lint, &cert.build_signed(&SimKey::from_seed("ca"))), want, "{cns:?}");
        }
    }

    /// The lint parses a CN as an IPv4 address instead of rendering each
    /// address entry: that accepts exactly the `{}.{}.{}.{}` rendering of
    /// the four octets, leading zeros and signs included.
    #[test]
    fn ipv4_parse_accepts_exactly_the_dotted_quad() {
        let parts = ["", "0", "00", "01", "1", "9", "10", "010", "99", "100", "255", "256", "0255", "1000", "+1", " 1", "a"];
        let canonical = |p: &str| p.parse::<u8>().ok().filter(|v| v.to_string() == p);
        for a in parts {
            for b in parts {
                for c in parts {
                    for d in parts {
                        let key = format!("{a}.{b}.{c}.{d}");
                        let quad = [a, b, c, d].map(canonical);
                        let want = quad.iter().all(Option::is_some).then(|| quad.map(|o| o.unwrap_or(0)));
                        assert_eq!(key.parse::<Ipv4Addr>().ok().map(|ip| ip.octets()), want, "{key:?}");
                    }
                }
            }
        }
        for key in ["1.2.3", "1.2.3.4.5", "1.2.3.4.", ".1.2.3.4", "1..2.3", "1.2.3.4 "] {
            assert!(key.parse::<Ipv4Addr>().is_err(), "{key:?}");
        }
    }

    #[test]
    fn duplicate_attributes_fire() {
        let cert = builder()
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit A")
            .subject_attr(known::organizational_unit(), StringKind::Utf8, "Unit B")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Violation);
        let cert = builder()
            .subject_cn("a.example")
            .subject_attr(known::organization_name(), StringKind::Utf8, "One Org")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Pass);
        // Multiple CNs are owned by the extra-CN (discouraged) lint.
        let cert = builder()
            .subject_cn("a.example")
            .subject_cn("b.example")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_subject_duplicate_attribute", &cert), LintStatus::Pass);
    }
}
