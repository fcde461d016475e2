//! Shared predicates and field extractors used across the lint catalog.
//!
//! Two layers live here:
//!
//! - **Context-based lifters and predicates** (`check_attr`, `check_values`,
//!   `is_printable_or_utf8`, …) operating on [`LintContext`] /
//!   [`CachedVal`] — what the catalog uses. Decode results are memoized in
//!   the context, so 95 lints asking about the same value pay for one
//!   decode.
//! - **Direct, uncached extractors** (`san`, `attr_values`, `crldp_uris`,
//!   …) operating on a bare [`Certificate`]. These are the reference
//!   semantics: external consumers (`unicert-threats`, differential tests)
//!   call them, and the context-equivalence proptests pin every cached
//!   accessor against them.

use crate::context::{CachedVal, LintContext};
use crate::facts::CharClasses;
use crate::framework::LintStatus;
use unicert_asn1::oid::known;
use unicert_asn1::{Oid, StringKind};
use unicert_x509::extensions::{ParsedExtension, PolicyQualifier};
use unicert_x509::{Certificate, DistinguishedName, GeneralName, RawValue};

/// Which DN a lint inspects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Which {
    /// The Subject DN.
    Subject,
    /// The Issuer DN.
    Issuer,
}

/// Select a DN.
pub fn dn(cert: &Certificate, which: Which) -> &DistinguishedName {
    match which {
        Which::Subject => &cert.tbs.subject,
        Which::Issuer => &cert.tbs.issuer,
    }
}

/// Values of one attribute type in a DN (uncached reference extractor).
pub fn attr_values<'a>(cert: &'a Certificate, which: Which, oid: &Oid) -> Vec<&'a RawValue> {
    dn(cert, which).all_values(oid)
}

/// Lift a per-value predicate over an attribute: `NotApplicable` when the
/// attribute is absent, `Violation` when any value fails.
pub fn check_attr(
    ctx: &LintContext<'_>,
    which: Which,
    oid: &Oid,
    ok: impl Fn(&CachedVal) -> bool,
) -> LintStatus {
    check_values(ctx.attr_vals(which, oid), ok)
}

/// DirectoryString attributes must be PrintableString or UTF8String, fully
/// conformant to the chosen type (RFC 5280 §4.1.2.4 / CABF BR 7.1.4.2).
pub fn is_printable_or_utf8(v: &CachedVal) -> bool {
    matches!(v.kind(), Some(StringKind::Printable) | Some(StringKind::Utf8)) && v.strict_ok()
}

/// PrintableString-only attributes (countryName, serialNumber, DNQualifier).
pub fn is_printable(v: &CachedVal) -> bool {
    v.kind() == Some(StringKind::Printable) && v.strict_ok()
}

/// IA5String-only values (emailAddress, domainComponent, GN strings).
pub fn is_ia5(v: &CachedVal) -> bool {
    v.kind() == Some(StringKind::Ia5) && v.strict_ok()
}

/// Decodable text, via whatever the tag claims (used by character-range
/// checks, which want to inspect content even when the *type* is wrong).
/// Memoized: the first asker pays for the decode.
pub fn lenient_text(v: &CachedVal) -> Option<&str> {
    v.wire_text()
}

/// Lift a per-value predicate over *all* DN values.
pub fn check_all_dn(
    ctx: &LintContext<'_>,
    which: Which,
    ok: impl Fn(&CachedVal) -> bool,
) -> LintStatus {
    check_values(ctx.dn_attrs(which).iter().map(|a| &a.val), ok)
}

/// The SAN GeneralNames, or empty (uncached reference extractor).
pub fn san(cert: &Certificate) -> Vec<GeneralName> {
    cert.tbs.subject_alt_names().unwrap_or_default()
}

/// The IAN GeneralNames, or empty (uncached reference extractor).
pub fn ian(cert: &Certificate) -> Vec<GeneralName> {
    match cert
        .tbs
        .extension(&known::issuer_alt_name())
        .and_then(|e| e.parse().ok())
    {
        Some(ParsedExtension::IssuerAltName(names)) => names,
        _ => Vec::new(),
    }
}

/// SAN DNSName raw values (uncached reference extractor).
pub fn san_dns_values(cert: &Certificate) -> Vec<RawValue> {
    san(cert)
        .into_iter()
        .filter_map(|n| match n {
            GeneralName::DnsName(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// Lift a predicate over a sequence of cached values with the usual
/// NA/Pass/Violation semantics. Short-circuits on the first failure.
pub fn check_values<'a>(
    values: impl IntoIterator<Item = &'a CachedVal>,
    ok: impl Fn(&CachedVal) -> bool,
) -> LintStatus {
    let mut any = false;
    for v in values {
        any = true;
        if !ok(v) {
            return LintStatus::Violation;
        }
    }
    if any {
        LintStatus::Pass
    } else {
        LintStatus::NotApplicable
    }
}

/// GeneralName string values from SAN by selector (uncached reference
/// extractor).
pub fn san_values(
    cert: &Certificate,
    select: impl Fn(&GeneralName) -> Option<RawValue>,
) -> Vec<RawValue> {
    san(cert).iter().filter_map(select).collect()
}

/// URIs from AIA / SIA access descriptions (uncached reference extractor).
pub fn access_uris(cert: &Certificate, oid: &Oid) -> Vec<RawValue> {
    let parsed = cert.tbs.extension(oid).and_then(|e| e.parse().ok());
    let descs = match parsed {
        Some(ParsedExtension::AuthorityInfoAccess(d)) | Some(ParsedExtension::SubjectInfoAccess(d)) => d,
        _ => return Vec::new(),
    };
    descs
        .into_iter()
        .filter_map(|d| match d.location {
            GeneralName::Uri(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// URIs from CRLDistributionPoints fullNames (uncached reference extractor).
pub fn crldp_uris(cert: &Certificate) -> Vec<RawValue> {
    let parsed = cert
        .tbs
        .extension(&known::crl_distribution_points())
        .and_then(|e| e.parse().ok());
    let dps = match parsed {
        Some(ParsedExtension::CrlDistributionPoints(d)) => d,
        _ => return Vec::new(),
    };
    dps.into_iter()
        .flat_map(|dp| dp.full_names)
        .filter_map(|n| match n {
            GeneralName::Uri(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// `explicitText` values from CertificatePolicies user notices (uncached
/// reference extractor).
pub fn explicit_texts(cert: &Certificate) -> Vec<RawValue> {
    let parsed = cert
        .tbs
        .extension(&known::certificate_policies())
        .and_then(|e| e.parse().ok());
    let policies = match parsed {
        Some(ParsedExtension::CertificatePolicies(p)) => p,
        _ => return Vec::new(),
    };
    policies
        .into_iter()
        .flat_map(|p| p.qualifiers)
        .filter_map(|q| match q {
            PolicyQualifier::UserNotice { explicit_text: Some(t) } => Some(t),
            _ => None,
        })
        .collect()
}

/// Is the text free of every character satisfying `bad`? The reference
/// definition of [`free_of_class`], which the checks use.
pub fn free_of(v: &CachedVal, bad: impl Fn(char) -> bool) -> bool {
    match v.wire_text() {
        Some(t) => !t.chars().any(&bad),
        // Undecodable bytes are not this lint's concern (encoding lints
        // catch them).
        None => true,
    }
}

/// Is the text free of every class in `bad`? Reads the value's stored
/// [`CharClasses`] instead of scanning; undecodable bytes pass, as in
/// [`free_of`].
pub fn free_of_class(v: &CachedVal, bad: CharClasses) -> bool {
    !v.char_classes().intersects(bad)
}

/// The paper's printable-characters requirement for Subject DNs: every
/// character must be outside C0/C1/DEL.
pub fn has_no_control_chars(v: &CachedVal) -> bool {
    free_of_class(v, CharClasses::CONTROL)
}
