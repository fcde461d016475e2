//! Whole-domain validation: the DNSName rules of RFC 1034 §3.5 / RFC 5280
//! §4.2.1.6 / CABF BR, including certificate wildcards.

use crate::label::{self, ALabelStatus, LabelError};

/// Why a DNSName failed validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DnsNameError {
    /// Empty name.
    Empty,
    /// More than 253 octets overall.
    TooLong,
    /// An empty label (consecutive or leading dots).
    EmptyLabel,
    /// A label failed validation.
    Label {
        /// Index of the failing label (0 = leftmost).
        index: usize,
        /// The underlying label error.
        error: LabelError,
    },
    /// `*` used anywhere but as the complete leftmost label.
    BadWildcard,
    /// The name contains characters outside the DNSName repertoire
    /// before any label processing (e.g. a space or a NUL) — the paper's
    /// "invalid characters in SAN DNSName" class.
    ForbiddenCharacter {
        /// The offending character.
        ch: char,
    },
}

/// Options for [`validate_dns_name`].
#[derive(Debug, Clone, Copy)]
pub struct DnsNameOptions {
    /// Accept a leading `*.` wildcard label (certificates do; DNS doesn't).
    pub allow_wildcard: bool,
    /// Accept a single trailing dot (FQDN form).
    pub allow_trailing_dot: bool,
}

impl Default for DnsNameOptions {
    fn default() -> Self {
        DnsNameOptions { allow_wildcard: true, allow_trailing_dot: false }
    }
}

/// Validate a DNSName as it would appear in a SAN.
///
/// Each label must be LDH; `xn--` labels must additionally be valid
/// A-labels (the F1 check).
pub fn validate_dns_name(name: &str, opts: DnsNameOptions) -> Result<(), DnsNameError> {
    if name.is_empty() {
        return Err(DnsNameError::Empty);
    }
    if let Some(ch) = name
        .chars()
        .find(|&c| !(c.is_ascii_alphanumeric() || c == '-' || c == '.' || c == '*'))
    {
        return Err(DnsNameError::ForbiddenCharacter { ch });
    }
    let mut name = name;
    if opts.allow_trailing_dot {
        name = name.strip_suffix('.').unwrap_or(name);
    }
    if name.len() > 253 {
        return Err(DnsNameError::TooLong);
    }
    let labels: Vec<&str> = name.split('.').collect();
    for (index, lab) in labels.iter().enumerate() {
        if lab.is_empty() {
            return Err(DnsNameError::EmptyLabel);
        }
        if lab.contains('*') {
            if !(opts.allow_wildcard && index == 0 && *lab == "*") {
                return Err(DnsNameError::BadWildcard);
            }
            continue;
        }
        label::validate_ldh(lab).map_err(|error| DnsNameError::Label { index, error })?;
        if label::has_ace_prefix(lab) {
            label::a_to_u(lab).map_err(|error| DnsNameError::Label { index, error })?;
        }
    }
    Ok(())
}

/// Is this (syntactically LDH-valid) domain an IDN — does any label carry
/// the ACE prefix, or does the name contain non-ASCII (a raw U-label)?
#[inline]
pub fn is_idn_domain(name: &str) -> bool {
    !name.is_ascii() || name.split('.').any(label::has_ace_prefix)
}

/// Convert a whole domain to Unicode form for display, converting each
/// valid A-label and leaving other labels untouched. Reports the status of
/// the worst label, mirroring how the paper's CT-monitor experiments decide
/// whether a display conversion is trustworthy.
pub fn to_unicode(name: &str) -> (String, ALabelStatus) {
    let mut worst = ALabelStatus::Valid;
    let mut out: Vec<String> = Vec::new();
    for lab in name.split('.') {
        if label::has_ace_prefix(lab) {
            match label::a_to_u(lab) {
                Ok(u) => out.push(u),
                Err(_) => {
                    let status = label::classify_a_label(lab);
                    if worst == ALabelStatus::Valid {
                        worst = status;
                    }
                    out.push(lab.to_string());
                }
            }
        } else {
            out.push(lab.to_string());
        }
    }
    (out.join("."), worst)
}

/// Convert a Unicode domain to ASCII (ACE) form, label by label.
pub fn to_ascii(name: &str) -> Result<String, DnsNameError> {
    let mut out: Vec<String> = Vec::new();
    for (index, lab) in name.split('.').enumerate() {
        if lab == "*" && index == 0 {
            out.push(lab.to_string());
            continue;
        }
        out.push(
            label::u_to_a(lab).map_err(|error| DnsNameError::Label { index, error })?,
        );
    }
    Ok(out.join("."))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(name: &str) -> Result<(), DnsNameError> {
        validate_dns_name(name, DnsNameOptions::default())
    }

    #[test]
    fn valid_names() {
        v("example.com").unwrap();
        v("a.b.c.d.example.co.uk").unwrap();
        v("xn--mnchen-3ya.de").unwrap();
        v("*.example.com").unwrap();
        v("test-1.example.com").unwrap();
    }

    #[test]
    fn forbidden_characters() {
        assert_eq!(v("exa mple.com"), Err(DnsNameError::ForbiddenCharacter { ch: ' ' }));
        assert_eq!(v("exa\u{0}mple.com"), Err(DnsNameError::ForbiddenCharacter { ch: '\u{0}' }));
        assert_eq!(v("münchen.de"), Err(DnsNameError::ForbiddenCharacter { ch: 'ü' }));
        // The paper's SAN-with-a-PEM-string case fails here.
        assert!(matches!(
            v("-----BEGIN CERTIFICATE REQUEST-----"),
            Err(DnsNameError::ForbiddenCharacter { .. })
        ));
    }

    #[test]
    fn wildcard_rules() {
        v("*.example.com").unwrap();
        assert_eq!(v("foo.*.example.com"), Err(DnsNameError::BadWildcard));
        assert_eq!(v("*foo.example.com"), Err(DnsNameError::BadWildcard));
        let no_wild = DnsNameOptions { allow_wildcard: false, ..Default::default() };
        assert_eq!(
            validate_dns_name("*.example.com", no_wild),
            Err(DnsNameError::BadWildcard)
        );
    }

    #[test]
    fn idn_labels_are_checked() {
        // Deceptive label (LRM) must fail.
        assert!(matches!(
            v("xn--www-hn0a.example.com"),
            Err(DnsNameError::Label { index: 0, .. })
        ));
        // Unconvertible label must fail.
        assert!(matches!(v("xn--99999999999.com"), Err(DnsNameError::Label { .. })));
    }

    #[test]
    fn length_limits() {
        let long = format!("{}.com", "a".repeat(63));
        v(&long).unwrap();
        let too_long_label = format!("{}.com", "a".repeat(64));
        assert!(matches!(v(&too_long_label), Err(DnsNameError::Label { .. })));
        let long_total: String =
            "abcdefgh.".repeat(29) + "toolong.com";
        assert!(long_total.len() > 253);
        assert_eq!(v(&long_total), Err(DnsNameError::TooLong));
    }

    #[test]
    fn empty_labels() {
        assert_eq!(v("a..b.com"), Err(DnsNameError::EmptyLabel));
        assert_eq!(v(".example.com"), Err(DnsNameError::EmptyLabel));
        assert_eq!(v("example.com."), Err(DnsNameError::EmptyLabel));
        let fqdn = DnsNameOptions { allow_trailing_dot: true, ..Default::default() };
        validate_dns_name("example.com.", fqdn).unwrap();
    }

    #[test]
    fn idn_detection() {
        assert!(is_idn_domain("xn--fiqs8s.cn"));
        assert!(is_idn_domain("中国.cn"));
        assert!(!is_idn_domain("example.com"));
    }

    #[test]
    fn unicode_conversion() {
        let (u, status) = to_unicode("xn--mnchen-3ya.de");
        assert_eq!(u, "münchen.de");
        assert_eq!(status, ALabelStatus::Valid);
        let (u, status) = to_unicode("xn--www-hn0a.com");
        assert_eq!(u, "xn--www-hn0a.com"); // left as-is
        assert_eq!(status, ALabelStatus::DisallowedContent);
        assert_eq!(to_ascii("münchen.de").unwrap(), "xn--mnchen-3ya.de");
        assert_eq!(to_ascii("*.münchen.de").unwrap(), "*.xn--mnchen-3ya.de");
    }
}
