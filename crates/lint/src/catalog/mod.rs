//! The 95-lint catalog (§3.1.1): the paper's constraint rules, transcribed
//! into executable checks.
//!
//! Counts per taxonomy type match Table 1 exactly — `(all, new)`:
//! Invalid Character 22 (10), Bad Normalization 4 (3), Illegal Format
//! 17 (0), Invalid Encoding 48 (37), Invalid Structure 2 (0), Discouraged
//! Field 2 (0) — 95 lints, 50 new. Every lint named in Table 11 appears
//! under its paper name.

use crate::framework::{Lint, Registry};

pub mod t1_characters;
pub mod t2_normalization;
pub mod t3_discouraged;
pub mod t3_encoding;
pub mod t3_format;
pub mod t3_structure;

/// Construct a [`Lint`] with less ceremony.
macro_rules! lint {
    ($name:literal, $desc:literal, $cite:literal, $src:expr, $sev:expr, $nc:expr, new=$new:expr, $check:expr) => {
        $crate::framework::Lint {
            name: $name,
            description: $desc,
            citation: $cite,
            source: $src,
            severity: $sev,
            nc_type: $nc,
            new_lint: $new,
            check: Box::new($check),
        }
    };
}
pub(crate) use lint;

/// Build the full default registry: all 95 lints.
pub fn default_registry() -> Registry {
    let mut reg = Registry::new();
    for lint in all_lints() {
        reg.register(lint);
    }
    reg
}

/// All 95 lints as a vector (Table 1 order).
pub fn all_lints() -> Vec<Lint> {
    let mut lints = Vec::with_capacity(95);
    lints.extend(t1_characters::lints());
    lints.extend(t2_normalization::lints());
    lints.extend(t3_format::lints());
    lints.extend(t3_encoding::lints());
    lints.extend(t3_structure::lints());
    lints.extend(t3_discouraged::lints());
    lints
}

/// Run the catalog lint `name` on the view parsed from `cert`'s DER, as
/// the catalog modules' unit tests do.
#[cfg(test)]
pub(crate) fn run_one(name: &str, cert: &unicert_x509::Certificate) -> crate::LintStatus {
    let lint = all_lints().into_iter().find(|l| l.name == name).expect("a catalog lint");
    let view = unicert_x509::CertView::parse_der(&cert.raw).expect("test certificates parse");
    let ctx = crate::LintContext::from_view(&view);
    (lint.check)(&ctx)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::framework::NoncomplianceType::*;

    #[test]
    fn catalog_counts_match_table_1() {
        let reg = default_registry();
        let counts = reg.lint_counts_by_type();
        assert_eq!(counts[&InvalidCharacter], (22, 10));
        assert_eq!(counts[&BadNormalization], (4, 3));
        assert_eq!(counts[&IllegalFormat], (17, 0));
        assert_eq!(counts[&InvalidEncoding], (48, 37));
        assert_eq!(counts[&InvalidStructure], (2, 0));
        assert_eq!(counts[&DiscouragedField], (2, 0));
        assert_eq!(reg.lints().len(), 95);
        let new: usize = reg.lints().iter().filter(|l| l.new_lint).count();
        assert_eq!(new, 50);
    }

    #[test]
    fn table_11_names_are_present() {
        let reg = default_registry();
        for name in [
            "w_rfc_ext_cp_explicit_text_not_utf8",
            "w_cab_subject_common_name_not_in_san",
            "e_rfc_dns_idn_a2u_unpermitted_unichar",
            "e_subject_organization_not_printable_or_utf8",
            "e_subject_common_name_not_printable_or_utf8",
            "e_subject_locality_not_printable_or_utf8",
            "e_rfc_subject_dn_not_printable_characters",
            "e_subject_ou_not_printable_or_utf8",
            "e_subject_jurisdiction_locality_not_printable_or_utf8",
            "e_rfc_ext_cp_explicit_text_too_long",
            "e_subject_jurisdiction_state_not_printable_or_utf8",
            "e_rfc_ext_cp_explicit_text_ia5",
            "e_subject_jurisdiction_country_not_printable",
            "e_subject_state_not_printable_or_utf8",
            "e_rfc_subject_printable_string_badalpha",
            "w_community_subject_dn_trailing_whitespace",
            "e_subject_postal_code_not_printable_or_utf8",
            "e_subject_street_not_printable_or_utf8",
            "w_cab_subject_contain_extra_common_name",
            "e_subject_dn_serial_number_not_printable",
            "w_community_subject_dn_leading_whitespace",
            "e_rfc_subject_country_not_printable",
            "e_rfc_dns_idn_malformed_unicode",
            "e_cab_dns_bad_character_in_label",
            "e_ext_san_dns_contain_unpermitted_unichar",
        ] {
            assert!(reg.get(name).is_some(), "missing Table 11 lint {name}");
        }
    }

    #[test]
    fn names_are_unique() {
        let lints = all_lints();
        let mut names: Vec<_> = lints.iter().map(|l| l.name).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
