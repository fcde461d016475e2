//! Chain building and (simulated) verification — the §5.1 methodology:
//! "after reconstructing certificate chains via AIA extensions and
//! verifying signatures".
//!
//! The corpus issues two-level chains (leaf → issuing CA); the trust store
//! maps issuer DNs to CA certificates and their simulated keys.

use crate::certificate::Certificate;
use crate::name::DistinguishedName;
use crate::sign::SimKey;
use std::collections::HashMap;
use unicert_asn1::DateTime;

/// Why verification failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChainError {
    /// No CA in the store matches the leaf's issuer DN.
    UnknownIssuer,
    /// Signature check failed against the issuer's key.
    BadSignature,
    /// The leaf is outside its validity window at the check time.
    Expired,
    /// The issuing CA certificate itself is outside its validity window.
    IssuerExpired,
    /// The leaf's serial appears on the issuer's revocation list.
    Revoked,
}

/// A trust store of issuing CAs with their keys (and optionally CRLs).
#[derive(Default)]
pub struct TrustStore {
    cas: HashMap<Vec<u8>, (Certificate, SimKey)>,
    crls: HashMap<Vec<u8>, crate::crl::CertificateList>,
}

impl TrustStore {
    /// Empty store.
    pub fn new() -> TrustStore {
        TrustStore::default()
    }

    /// Register a CA certificate with its signing key.
    pub fn add_ca(&mut self, cert: Certificate, key: SimKey) {
        self.cas.insert(cert.tbs.subject.to_der(), (cert, key));
    }

    /// Register the current CRL for a CA (keyed by the CA's subject DN).
    pub fn add_crl(&mut self, issuer: &DistinguishedName, crl: crate::crl::CertificateList) {
        self.crls.insert(issuer.to_der(), crl);
    }

    /// Number of registered CAs.
    pub fn len(&self) -> usize {
        self.cas.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.cas.is_empty()
    }

    /// Find the issuing CA for a leaf by DN match.
    pub fn find_issuer(&self, leaf: &Certificate) -> Option<&(Certificate, SimKey)> {
        self.cas.get(&leaf.tbs.issuer.to_der())
    }

    /// Verify a leaf at a point in time: issuer lookup, signature check,
    /// validity windows, and (when a CRL is registered) revocation.
    pub fn verify_leaf(&self, leaf: &Certificate, at: &DateTime) -> Result<(), ChainError> {
        let (ca_cert, key) = self.find_issuer(leaf).ok_or(ChainError::UnknownIssuer)?;
        if !key.verify(leaf.raw_tbs(), &leaf.signature.bytes) {
            return Err(ChainError::BadSignature);
        }
        if !leaf.tbs.validity.contains(at) {
            return Err(ChainError::Expired);
        }
        if !ca_cert.tbs.validity.contains(at) {
            return Err(ChainError::IssuerExpired);
        }
        if let Some(crl) = self.crls.get(&leaf.tbs.issuer.to_der()) {
            if crl.is_revoked(&leaf.tbs.serial) {
                return Err(ChainError::Revoked);
            }
        }
        Ok(())
    }

    /// Build the (two-level) chain for a leaf.
    pub fn build_chain<'a>(&'a self, leaf: &'a Certificate) -> Result<Vec<&'a Certificate>, ChainError> {
        let (ca, _) = self.find_issuer(leaf).ok_or(ChainError::UnknownIssuer)?;
        Ok(vec![leaf, ca])
    }
}

/// Build a self-signed CA certificate for an issuer DN.
pub fn self_signed_ca(subject: DistinguishedName, key: &SimKey, not_before: DateTime, days: i64) -> Certificate {
    use crate::builder::CertificateBuilder;
    
    CertificateBuilder::new()
        .subject(subject.clone())
        .issuer(subject)
        .validity_days(not_before, days)
        .add_extension(crate::extensions::basic_constraints(true, Some(0)))
        .build_signed(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::CertificateBuilder;
    use unicert_asn1::oid::known;
    use unicert_asn1::StringKind;

    fn ca_dn(name: &str) -> DistinguishedName {
        DistinguishedName::from_attributes(&[(known::organization_name(), StringKind::Utf8, name)])
    }

    fn setup() -> (TrustStore, Certificate, SimKey) {
        let key = SimKey::from_seed("chain-ca");
        let ca = self_signed_ca(ca_dn("Chain CA"), &key, DateTime::date(2020, 1, 1).unwrap(), 3650);
        let mut store = TrustStore::new();
        store.add_ca(ca, key.clone());
        let leaf = CertificateBuilder::new()
            .subject_cn("leaf.example")
            .add_dns_san("leaf.example")
            .issuer(ca_dn("Chain CA"))
            .serial(&[0x42])
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .build_signed(&key);
        (store, leaf, key)
    }

    #[test]
    fn valid_chain_verifies() {
        let (store, leaf, _) = setup();
        let at = DateTime::date(2024, 2, 1).unwrap();
        store.verify_leaf(&leaf, &at).unwrap();
        let chain = store.build_chain(&leaf).unwrap();
        assert_eq!(chain.len(), 2);
        assert!(!chain[1].tbs.is_precertificate());
    }

    #[test]
    fn unknown_issuer_rejected() {
        let (store, _, key) = setup();
        let stranger = CertificateBuilder::new()
            .subject_cn("x.example")
            .issuer(ca_dn("Someone Else"))
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .build_signed(&key);
        assert_eq!(
            store.verify_leaf(&stranger, &DateTime::date(2024, 2, 1).unwrap()),
            Err(ChainError::UnknownIssuer)
        );
    }

    #[test]
    fn forged_signature_rejected() {
        let (store, _, _) = setup();
        let forged = CertificateBuilder::new()
            .subject_cn("forged.example")
            .issuer(ca_dn("Chain CA"))
            .validity_days(DateTime::date(2024, 1, 1).unwrap(), 90)
            .build_signed(&SimKey::from_seed("attacker"));
        assert_eq!(
            store.verify_leaf(&forged, &DateTime::date(2024, 2, 1).unwrap()),
            Err(ChainError::BadSignature)
        );
    }

    #[test]
    fn expiry_windows_enforced() {
        let (store, leaf, _) = setup();
        assert_eq!(
            store.verify_leaf(&leaf, &DateTime::date(2025, 1, 1).unwrap()),
            Err(ChainError::Expired)
        );
        assert_eq!(
            store.verify_leaf(&leaf, &DateTime::date(2035, 1, 1).unwrap()),
            Err(ChainError::Expired)
        );
    }

    #[test]
    fn revocation_via_crl() {
        let (mut store, leaf, key) = setup();
        let at = DateTime::date(2024, 2, 1).unwrap();
        store.verify_leaf(&leaf, &at).unwrap();
        let crl = crate::crl::CertificateList::build(
            crate::crl::TbsCertList {
                issuer: ca_dn("Chain CA"),
                this_update: DateTime::date(2024, 1, 15).unwrap(),
                next_update: DateTime::date(2024, 3, 1).unwrap(),
                revoked: vec![crate::crl::RevokedCert {
                    serial: vec![0x42],
                    revocation_date: DateTime::date(2024, 1, 20).unwrap(),
                }],
            },
            &key,
        );
        store.add_crl(&ca_dn("Chain CA"), crl);
        assert_eq!(store.verify_leaf(&leaf, &at), Err(ChainError::Revoked));
    }
}
