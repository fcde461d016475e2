//! Trust-store construction for the synthetic CA population: self-signed
//! CA certificates (one per issuer organization) with their simulated
//! keys, enabling the §5.1 chain-reconstruction methodology end to end.

use crate::issuers::{population, IssuerProfile};
use unicert_asn1::oid::known;
use unicert_asn1::{DateTime, StringKind};
use unicert_x509::chain::{self, TrustStore};
use unicert_x509::{Certificate, DistinguishedName, SimKey};

/// The issuer DN of one issuer's CA certificate, which the corpus
/// generator also puts in every leaf that issuer signs.
pub fn issuer_dn(profile: &IssuerProfile) -> DistinguishedName {
    let ca_cn = format!("{} Unicert CA", profile.org_name);
    DistinguishedName::from_attributes(&[
        (known::country_name(), StringKind::Printable, profile.region),
        (known::organization_name(), StringKind::Utf8, profile.org_name),
        (known::common_name(), StringKind::Utf8, ca_cn.as_str()),
    ])
}

/// The self-signed CA certificate for one issuer.
pub fn ca_certificate(profile: &IssuerProfile) -> (Certificate, SimKey) {
    let key = SimKey::from_seed(profile.org_name);
    let cert = chain::self_signed_ca(
        issuer_dn(profile),
        &key,
        DateTime {
            year: profile.active.0.max(2004),
            month: 1,
            day: 1,
            hour: 0,
            minute: 0,
            second: 0,
        },
        // CA certs outlive their leaves comfortably.
        30 * 365,
    );
    (cert, key)
}

/// A trust store covering the whole issuer population.
pub fn build_trust_store() -> TrustStore {
    let mut store = TrustStore::new();
    for profile in population() {
        let (cert, key) = ca_certificate(&profile);
        store.add_ca(cert, key);
    }
    store
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{CorpusConfig, CorpusGenerator};

    #[test]
    fn store_covers_population() {
        let store = build_trust_store();
        assert_eq!(store.len(), population().len());
    }

    #[test]
    fn every_corpus_leaf_chains_and_verifies() {
        let store = build_trust_store();
        for entry in CorpusGenerator::new(CorpusConfig {
            size: 400,
            seed: 17,
            precert_fraction: 0.0,
            latent_defects: false,
        }) {
            let at = entry.cert.tbs.validity.not_before.plus_days(1);
            store
                .verify_leaf(&entry.cert, &at)
                .unwrap_or_else(|e| panic!("{}: {e:?}", entry.meta.issuer_org));
            let chain = store.build_chain(&entry.cert).unwrap();
            assert_eq!(chain.len(), 2);
            // The CA end of the chain is self-signed.
            assert_eq!(chain[1].tbs.issuer, chain[1].tbs.subject);
        }
    }

    #[test]
    fn tampered_leaf_fails_chain_verification() {
        let store = build_trust_store();
        let entry = CorpusGenerator::new(CorpusConfig {
            size: 1,
            seed: 17,
            precert_fraction: 0.0,
            latent_defects: false,
        })
        .next()
        .unwrap();
        let mut der = entry.cert.raw.clone();
        // Flip a byte inside the TBS (the serial region is near the front).
        der[10] ^= 0x01;
        if let Ok(tampered) = unicert_x509::Certificate::parse_der(&der) {
            let at = tampered.tbs.validity.not_before.plus_days(1);
            assert!(store.verify_leaf(&tampered, &at).is_err());
        }
    }
}
