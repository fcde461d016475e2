//! The Unicert compliance linter — the paper's primary contribution.
//!
//! A Zlint-style framework ([`framework`]) carrying a catalog of **95
//! constraint rules** ([`catalog`]) extracted from RFC 5280 and its
//! internationalization updates (8399/9549/9598), the DNS and IDNA
//! standards, and the CA/Browser Forum Baseline Requirements. Fifty of the
//! rules are the paper's newly derived ("RFCGPT") lints not covered by
//! existing linters; the remainder transcribe pre-existing community rules
//! the paper reused.
//!
//! ```
//! use unicert_lint::{default_registry, RunOptions};
//! use unicert_x509::{CertificateBuilder, SimKey};
//! use unicert_asn1::DateTime;
//!
//! let registry = default_registry();
//! let cert = CertificateBuilder::new()
//!     .subject_cn("h\u{0}st.example")     // NUL in CN: T1
//!     .validity_days(DateTime::date(2024, 6, 1).unwrap(), 90)
//!     .build_signed(&SimKey::from_seed("demo-ca"));
//! let report = registry.run(&cert, RunOptions::default()).unwrap();
//! assert!(report.is_noncompliant());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod catalog;
pub mod context;
pub mod facts;
pub mod framework;
pub mod helpers;
pub mod profiles;

pub use catalog::{all_lints, default_registry};
pub use context::{LintContext, Origin};
pub use framework::{
    CertReport, Evidence, Finding, Lint, LintStatus, NoncomplianceType, Registry, RunOptions,
    RunTally, Severity, Source,
};
pub use profiles::{Profile, DEFAULT_PROFILE};
