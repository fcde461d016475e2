//! X.509 v3 certificate model for the `unicert` workspace: DER parsing,
//! lossless re-encoding, programmatic construction (including deliberately
//! malformed fields), and simulated signing.
//!
//! Design requirement (DESIGN.md §2): raw bytes are retained everywhere a
//! string lives. A `UTF8String` that is not valid UTF-8 must *parse* — the
//! noncompliance is data for the linter, not a reason to fail.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builder;
pub mod certificate;
pub mod chain;
pub mod crl;
pub mod display;
pub mod extensions;
pub mod general_name;
pub mod name;
pub mod name_constraints;
pub mod pem;
pub mod sha256;
pub mod sign;
pub mod value;
pub mod view;

pub use builder::CertificateBuilder;
pub use certificate::{AlgorithmIdentifier, CertDer, Certificate, TbsCertificate, Validity};
pub use chain::{ChainError, TrustStore};
pub use crl::CertificateList;
pub use display::EscapingStandard;
pub use extensions::{Extension, ParsedExtension};
pub use general_name::GeneralName;
pub use name::{AttributeTypeAndValue, DistinguishedName, Rdn};
pub use sign::SimKey;
pub use value::RawValue;
pub use view::{AttrView, CertView, DnView, ExtensionView};
