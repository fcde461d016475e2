//! Internationalized Domain Name machinery: Punycode (RFC 3492) and
//! IDNA2008 label validation (RFC 5890–5892).
//!
//! The paper's F1 finding — CAs issuing certificates whose `xn--` labels
//! either *cannot be converted back to Unicode* or *decode to characters the
//! IDNA standard disallows* — is detected with exactly the tools in this
//! crate:
//!
//! * [`punycode`]: the bootstring codec;
//! * [`label`]: A-label ⇄ U-label conversion and per-label validation,
//!   including the RFC 5892 derived-property check (PVALID / CONTEXTJ /
//!   CONTEXTO / DISALLOWED) read from the UCD 14.0 property table of
//!   `unicert_unicode::props`;
//! * [`domain`]: whole-domain handling (dots, wildcards, length limits,
//!   LDH syntax from RFC 1034/5890);
//! * [`bidi`]: the RFC 5893 Bidi rule (simplified; see its module docs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bidi;
pub mod domain;
pub mod label;
pub mod punycode;

pub use domain::{is_idn_domain, validate_dns_name, DnsNameError};
pub use label::{a_to_u, u_to_a, IdnaClass, LabelError};
