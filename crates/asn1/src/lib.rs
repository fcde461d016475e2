//! Strict DER (Distinguished Encoding Rules) codec.
//!
//! This crate is the ASN.1 substrate of the `unicert` workspace. It provides
//! exactly what X.509 certificate work needs and nothing more:
//!
//! * a zero-copy [`Reader`] over DER `TLV` triplets with definite lengths,
//!   minimal-length enforcement, and recursion-depth limits;
//! * a [`Writer`] that produces canonical DER;
//! * typed value codecs: [`Oid`], integers, bit strings,
//!   [`UTCTime`/`GeneralizedTime`](time), booleans;
//! * the eight ASN.1 string types of RFC 5280 (Table 8 of the paper) with
//!   per-type character-set validation in [`strings`].
//!
//! # Design notes
//!
//! Following the paper's methodology (§3.2), *encoding is deliberately not
//! gated on validation*: the test-certificate generator must be able to emit
//! a `PrintableString` carrying bytes outside the PrintableString character
//! set, because noncompliant encodings are the object of study. Validation is
//! a separate, explicit step ([`strings::validate`]).
//!
//! No `unsafe`, no panics on untrusted input: every parse failure is an
//! [`Error`] variant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitstring;
pub mod error;
pub mod integer;
pub mod oid;
pub mod reader;
pub mod strings;
pub mod tag;
pub mod time;
pub mod writer;

pub use bitstring::BitString;
pub use error::{Error, Result};
pub use oid::Oid;
pub use reader::{BudgetState, ParseBudget, Reader, Span, Tlv};
pub use strings::StringKind;
pub use tag::{Class, Tag};
pub use time::{DateTime, TimeKind};
pub use writer::Writer;
