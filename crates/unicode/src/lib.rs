//! Unicode machinery for the `unicert` workspace.
//!
//! Everything the paper's analyses touch:
//!
//! * the five **decoding methods** TLS libraries were observed to use
//!   (§3.2): ASCII, ISO-8859-1, UTF-8, UCS-2, UTF-16 — in [`encodings`],
//!   together with the three **special-character handling modes**
//!   (truncation, replacement, escaping);
//! * the **Unicode block** table used to sample test characters, one per
//!   block, exactly as the paper's generator does — in [`blocks`];
//! * **per-code-point properties** (general category, canonical combining
//!   class, NFC quick check, IDNA2008 class) from one generated two-stage
//!   table — in [`props`], with the category enum in [`category`];
//! * **NFC normalization** (RFC 5280 requires NFC for UTF8String values;
//!   T2 "Bad Normalization" lints depend on it) — in [`nfc`];
//! * character **classification** helpers (C0/C1 controls, bidi and layout
//!   controls, zero-width characters, the paper's "Non-PrintableASCII"
//!   definition) — in [`classify`];
//! * a **confusables** skeleton for the homograph experiments (App. F.1) —
//!   in [`confusables`].
//!
//! Data tables are generated from the Unicode Character Database 14.0 by
//! `tools/gen_tables.py`, which asserts that version for every source (see
//! DESIGN.md §3 for the substitution note).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod category;
pub mod classify;
pub mod confusables;
pub mod encodings;
pub mod nfc;
pub mod props;
#[allow(missing_docs)]
pub mod tables;

pub use blocks::{block_of, Block};
pub use category::GeneralCategory;
pub use encodings::{DecodeError, DecodingMethod, HandlingMode};
pub use props::{CharProps, IdnaClass, NfcQuickCheck};
