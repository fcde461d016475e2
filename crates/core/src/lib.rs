//! `unicert` — umbrella crate of the Unicert reproduction workspace.
//!
//! This crate ties the substrates together and exposes the paper's
//! end-to-end pipelines:
//!
//! * [`classify`] — Unicert / IDNCert classification (§2.3);
//! * [`survey`] — the §4 issuance-compliance survey (CT entry → precert
//!   filter → classify → lint → aggregate), feeding Tables 1/2/11 and
//!   Figures 2/3/4. One function, [`survey::survey`], takes any slice of
//!   [`survey::SurveyInput`]s (a certificate, as DER or already parsed,
//!   plus optional metadata); [`survey::run`] takes a streaming generator;
//! * re-exports of every subsystem crate under one roof.
//!
//! ```
//! use unicert::corpus::{CorpusConfig, CorpusGenerator};
//! use unicert::survey::{self, SurveyOptions};
//!
//! let gen = CorpusGenerator::new(CorpusConfig { size: 200, seed: 1, ..Default::default() });
//! let report = survey::run(gen, SurveyOptions::default());
//! assert_eq!(report.total, 200);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod pool;
pub mod survey;

pub use unicert_asn1 as asn1;
pub use unicert_corpus as corpus;
pub use unicert_idna as idna;
pub use unicert_lint as lint;
pub use unicert_monitors as monitors;
pub use unicert_parsers as parsers;
pub use unicert_telemetry as telemetry;
pub use unicert_threats as threats;
pub use unicert_unicode as unicode;
pub use unicert_x509 as x509;

pub use classify::UnicertClass;
pub use survey::{ParseOutcome, QuarantineEntry, SurveyOptions, SurveyReport};
