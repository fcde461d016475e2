//! Text codec for [`SurveyReport`] checkpoint bodies.
//!
//! A per-shard checkpoint persists the shard's entire `SurveyReport` as
//! keyword-first, tab-separated lines (free-form fields go through
//! [`crate::escape`], so they never break framing):
//!
//! ```text
//! profile webpki
//! counts 2500 0 2500 133 2410 21 14 18
//! type Invalid\x20Character 7 5 7 0 6 3 4          (tabs, shown as \x20)
//! lint e_cn_not_nfc 4
//! issuer Let's\x20Encrypt public 1500 9 4
//! year 2024 400 390 6 900 11
//! vidn 90,90,365
//! vother -
//! vnc 365
//! cell Let's\x20Encrypt CN 30 2
//! q 512 lint 0a1b2c parse\x20blew\x20up 2
//! qf unit 512 begin
//! qf context some_lint
//! outcome ok 2500
//! ```
//!
//! Decoding *re-interns* every `&'static str` the report carries — lint
//! names against the run's [`Registry`], stage/field/outcome labels
//! against the closed tables `unicert-core` exports, the profile against
//! the registered profile list — so a decoded report is indistinguishable
//! (including its `Debug` rendering, hence its fingerprint) from one a
//! fresh run produced. A label that no longer interns (a lint renamed
//! between runs, a foreign profile) fails the decode; the caller treats
//! that exactly like a corrupt checkpoint and re-surveys the shard.

use crate::segment::{parse_trust, trust_label};
use crate::{escape, unescape};
use unicert::survey::{
    intern_label, IssuerStats, QuarantineEntry, SurveyReport, TypeStats, YearStats, FIELD_LABELS,
    OUTCOME_CLASSES, STAGE_LABELS,
};
use unicert_lint::{NoncomplianceType, Registry};

/// Render one `i64` sample vector: comma-joined, `-` when empty (so the
/// line count is fixed and decode needs no lookahead).
fn encode_samples(samples: &[i64]) -> String {
    if samples.is_empty() {
        return "-".to_string();
    }
    let mut out = String::new();
    for (i, v) in samples.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&v.to_string());
    }
    out
}

/// Reverse of [`encode_samples`].
fn decode_samples(field: &str) -> Result<Vec<i64>, String> {
    if field == "-" {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    for part in field.split(',') {
        out.push(part.parse().map_err(|_| format!("bad sample value {part:?}"))?);
    }
    Ok(out)
}

/// Encode `report` as checkpoint-body lines (no header, no trailer —
/// `checkpoint.rs` owns the envelope).
pub fn encode_report(report: &SurveyReport) -> String {
    let mut out = String::new();
    let profile = if report.profile.is_empty() { "-" } else { report.profile };
    out.push_str(&format!("profile\t{}\n", escape(profile)));
    out.push_str(&format!(
        "counts\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        report.entries,
        report.precerts_filtered,
        report.total,
        report.idn_certs,
        report.trusted_total,
        report.noncompliant,
        report.noncompliant_trusted,
        report.noncompliant_by_new_lints,
    ));
    for (nc_type, ts) in &report.by_type {
        out.push_str(&format!(
            "type\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            escape(nc_type.label()),
            ts.certs,
            ts.by_new_lints,
            ts.errors,
            ts.warnings,
            ts.trusted,
            ts.recent,
            ts.alive,
        ));
    }
    for (lint, n) in &report.by_lint {
        out.push_str(&format!("lint\t{}\t{}\n", escape(lint), n));
    }
    for (issuer, is_) in &report.by_issuer {
        out.push_str(&format!(
            "issuer\t{}\t{}\t{}\t{}\t{}\n",
            escape(issuer),
            trust_label(is_.trust),
            is_.total,
            is_.noncompliant,
            is_.recent_noncompliant,
        ));
    }
    for (year, ys) in &report.by_year {
        out.push_str(&format!(
            "year\t{year}\t{}\t{}\t{}\t{}\t{}\n",
            ys.issued, ys.trusted, ys.noncompliant, ys.alive, ys.alive_noncompliant,
        ));
    }
    out.push_str(&format!("vidn\t{}\n", encode_samples(&report.validity.idn)));
    out.push_str(&format!("vother\t{}\n", encode_samples(&report.validity.other)));
    out.push_str(&format!("vnc\t{}\n", encode_samples(&report.validity.noncompliant)));
    for ((issuer, field), (total, nc)) in &report.field_matrix {
        out.push_str(&format!(
            "cell\t{}\t{}\t{}\t{}\n",
            escape(issuer),
            field,
            total,
            nc
        ));
    }
    for q in &report.quarantine {
        out.push_str(&format!(
            "q\t{}\t{}\t{}\t{}\t{}\n",
            q.index,
            q.stage,
            escape(&q.cert_id),
            escape(&q.detail),
            q.flight.len(),
        ));
        for line in &q.flight {
            out.push_str(&format!("qf\t{}\n", escape(line)));
        }
    }
    for (class, n) in &report.parse_outcomes {
        out.push_str(&format!("outcome\t{class}\t{n}\n"));
    }
    out
}

/// Re-intern a taxonomy label against [`NoncomplianceType::ALL`].
fn intern_nc_type(label: &str) -> Option<NoncomplianceType> {
    NoncomplianceType::ALL.into_iter().find(|t| t.label() == label)
}

/// Decode checkpoint-body lines back into a [`SurveyReport`], re-interning
/// against `registry` (see the module docs). Errors carry a one-line
/// reason; callers treat any error as "checkpoint invalid, re-survey".
pub fn decode_report(body: &str, registry: &Registry) -> Result<SurveyReport, String> {
    let mut report = SurveyReport::default();
    let mut pending_flight = 0usize;
    let mut saw_counts = false;
    for line in body.lines() {
        let mut fields = line.split('\t');
        let keyword = fields.next().unwrap_or_default();
        if pending_flight > 0 && keyword != "qf" {
            return Err("quarantine flight lines are truncated".to_string());
        }
        match keyword {
            "profile" => {
                let name = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("profile line is malformed")?;
                report.profile = if name == "-" {
                    ""
                } else {
                    unicert_lint::profiles::find(&name)
                        .map(|p| p.name)
                        .ok_or_else(|| format!("unknown profile {name:?}"))?
                };
            }
            "counts" => {
                let mut next = || -> Result<usize, String> {
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "counts line is malformed".to_string())
                };
                report.entries = next()?;
                report.precerts_filtered = next()?;
                report.total = next()?;
                report.idn_certs = next()?;
                report.trusted_total = next()?;
                report.noncompliant = next()?;
                report.noncompliant_trusted = next()?;
                report.noncompliant_by_new_lints = next()?;
                saw_counts = true;
            }
            "type" => {
                let nc_type = fields
                    .next()
                    .and_then(unescape)
                    .as_deref()
                    .and_then(intern_nc_type)
                    .ok_or("type line names no known taxonomy type")?;
                let mut next = || -> Result<usize, String> {
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "type line is malformed".to_string())
                };
                let ts = TypeStats {
                    certs: next()?,
                    by_new_lints: next()?,
                    errors: next()?,
                    warnings: next()?,
                    trusted: next()?,
                    recent: next()?,
                    alive: next()?,
                };
                report.by_type.insert(nc_type, ts);
            }
            "lint" => {
                let name = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("lint line is malformed")?;
                let interned = registry
                    .get(&name)
                    .map(|l| l.name)
                    .ok_or_else(|| format!("unknown lint {name:?}"))?;
                let n = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("lint count is malformed")?;
                report.by_lint.insert(interned, n);
            }
            "issuer" => {
                let issuer = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("issuer line is malformed")?;
                let trust = fields
                    .next()
                    .and_then(parse_trust)
                    .ok_or("issuer trust label is malformed")?;
                let mut next = || -> Result<usize, String> {
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "issuer line is malformed".to_string())
                };
                let stats = IssuerStats {
                    trust,
                    total: next()?,
                    noncompliant: next()?,
                    recent_noncompliant: next()?,
                };
                report.by_issuer.insert(issuer, stats);
            }
            "year" => {
                let year: i32 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("year line is malformed")?;
                let mut next = || -> Result<usize, String> {
                    fields
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "year line is malformed".to_string())
                };
                let ys = YearStats {
                    issued: next()?,
                    trusted: next()?,
                    noncompliant: next()?,
                    alive: next()?,
                    alive_noncompliant: next()?,
                };
                report.by_year.insert(year, ys);
            }
            "vidn" => {
                report.validity.idn =
                    decode_samples(fields.next().ok_or("vidn line is malformed")?)?;
            }
            "vother" => {
                report.validity.other =
                    decode_samples(fields.next().ok_or("vother line is malformed")?)?;
            }
            "vnc" => {
                report.validity.noncompliant =
                    decode_samples(fields.next().ok_or("vnc line is malformed")?)?;
            }
            "cell" => {
                let issuer = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("cell line is malformed")?;
                let field = fields
                    .next()
                    .and_then(|f| intern_label(f, &FIELD_LABELS))
                    .ok_or("cell line names no known field label")?;
                let total = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("cell totals are malformed")?;
                let nc = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("cell totals are malformed")?;
                report.field_matrix.insert((issuer, field), (total, nc));
            }
            "q" => {
                let index: u64 = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("quarantine line is malformed")?;
                let stage = fields
                    .next()
                    .and_then(|s| intern_label(s, &STAGE_LABELS))
                    .ok_or("quarantine line names no known stage")?;
                let cert_id = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("quarantine line is malformed")?;
                let detail = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("quarantine line is malformed")?;
                pending_flight = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("quarantine flight count is malformed")?;
                report.quarantine.push(QuarantineEntry {
                    index,
                    cert_id,
                    stage,
                    detail,
                    flight: Vec::new(),
                });
            }
            "qf" => {
                if pending_flight == 0 {
                    return Err("stray quarantine flight line".to_string());
                }
                let flight_line = fields
                    .next()
                    .and_then(unescape)
                    .ok_or("quarantine flight line is malformed")?;
                match report.quarantine.last_mut() {
                    Some(q) => q.flight.push(flight_line),
                    None => return Err("stray quarantine flight line".to_string()),
                }
                pending_flight -= 1;
            }
            "outcome" => {
                let class = fields
                    .next()
                    .and_then(|c| intern_label(c, &OUTCOME_CLASSES))
                    .ok_or("outcome line names no known class")?;
                let n = fields
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("outcome count is malformed")?;
                report.parse_outcomes.insert(class, n);
            }
            "" => return Err("empty checkpoint body line".to_string()),
            other => return Err(format!("unrecognized checkpoint row {other:?}")),
        }
    }
    if pending_flight > 0 {
        return Err("quarantine flight lines are truncated".to_string());
    }
    if !saw_counts {
        return Err("checkpoint body is missing its counts line".to_string());
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use unicert::survey::{survey, SurveyOptions};
    use unicert_corpus::{lint_registry, CorpusConfig, CorpusGenerator};

    fn sample_report() -> SurveyReport {
        let entries: Vec<_> = CorpusGenerator::new(CorpusConfig {
            size: 600,
            seed: 42,
            precert_fraction: 0.1,
            latent_defects: true,
        })
        .collect();
        survey(lint_registry(), &entries, SurveyOptions::default(), 0)
    }

    #[test]
    fn report_round_trips_byte_identically() {
        let report = sample_report();
        let body = encode_report(&report);
        let decoded = decode_report(&body, lint_registry()).unwrap();
        assert_eq!(decoded, report);
        // The real contract: identical Debug rendering → identical
        // fingerprint, including re-interned &'static str keys.
        assert_eq!(format!("{decoded:?}"), format!("{report:?}"));
        assert_eq!(decoded.fingerprint(), report.fingerprint());
    }

    #[test]
    fn quarantined_report_round_trips() {
        let mut report = sample_report();
        report.quarantine.push(QuarantineEntry {
            index: 7,
            cert_id: "#7".to_string(),
            stage: "store",
            detail: "torn_write: segment is 12 of 900 manifest bytes".to_string(),
            flight: vec!["unit 7 begin".to_string(), "tab\there".to_string()],
        });
        let decoded = decode_report(&encode_report(&report), lint_registry()).unwrap();
        assert_eq!(decoded, report);
    }

    #[test]
    fn unknown_labels_fail_the_decode() {
        let report = sample_report();
        let body = encode_report(&report);
        for (needle, replacement) in [
            ("profile\twebpki", "profile\tno_such_profile"),
            ("counts\t", "qf\t"),
        ] {
            let bad = body.replacen(needle, replacement, 1);
            assert!(decode_report(&bad, lint_registry()).is_err(), "{needle}");
        }
        let mut with_bad_lint = String::new();
        for line in body.lines() {
            if line.starts_with("lint\t") {
                with_bad_lint.push_str("lint\tno_such_lint\t3\n");
            } else {
                with_bad_lint.push_str(line);
                with_bad_lint.push('\n');
            }
        }
        assert!(decode_report(&with_bad_lint, lint_registry()).is_err());
    }
}
