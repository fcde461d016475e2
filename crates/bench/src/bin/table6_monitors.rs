//! E-T6 — regenerate **Table 6**: Unicert tolerance among CT monitors,
//! plus the §6.1 evasion outcomes.

use unicert::monitors::{all_monitors, run_misleading_experiment};
use unicert_bench::table;

fn tick(b: bool) -> &'static str {
    if b {
        "✓"
    } else {
        "×"
    }
}

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    println!("Table 6 — Monitor capabilities");
    let rows: Vec<Vec<String>> = all_monitors()
        .iter()
        .map(|m| {
            vec![
                m.name.to_string(),
                tick(m.caps.case_sensitive).into(),
                tick(m.caps.unicode_search).into(),
                tick(m.caps.fuzzy_search).into(),
                tick(m.caps.u_label_check).into(),
                tick(m.caps.punycode_idn).into(),
                tick(m.caps.punycode_idn_cctld).into(),
                tick(m.caps.fails_on_special_unicode).into(),
            ]
        })
        .collect();
    println!(
        "{}",
        table::render(
            &["Monitor", "CaseSens", "Unicode", "Fuzzy", "U-label chk", "Punycode", "IDN-ccTLD", "Drops special"],
            &rows
        )
    );

    println!("§6.1 — misleading experiment (owner queries for the victim domain)");
    let outcomes = run_misleading_experiment();
    let mut techniques: Vec<&str> = outcomes.iter().map(|o| o.technique).collect();
    techniques.dedup();
    let monitors: Vec<&str> = all_monitors().iter().map(|m| m.name).collect();
    let mut headers: Vec<&str> = vec!["Technique"];
    headers.extend(monitors.iter().copied());
    let rows: Vec<Vec<String>> = techniques
        .iter()
        .map(|t| {
            let mut row = vec![t.to_string()];
            for m in &monitors {
                let o = outcomes
                    .iter()
                    .find(|o| &o.technique == t && &o.monitor == m)
                    .expect("full matrix");
                row.push(
                    if o.query_rejected {
                        "rejected"
                    } else if o.found {
                        "found"
                    } else {
                        "HIDDEN"
                    }
                    .to_string(),
                );
            }
            row
        })
        .collect();
    println!("{}", table::render(&headers, &rows));

    // Appendix F.2 methodology: sample noncompliant Unicerts from the
    // corpus and measure how many each monitor can still surface when the
    // owner queries the certificate's own (cleaned) name.
    let sample_target = 1_000usize;
    let registry = unicert::corpus::lint_registry();
    let mut sampled = Vec::new();
    let gen = unicert::corpus::CorpusGenerator::new(unicert::corpus::CorpusConfig {
        size: 400_000,
        seed: 42,
        precert_fraction: 0.0,
        latent_defects: false,
    });
    for entry in gen {
        if sampled.len() >= sample_target {
            break;
        }
        if registry
            .run(&entry.cert, unicert::lint::RunOptions::default())
            .expect("a generated certificate's DER parses")
            .is_noncompliant()
        {
            sampled.push(entry.cert);
        }
    }
    println!(
        "Appendix F.2 — {} sampled noncompliant Unicerts, per-monitor retrievability",
        sampled.len()
    );
    let mut rows = Vec::new();
    for template in all_monitors() {
        let mut monitor = all_monitors()
            .into_iter()
            .find(|m| m.name == template.name)
            .expect("same set");
        for (i, cert) in sampled.iter().enumerate() {
            monitor.ingest(i, cert);
        }
        let mut found = 0;
        for cert in &sampled {
            // The owner queries the certificate's CN (falling back to the
            // first SAN), stripped of any non-LDH decoration — what a human
            // would actually type into the search box.
            let Some(identity) = cert
                .tbs
                .subject
                .common_name()
                .or_else(|| cert.tbs.san_dns_names().first().cloned())
            else {
                continue;
            };
            let query: String = identity
                .chars()
                .filter(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '-' | '*'))
                .collect();
            if monitor.query(&query).map(|hits| !hits.is_empty()).unwrap_or(false) {
                found += 1;
            }
        }
        rows.push(vec![
            template.name.to_string(),
            found.to_string(),
            format!("{}", sampled.len() - found),
        ]);
    }
    println!(
        "{}",
        table::render(&["Monitor", "Retrievable", "Missed"], &rows)
    );
    println!("paper anchors: all monitors are case-insensitive (P1.1); exact-match monitors");
    println!("miss decorated names (P1.2); U-label checks split the field (P1.3); SSLMate's");
    println!("CN quirks lose certificates entirely (P1.4).");
}
