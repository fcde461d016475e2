//! E-ABL — the §4.3 footnote-4 ablation: re-run the survey with
//! effective-date gating disabled and report the inflation factor
//! (paper: 249.3K → 1.8M, ≈7.3×).

use unicert::corpus::CorpusGenerator;
use unicert::lint::RunOptions;
use unicert::survey::{self, SurveyOptions};

fn main() {
    let _telemetry = unicert_bench::telemetry_args();
    let config = unicert_bench::corpus_args(100_000);
    eprintln!("corpus: {} Unicerts (seed {})", config.size, config.seed);

    let gated = survey::run(
        CorpusGenerator::new(config.clone()),
        SurveyOptions { field_matrix: false, ..Default::default() },
    );
    let ungated = survey::run(
        CorpusGenerator::new(config),
        SurveyOptions {
            lint: RunOptions::ungated(),
            field_matrix: false,
        },
    );

    println!("Ablation — effective-date gating (§3.1.2 / §4.3 footnote 4)");
    println!(
        "  gated (paper methodology):   {} noncompliant ({})",
        gated.noncompliant,
        unicert_bench::pct(gated.noncompliant, gated.total)
    );
    println!(
        "  ungated (retroactive rules): {} noncompliant ({})",
        ungated.noncompliant,
        unicert_bench::pct(ungated.noncompliant, ungated.total)
    );
    let ratio = ungated.noncompliant as f64 / gated.noncompliant.max(1) as f64;
    println!("  inflation factor:            {ratio:.1}×   [paper: 249.3K → 1.8M ≈ 7.2×]");
    println!("The gap is certificates issued before the rules they violate took effect —");
    println!("still risky while valid, but not counted as noncompliant issuance.");
}
