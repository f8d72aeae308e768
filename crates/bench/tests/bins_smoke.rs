//! Smoke tests: every figure/table binary must run to completion in
//! `--quick` mode and produce non-empty, parseable output.
//!
//! "Parseable" here means: the expected artifact title appears, the output
//! has a tabular body (several lines), and at least one numeric cell is
//! present — enough to catch a binary that panics, prints nothing, or
//! loses its data rows, without pinning exact figures (which the unit
//! tests of each model already cover).

use std::process::Command;

/// Runs one compiled bench binary with `--quick` and returns stdout.
fn run_quick(exe: &str) -> String {
    let output = Command::new(exe)
        .arg("--quick")
        .env("PLUTO_QUICK", "1")
        .output()
        .unwrap_or_else(|e| panic!("spawning {exe}: {e}"));
    assert!(
        output.status.success(),
        "{exe} exited with {:?}\nstderr:\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).unwrap_or_else(|e| panic!("{exe}: non-UTF8 stdout: {e}"))
}

/// Asserts the shared output contract for one binary.
fn assert_parseable(name: &str, stdout: &str, title: &str) {
    assert!(!stdout.trim().is_empty(), "{name}: empty stdout");
    assert!(
        stdout.contains(title),
        "{name}: missing title '{title}' in output:\n{stdout}"
    );
    let lines: Vec<&str> = stdout.lines().filter(|l| !l.trim().is_empty()).collect();
    assert!(
        lines.len() >= 3,
        "{name}: expected a tabular body, got {} non-empty lines",
        lines.len()
    );
    // At least one numeric cell (integer or float) somewhere in the body.
    let has_number = stdout.split_whitespace().any(|tok| {
        tok.trim_matches(|c: char| !c.is_ascii_digit() && c != '.')
            .parse::<f64>()
            .is_ok()
    });
    assert!(has_number, "{name}: no numeric cells in output:\n{stdout}");
}

macro_rules! smoke {
    ($test:ident, $bin:literal, $title:literal) => {
        #[test]
        fn $test() {
            let stdout = run_quick(env!(concat!("CARGO_BIN_EXE_", $bin)));
            assert_parseable($bin, &stdout, $title);
        }
    };
}

smoke!(ablations_quick, "ablations", "Ablation 1");
smoke!(fig06_bitline_quick, "fig06_bitline", "Figure 6");
smoke!(fig07_speedup_quick, "fig07_speedup", "Figure 7");
smoke!(fig08_perf_per_area_quick, "fig08_perf_per_area", "Figure 8");
smoke!(fig09_fpga_quick, "fig09_fpga", "Figure 9");
smoke!(fig10_energy_quick, "fig10_energy", "Figure 10");
smoke!(fig11_lut_loading_quick, "fig11_lut_loading", "Figure 11");
smoke!(fig12_scalability_quick, "fig12_scalability", "Figure 12");
smoke!(fig13_tfaw_quick, "fig13_tfaw", "Figure 13");
smoke!(fig14_salp_quick, "fig14_salp", "Figure 14");
smoke!(table5_area_quick, "table5_area", "Table 5");
smoke!(table6_pum_quick, "table6_pum", "Table 6");
smoke!(table7_qnn_quick, "table7_qnn", "Table 7");

/// `table1_designs` also checks the executor's measured query latency
/// against Table 1's closed form, once per design: all three must match.
#[test]
fn table1_designs_quick() {
    let stdout = run_quick(env!("CARGO_BIN_EXE_table1_designs"));
    assert_parseable("table1_designs", &stdout, "Table 1");
    let matches = stdout
        .lines()
        .filter(|l| l.trim_end().ends_with("-> MATCH"))
        .count();
    assert_eq!(
        matches, 3,
        "table1_designs: expected 3 MATCH lines:\n{stdout}"
    );
    assert!(
        !stdout.contains("MISMATCH"),
        "table1_designs: a design's latency missed its closed form:\n{stdout}"
    );
}
