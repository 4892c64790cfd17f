//! Rendering of experiment artefacts: ASCII tables (matching the paper's
//! presentation) and CSV series for external plotting.

use crate::fig5::Fig5Row;
use crate::fig6::Fig6Point;
use crate::table1::Table1Row;
use crate::timing::TimingSummary;
use std::fmt::Write;

/// Renders Table 1 in the paper's layout.
///
/// # Examples
///
/// ```
/// use experiments::{report::render_table1, table1::Table1Row};
/// let rows = vec![Table1Row {
///     method: "Worst Case".into(),
///     throughput_inaccuracy: 49.0,
///     period_inaccuracy: 112.1,
///     complexity: "O(n)",
/// }];
/// let s = render_table1(&rows);
/// assert!(s.contains("Worst Case"));
/// assert!(s.contains("112.1"));
/// ```
pub fn render_table1(rows: &[Table1Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>10} {:>10}",
        "Method", "Throughput %", "Period %", "Complexity"
    );
    let _ = writeln!(out, "{}", "-".repeat(54));
    for r in rows {
        let _ = writeln!(
            out,
            "{:<18} {:>12.1} {:>10.1} {:>10}",
            r.method, r.throughput_inaccuracy, r.period_inaccuracy, r.complexity
        );
    }
    out
}

/// Renders Table 1 as CSV (`method,throughput_pct,period_pct,complexity`).
pub fn table1_csv(rows: &[Table1Row]) -> String {
    let mut out =
        String::from("method,throughput_inaccuracy_pct,period_inaccuracy_pct,complexity\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{},{:.4},{:.4},{}",
            r.method, r.throughput_inaccuracy, r.period_inaccuracy, r.complexity
        );
    }
    out
}

/// Renders Figure 5 as an aligned text table, one application per row and
/// one series per column.
pub fn render_fig5(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let methods: Vec<&String> = rows[0].estimates.keys().collect();
    let _ = write!(
        out,
        "{:<4} {:>9} {:>9} {:>9}",
        "App", "Original", "Simulated", "SimWorst"
    );
    for m in &methods {
        let _ = write!(out, " {:>15}", m);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(34 + 16 * methods.len()));
    for r in rows {
        let _ = write!(
            out,
            "{:<4} {:>9.2} {:>9.2} {:>9.2}",
            r.name, r.original, r.simulated, r.simulated_worst
        );
        for m in &methods {
            let _ = write!(out, " {:>15.2}", r.estimates[*m]);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Figure 5 as CSV with one row per application.
pub fn fig5_csv(rows: &[Fig5Row]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let methods: Vec<&String> = rows[0].estimates.keys().collect();
    out.push_str("app,isolation_period,original,simulated,simulated_worst");
    for m in &methods {
        let _ = write!(out, ",{m}");
    }
    out.push('\n');
    for r in rows {
        let _ = write!(
            out,
            "{},{:.4},{:.4},{:.4},{:.4}",
            r.name, r.isolation_period, r.original, r.simulated, r.simulated_worst
        );
        for m in &methods {
            let _ = write!(out, ",{:.4}", r.estimates[*m]);
        }
        out.push('\n');
    }
    out
}

/// Renders the Figure 6 series as an aligned text table (one cardinality per
/// row).
pub fn render_fig6(points: &[Fig6Point]) -> String {
    let mut out = String::new();
    if points.is_empty() {
        return out;
    }
    let methods: Vec<&String> = points[0].inaccuracy.keys().collect();
    let _ = write!(out, "{:<6}", "#Apps");
    for m in &methods {
        let _ = write!(out, " {:>15}", m);
    }
    let _ = writeln!(out);
    let _ = writeln!(out, "{}", "-".repeat(6 + 16 * methods.len()));
    for p in points {
        let _ = write!(out, "{:<6}", p.concurrent_apps);
        for m in &methods {
            match p.inaccuracy.get(*m) {
                Some(v) => {
                    let _ = write!(out, " {:>14.1}%", v);
                }
                None => {
                    let _ = write!(out, " {:>15}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders Figure 6 as CSV.
pub fn fig6_csv(points: &[Fig6Point]) -> String {
    let mut out = String::new();
    if points.is_empty() {
        return out;
    }
    let methods: Vec<&String> = points[0].inaccuracy.keys().collect();
    out.push_str("concurrent_apps");
    for m in &methods {
        let _ = write!(out, ",{m}");
    }
    out.push('\n');
    for p in points {
        let _ = write!(out, "{}", p.concurrent_apps);
        for m in &methods {
            match p.inaccuracy.get(*m) {
                Some(v) => {
                    let _ = write!(out, ",{:.4}", v);
                }
                None => out.push(','),
            }
        }
        out.push('\n');
    }
    out
}

/// Renders the timing summary: each analysis against the simulation, as
/// how many times faster — or slower — it ran.
pub fn render_timing(summary: &TimingSummary) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Use-cases evaluated : {}", summary.use_cases);
    let _ = writeln!(out, "Simulation total    : {:?}", summary.simulation);
    for (method, t) in &summary.analysis {
        let speedup = summary.speedup[method];
        let (ratio, verdict) = if speedup >= 1.0 {
            (speedup, "faster")
        } else {
            (1.0 / speedup, "slower")
        };
        let _ = writeln!(
            out,
            "Analysis [{method:<15}] : {t:?} ({ratio:.1}x {verdict} than simulation)"
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use std::time::Duration;

    fn sample_fig5() -> Vec<Fig5Row> {
        let mut estimates = BTreeMap::new();
        estimates.insert("order-2".to_string(), 3.2);
        estimates.insert("worst-case-rr".to_string(), 9.9);
        vec![Fig5Row {
            app: platform::AppId(0),
            name: "A".into(),
            isolation_period: 321.0,
            original: 1.0,
            simulated: 3.0,
            simulated_worst: 4.5,
            estimates,
        }]
    }

    #[test]
    fn fig5_renderings() {
        let rows = sample_fig5();
        let text = render_fig5(&rows);
        assert!(text.contains("order-2"));
        assert!(text.contains("3.00"));
        let csv = fig5_csv(&rows);
        assert!(csv.starts_with("app,isolation_period"));
        assert!(csv.lines().count() == 2);
        assert!(csv.contains("A,321.0000,1.0000,3.0000,4.5000"));
    }

    #[test]
    fn fig6_renderings() {
        let mut inaccuracy = BTreeMap::new();
        inaccuracy.insert("order-2".to_string(), 12.5);
        let points = vec![Fig6Point {
            concurrent_apps: 3,
            inaccuracy,
        }];
        assert!(render_fig6(&points).contains("12.5%"));
        let csv = fig6_csv(&points);
        assert!(csv.contains("concurrent_apps,order-2"));
        assert!(csv.contains("3,12.5000"));
    }

    #[test]
    fn empty_inputs_render_empty() {
        assert!(render_fig5(&[]).is_empty());
        assert!(fig5_csv(&[]).is_empty());
        assert!(render_fig6(&[]).is_empty());
        assert!(fig6_csv(&[]).is_empty());
    }

    #[test]
    fn timing_rendering() {
        let mut analysis = BTreeMap::new();
        analysis.insert("order-2".to_string(), Duration::from_millis(10));
        let mut speedup = BTreeMap::new();
        speedup.insert("order-2".to_string(), 120.0);
        let s = render_timing(&TimingSummary {
            use_cases: 1023,
            simulation: Duration::from_secs(12),
            analysis,
            speedup,
        });
        assert!(s.contains("1023"));
        assert!(s.contains("(120.0x faster than simulation)"), "{s}");
    }

    #[test]
    fn timing_rendering_says_slower_when_the_analysis_is() {
        // 1.503 s of analysis against 1.374 s of simulation.
        let mut analysis = BTreeMap::new();
        analysis.insert("exact".to_string(), Duration::from_millis(1503));
        let mut speedup = BTreeMap::new();
        speedup.insert("exact".to_string(), 1374.0 / 1503.0);
        let s = render_timing(&TimingSummary {
            use_cases: 1023,
            simulation: Duration::from_millis(1374),
            analysis,
            speedup,
        });
        assert!(s.contains("(1.1x slower than simulation)"), "{s}");
        assert!(!s.contains("faster"), "{s}");
    }
}
