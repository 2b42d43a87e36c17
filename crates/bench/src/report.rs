//! Machine-readable benchmark reports: parsing the `sm-bench/v2` JSON
//! emitted by the criterion shim (`SM_BENCH_JSON`) — and, for committed
//! baselines that predate the memory extension, the `sm-bench/v1` layout —
//! and comparing a current report against a committed baseline for the CI
//! perf-regression gate.
//!
//! Documents are read through the workspace's one JSON parser,
//! [`sm_audit::json`]; [`BenchReport::to_json`] keeps its own emitter so
//! the committed baselines keep their layout.

use sm_audit::json::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One benchmark of a parsed report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Full `group/benchmark-id` path.
    pub name: String,
    /// Median wall-clock sample, nanoseconds.
    pub median_ns: u128,
    /// Mean wall-clock sample, nanoseconds.
    pub mean_ns: u128,
    /// Fastest wall-clock sample, nanoseconds.
    pub min_ns: u128,
    /// Number of timed samples.
    pub samples: usize,
}

/// One recorded memory footprint of a parsed report (`sm-bench/v2`; `v1`
/// reports parse with an empty list).
#[derive(Debug, Clone, PartialEq)]
pub struct MemRecord {
    /// Footprint name, e.g. `arena/d3-f2/layout_bytes`.
    pub name: String,
    /// Resident bytes.
    pub bytes: u128,
}

/// A parsed `sm-bench/v1` or `sm-bench/v2` report.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// The recorded benchmarks, in document order.
    pub benchmarks: Vec<BenchRecord>,
    /// The recorded memory footprints, in document order (empty for `v1`
    /// reports, which predate the extension).
    pub mem_footprint: Vec<MemRecord>,
}

impl BenchReport {
    /// The benchmarks keyed by name (names are unique per report).
    pub fn by_name(&self) -> BTreeMap<&str, &BenchRecord> {
        self.benchmarks
            .iter()
            .map(|bench| (bench.name.as_str(), bench))
            .collect()
    }

    /// The memory footprints keyed by name.
    pub fn mem_by_name(&self) -> BTreeMap<&str, &MemRecord> {
        self.mem_footprint
            .iter()
            .map(|entry| (entry.name.as_str(), entry))
            .collect()
    }

    /// Renders the report in the `sm-bench/v2` layout the criterion shim
    /// emits, so merged or normalised reports can be written back as
    /// baselines.
    pub fn to_json(&self) -> String {
        fn escape_into(out: &mut String, name: &str) {
            for c in name.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if (c as u32) < 0x20 => {
                        let _ = write!(out, "\\u{:04x}", c as u32);
                    }
                    c => out.push(c),
                }
            }
        }
        let mut out = String::from("{\n  \"schema\": \"");
        out.push_str(criterion::JSON_SCHEMA);
        out.push_str("\",\n  \"benchmarks\": [");
        for (index, bench) in self.benchmarks.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": \"");
            escape_into(&mut out, &bench.name);
            let _ = write!(
                out,
                "\", \"median_ns\": {}, \"mean_ns\": {}, \"min_ns\": {}, \"samples\": {}}}",
                bench.median_ns, bench.mean_ns, bench.min_ns, bench.samples
            );
        }
        out.push_str("\n  ],\n  \"mem_footprint\": [");
        for (index, entry) in self.mem_footprint.iter().enumerate() {
            if index > 0 {
                out.push(',');
            }
            out.push_str("\n    {\"name\": \"");
            escape_into(&mut out, &entry.name);
            let _ = write!(out, "\", \"bytes\": {}}}", entry.bytes);
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// Merges reports written by separate bench processes into one logical
/// report — the CI gate reads the solver bench report and the arena-stats
/// memory report together. Duplicate benchmark or footprint names across
/// the inputs are rejected: they would silently shadow each other in the
/// comparison maps.
///
/// # Errors
///
/// Returns a description of the first duplicate name encountered.
pub fn merge_reports(reports: Vec<BenchReport>) -> Result<BenchReport, String> {
    let mut merged = BenchReport {
        benchmarks: Vec::new(),
        mem_footprint: Vec::new(),
    };
    let mut bench_names = std::collections::BTreeSet::new();
    let mut mem_names = std::collections::BTreeSet::new();
    for report in reports {
        for bench in report.benchmarks {
            if !bench_names.insert(bench.name.clone()) {
                return Err(format!(
                    "benchmark {:?} appears in more than one report",
                    bench.name
                ));
            }
            merged.benchmarks.push(bench);
        }
        for entry in report.mem_footprint {
            if !mem_names.insert(entry.name.clone()) {
                return Err(format!(
                    "memory footprint {:?} appears in more than one report",
                    entry.name
                ));
            }
            merged.mem_footprint.push(entry);
        }
    }
    Ok(merged)
}

/// Schemas [`parse_report`] accepts: the current `v2` layout and the `v1`
/// layout still present in baselines committed before the `mem_footprint`
/// extension.
const ACCEPTED_SCHEMAS: [&str; 2] = ["sm-bench/v1", criterion::JSON_SCHEMA];

/// Parses an `sm-bench/v1` or `sm-bench/v2` report document.
///
/// # Errors
///
/// Returns a description of the first syntax or schema violation.
pub fn parse_report(input: &str) -> Result<BenchReport, String> {
    let root = parse_json(input)?;
    let schema = root
        .get("schema")
        .and_then(JsonValue::as_str)
        .ok_or("report is missing the \"schema\" field")?;
    if !ACCEPTED_SCHEMAS.contains(&schema) {
        return Err(format!(
            "unsupported report schema {schema:?} (expected one of {ACCEPTED_SCHEMAS:?})"
        ));
    }
    let benchmarks = match root.get("benchmarks") {
        Some(JsonValue::Array(items)) => items,
        _ => return Err("report is missing the \"benchmarks\" array".to_string()),
    };
    let mut out = Vec::with_capacity(benchmarks.len());
    for (index, item) in benchmarks.iter().enumerate() {
        let field = |key: &str| {
            item.get(key)
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| format!("benchmark #{index} is missing integer {key:?}"))
        };
        out.push(BenchRecord {
            name: item
                .get("name")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("benchmark #{index} is missing \"name\""))?
                .to_string(),
            median_ns: field("median_ns")? as u128,
            mean_ns: field("mean_ns")? as u128,
            min_ns: field("min_ns")? as u128,
            samples: field("samples")?,
        });
    }
    // `mem_footprint` is optional (absent from v1 reports) but malformed
    // entries are still rejected rather than dropped.
    let mut mem = Vec::new();
    match root.get("mem_footprint") {
        None | Some(JsonValue::Null) => {}
        Some(JsonValue::Array(items)) => {
            for (index, item) in items.iter().enumerate() {
                mem.push(MemRecord {
                    name: item
                        .get("name")
                        .and_then(JsonValue::as_str)
                        .ok_or_else(|| format!("mem entry #{index} is missing \"name\""))?
                        .to_string(),
                    bytes: item
                        .get("bytes")
                        .and_then(JsonValue::as_usize)
                        .ok_or_else(|| format!("mem entry #{index} is missing integer \"bytes\""))?
                        as u128,
                });
            }
        }
        Some(_) => return Err("\"mem_footprint\" must be an array".to_string()),
    }
    Ok(BenchReport {
        benchmarks: out,
        mem_footprint: mem,
    })
}

/// Verdict for one benchmark of a report comparison.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchVerdict {
    /// Present in both reports; `ratio = current_median / baseline_median`.
    Compared {
        /// Current-over-baseline median ratio.
        ratio: f64,
        /// Whether the benchmark participates in the gate: baselines below
        /// the noise floor are compared and reported but cannot fail the
        /// run (micro-benchmarks in the microsecond range routinely jitter
        /// past any reasonable threshold on shared CI runners).
        gated: bool,
        /// Whether the ratio exceeds the regression threshold *and* the
        /// benchmark is gated.
        regressed: bool,
    },
    /// Present only in the current report (no baseline entry yet).
    New,
    /// Present only in the baseline (renamed or dropped benchmark).
    Missing,
}

/// Result of comparing a current report against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Per-benchmark verdicts: `(name, baseline median, current median,
    /// verdict)`, baseline order first, then new benchmarks in current
    /// order. Medians are `None` for the side the benchmark is absent from.
    pub rows: Vec<(String, Option<u128>, Option<u128>, BenchVerdict)>,
    /// Per-memory-footprint verdicts, same shape with bytes instead of
    /// nanoseconds. Footprints are deterministic byte counts, so every row
    /// is gated (no noise floor). Empty when neither report records memory
    /// (e.g. a pre-`v2` baseline against a pre-`v2` report).
    pub mem_rows: Vec<(String, Option<u128>, Option<u128>, BenchVerdict)>,
    /// The regression threshold the comparison ran with.
    pub threshold: f64,
}

impl Comparison {
    /// Names of benchmarks or memory footprints that regressed beyond the
    /// threshold (memory names are prefixed `mem:` to disambiguate).
    pub fn regressions(&self) -> Vec<String> {
        let regressed = |verdict: &BenchVerdict| {
            matches!(
                verdict,
                BenchVerdict::Compared {
                    regressed: true,
                    ..
                }
            )
        };
        let timing = self
            .rows
            .iter()
            .filter(|(_, _, _, verdict)| regressed(verdict))
            .map(|(name, _, _, _)| name.clone());
        let memory = self
            .mem_rows
            .iter()
            .filter(|(_, _, _, verdict)| regressed(verdict))
            .map(|(name, _, _, _)| format!("mem:{name}"));
        timing.chain(memory).collect()
    }

    /// Names of baseline benchmarks or memory footprints absent from the
    /// current report (memory names are prefixed `mem:`).
    pub fn missing(&self) -> Vec<String> {
        let timing = self
            .rows
            .iter()
            .filter(|(_, _, _, verdict)| matches!(verdict, BenchVerdict::Missing))
            .map(|(name, _, _, _)| name.clone());
        let memory = self
            .mem_rows
            .iter()
            .filter(|(_, _, _, verdict)| matches!(verdict, BenchVerdict::Missing))
            .map(|(name, _, _, _)| format!("mem:{name}"));
        timing.chain(memory).collect()
    }

    /// Whether the gate passes: no regression and no missing benchmark.
    pub fn passes(&self) -> bool {
        self.regressions().is_empty() && self.missing().is_empty()
    }

    /// Renders the comparison as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<52} {:>14} {:>14} {:>8}  verdict",
            "benchmark", "baseline (ms)", "current (ms)", "ratio"
        );
        for (name, baseline, current, verdict) in &self.rows {
            let millis = |ns: &Option<u128>| {
                ns.map_or("-".to_string(), |ns| format!("{:.3}", ns as f64 / 1e6))
            };
            let (ratio, label) = match verdict {
                BenchVerdict::Compared {
                    ratio,
                    gated,
                    regressed,
                } => (
                    format!("{ratio:.3}"),
                    if *regressed {
                        format!("REGRESSED (> {:.2}x)", self.threshold)
                    } else if !gated {
                        "ok (below gate floor)".to_string()
                    } else {
                        "ok".to_string()
                    },
                ),
                BenchVerdict::New => ("-".to_string(), "new (no baseline)".to_string()),
                BenchVerdict::Missing => ("-".to_string(), "MISSING from current".to_string()),
            };
            let _ = writeln!(
                out,
                "{:<52} {:>14} {:>14} {:>8}  {}",
                name,
                millis(baseline),
                millis(current),
                ratio,
                label
            );
        }
        if !self.mem_rows.is_empty() {
            let _ = writeln!(
                out,
                "{:<52} {:>14} {:>14} {:>8}  verdict",
                "memory footprint", "baseline (B)", "current (B)", "ratio"
            );
            for (name, baseline, current, verdict) in &self.mem_rows {
                let bytes = |b: &Option<u128>| b.map_or("-".to_string(), |bytes| bytes.to_string());
                let (ratio, label) = match verdict {
                    BenchVerdict::Compared {
                        ratio, regressed, ..
                    } => (
                        format!("{ratio:.3}"),
                        if *regressed {
                            format!("REGRESSED (> {:.2}x)", self.threshold)
                        } else {
                            "ok".to_string()
                        },
                    ),
                    BenchVerdict::New => ("-".to_string(), "new (no baseline)".to_string()),
                    BenchVerdict::Missing => ("-".to_string(), "MISSING from current".to_string()),
                };
                let _ = writeln!(
                    out,
                    "{:<52} {:>14} {:>14} {:>8}  {}",
                    name,
                    bytes(baseline),
                    bytes(current),
                    ratio,
                    label
                );
            }
        }
        out
    }
}

/// Compares a current report's medians against a baseline: a benchmark
/// regresses when `current_median > baseline_median * threshold`
/// (`threshold = 1.25` is the CI gate's 25% budget) **and** its baseline
/// median is at least `min_median_ns` — the noise floor below which a
/// benchmark is too fast to gate reliably on shared runners (it is still
/// compared and reported). Benchmarks only in one report are flagged rather
/// than silently dropped, so a renamed bench cannot sneak past the gate.
///
/// `mem_footprint` entries are compared with the same threshold but no
/// noise floor: resident byte counts are deterministic, so any growth past
/// the threshold is a genuine memory regression.
pub fn compare_reports(
    current: &BenchReport,
    baseline: &BenchReport,
    threshold: f64,
    min_median_ns: u128,
) -> Comparison {
    let current_by_name = current.by_name();
    let baseline_names: std::collections::BTreeSet<&str> = baseline
        .benchmarks
        .iter()
        .map(|bench| bench.name.as_str())
        .collect();
    let mut rows = Vec::new();
    for base in &baseline.benchmarks {
        match current_by_name.get(base.name.as_str()) {
            Some(cur) => {
                // An exact-zero baseline median (sub-nanosecond bench) can
                // only "regress" to a non-zero median; treat it as ratio 1.
                let ratio = if base.median_ns == 0 {
                    1.0
                } else {
                    cur.median_ns as f64 / base.median_ns as f64
                };
                let gated = base.median_ns >= min_median_ns;
                rows.push((
                    base.name.clone(),
                    Some(base.median_ns),
                    Some(cur.median_ns),
                    BenchVerdict::Compared {
                        ratio,
                        gated,
                        regressed: gated && ratio > threshold,
                    },
                ));
            }
            None => rows.push((
                base.name.clone(),
                Some(base.median_ns),
                None,
                BenchVerdict::Missing,
            )),
        }
    }
    for cur in &current.benchmarks {
        if !baseline_names.contains(cur.name.as_str()) {
            rows.push((
                cur.name.clone(),
                None,
                Some(cur.median_ns),
                BenchVerdict::New,
            ));
        }
    }
    let current_mem = current.mem_by_name();
    let baseline_mem_names: std::collections::BTreeSet<&str> = baseline
        .mem_footprint
        .iter()
        .map(|entry| entry.name.as_str())
        .collect();
    let mut mem_rows = Vec::new();
    for base in &baseline.mem_footprint {
        match current_mem.get(base.name.as_str()) {
            Some(cur) => {
                let ratio = if base.bytes == 0 {
                    1.0
                } else {
                    cur.bytes as f64 / base.bytes as f64
                };
                mem_rows.push((
                    base.name.clone(),
                    Some(base.bytes),
                    Some(cur.bytes),
                    BenchVerdict::Compared {
                        ratio,
                        gated: true,
                        regressed: ratio > threshold,
                    },
                ));
            }
            None => mem_rows.push((
                base.name.clone(),
                Some(base.bytes),
                None,
                BenchVerdict::Missing,
            )),
        }
    }
    for cur in &current.mem_footprint {
        if !baseline_mem_names.contains(cur.name.as_str()) {
            mem_rows.push((cur.name.clone(), None, Some(cur.bytes), BenchVerdict::New));
        }
    }
    Comparison {
        rows,
        mem_rows,
        threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(entries: &[(&str, u128)]) -> BenchReport {
        BenchReport {
            benchmarks: entries
                .iter()
                .map(|&(name, median_ns)| BenchRecord {
                    name: name.to_string(),
                    median_ns,
                    mean_ns: median_ns,
                    min_ns: median_ns,
                    samples: 5,
                })
                .collect(),
            mem_footprint: Vec::new(),
        }
    }

    fn mem_report(entries: &[(&str, u128)]) -> BenchReport {
        BenchReport {
            benchmarks: Vec::new(),
            mem_footprint: entries
                .iter()
                .map(|&(name, bytes)| MemRecord {
                    name: name.to_string(),
                    bytes,
                })
                .collect(),
        }
    }

    #[test]
    fn parses_the_shim_emitted_report() {
        // Round-trip against the actual emitter.
        let mut c = criterion::Criterion::default();
        c.bench_function("report-roundtrip/sample", |b| b.iter(|| 2 + 2));
        let parsed = parse_report(&criterion::json_report()).unwrap();
        let bench = parsed
            .benchmarks
            .iter()
            .find(|bench| bench.name == "report-roundtrip/sample")
            .expect("recorded benchmark present");
        assert!(bench.samples >= 1);
        assert!(bench.min_ns <= bench.median_ns);
    }

    #[test]
    fn parses_escapes_numbers_and_nesting() {
        let value = parse_json(r#"{"a": [1, 2.5, -3e2, true, null], "b": "x\"\\\nA"}"#).unwrap();
        assert_eq!(
            value.get("b").and_then(|v| match v {
                JsonValue::String(s) => Some(s.as_str()),
                _ => None,
            }),
            Some("x\"\\\nA")
        );
        match value.get("a") {
            Some(JsonValue::Array(items)) => {
                assert_eq!(items[0], JsonValue::Number(1.0));
                assert_eq!(items[2], JsonValue::Number(-300.0));
                assert_eq!(items[4], JsonValue::Null);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_documents_and_schemas() {
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
        assert!(parse_report("{\"schema\": \"other/v9\", \"benchmarks\": []}").is_err());
        assert!(parse_report("{\"benchmarks\": []}").is_err());
        assert!(
            parse_report("{\"schema\": \"sm-bench/v1\", \"benchmarks\": [{\"name\": \"x\"}]}")
                .is_err(),
            "records must carry all duration fields"
        );
    }

    #[test]
    fn comparison_flags_regressions_new_and_missing() {
        let baseline = report(&[("a", 100), ("b", 100), ("gone", 50)]);
        let current = report(&[("a", 110), ("b", 130), ("fresh", 10)]);
        let cmp = compare_reports(&current, &baseline, 1.25, 0);
        assert_eq!(cmp.regressions(), vec!["b".to_string()]);
        assert_eq!(cmp.missing(), vec!["gone".to_string()]);
        assert!(!cmp.passes());
        let table = cmp.render();
        assert!(table.contains("REGRESSED"));
        assert!(table.contains("MISSING"));
        assert!(table.contains("new (no baseline)"));

        let ok = compare_reports(&report(&[("a", 120)]), &report(&[("a", 100)]), 1.25, 0);
        assert!(ok.passes());
        assert!(ok.render().contains("ok"));
    }

    #[test]
    fn noise_floor_reports_but_does_not_gate_fast_benchmarks() {
        // "b" doubled but its baseline median sits below the floor: the
        // ratio is still reported, the gate ignores it. "slow" regressed
        // above the floor and still fails.
        let baseline = report(&[("b", 1_000), ("slow", 10_000_000)]);
        let current = report(&[("b", 2_000), ("slow", 20_000_000)]);
        let cmp = compare_reports(&current, &baseline, 1.25, 1_000_000);
        assert_eq!(cmp.regressions(), vec!["slow".to_string()]);
        assert!(!cmp.passes());
        let table = cmp.render();
        assert!(table.contains("ok (below gate floor)"));
        // With no floor, both regress.
        let strict = compare_reports(&current, &baseline, 1.25, 0);
        assert_eq!(
            strict.regressions(),
            vec!["b".to_string(), "slow".to_string()]
        );
    }

    #[test]
    fn zero_baseline_medians_do_not_divide_by_zero() {
        let cmp = compare_reports(&report(&[("z", 5)]), &report(&[("z", 0)]), 1.25, 0);
        assert!(cmp.passes());
    }

    #[test]
    fn v1_reports_without_mem_footprint_still_parse() {
        let parsed = parse_report(
            "{\"schema\": \"sm-bench/v1\", \"benchmarks\": [{\"name\": \"x\", \
             \"median_ns\": 7, \"mean_ns\": 7, \"min_ns\": 7, \"samples\": 3}]}",
        )
        .unwrap();
        assert_eq!(parsed.benchmarks.len(), 1);
        assert!(parsed.mem_footprint.is_empty());
    }

    #[test]
    fn v2_reports_carry_mem_footprints() {
        let parsed = parse_report(
            "{\"schema\": \"sm-bench/v2\", \"benchmarks\": [], \
             \"mem_footprint\": [{\"name\": \"arena/d3-f2\", \"bytes\": 1024}]}",
        )
        .unwrap();
        assert_eq!(
            parsed.mem_by_name().get("arena/d3-f2").map(|m| m.bytes),
            Some(1024)
        );
        // Malformed entries are rejected, not dropped.
        assert!(parse_report(
            "{\"schema\": \"sm-bench/v2\", \"benchmarks\": [], \
             \"mem_footprint\": [{\"name\": \"arena\"}]}"
        )
        .is_err());
        assert!(parse_report(
            "{\"schema\": \"sm-bench/v2\", \"benchmarks\": [], \"mem_footprint\": 3}"
        )
        .is_err());
    }

    #[test]
    fn merged_reports_round_trip_and_reject_duplicates() {
        let merged = merge_reports(vec![
            report(&[("solver/a", 100)]),
            mem_report(&[("arena/a", 2_048)]),
        ])
        .unwrap();
        assert_eq!(merged.benchmarks.len(), 1);
        assert_eq!(merged.mem_footprint.len(), 1);
        // to_json emits the v2 layout the parser accepts.
        let reparsed = parse_report(&merged.to_json()).unwrap();
        assert_eq!(reparsed, merged);

        assert!(
            merge_reports(vec![report(&[("dup", 1)]), report(&[("dup", 2)])]).is_err(),
            "duplicate benchmark names must be rejected"
        );
        assert!(merge_reports(vec![
            mem_report(&[("arena/dup", 1)]),
            mem_report(&[("arena/dup", 2)])
        ])
        .is_err());
    }

    #[test]
    fn memory_footprints_gate_like_benchmarks_but_without_a_noise_floor() {
        let baseline = mem_report(&[("arena/a", 1_000), ("arena/gone", 10)]);
        let current = mem_report(&[("arena/a", 1_500), ("arena/new", 10)]);
        // The 1 MB noise floor applies to durations only; bytes always gate.
        let cmp = compare_reports(&current, &baseline, 1.25, 1_000_000);
        assert_eq!(cmp.regressions(), vec!["mem:arena/a".to_string()]);
        assert_eq!(cmp.missing(), vec!["mem:arena/gone".to_string()]);
        assert!(!cmp.passes());
        let table = cmp.render();
        assert!(table.contains("memory footprint"));
        assert!(table.contains("REGRESSED"));

        let ok = compare_reports(
            &mem_report(&[("arena/a", 600)]),
            &mem_report(&[("arena/a", 1_000)]),
            1.25,
            0,
        );
        assert!(ok.passes());
        // A v1 baseline (no mem entries) never fails a v2 report's new ones.
        let grandfathered = compare_reports(&mem_report(&[("arena/a", 5)]), &report(&[]), 1.25, 0);
        assert!(grandfathered.passes());
    }
}
