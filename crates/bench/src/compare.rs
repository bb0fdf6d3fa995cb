//! Trajectory comparison (`bench_compare`).
//!
//! Reads two suite documents (see [`crate::suite`]), matches cells by
//! their identity string, and diffs the trajectories: a timing regression
//! beyond the noise threshold, a checksum drift, or a shrunken matrix is
//! reported and turns the comparator's exit nonzero. Cells whose pinned
//! parameters differ (a `--quick` run against a full baseline) are
//! *incomparable* — their timings are skipped rather than mis-diffed —
//! and `schema_only` skips the wall-clock diff alone (what CI does:
//! machines vary, wall-clock across them does not transfer). A checksum
//! drift between comparable cells stays fatal in both modes: the join is
//! deterministic on any machine.
//!
//! Non-finite measurements are rejected while loading: the JSON layer
//! refuses bare `NaN`/`inf` tokens, and this layer refuses the `null`s
//! the writer degrades them to, naming the cell and field.

use std::fmt;

use crate::json::Json;
use crate::suite::SCHEMA_VERSION;

/// Default noise threshold: a cell regresses when its per-tick time grows
/// beyond `ratio × baseline`. 1.5 passes identical re-runs with generous
/// headroom for scheduler noise while flagging a genuine 2× slowdown.
pub const DEFAULT_THRESHOLD: f64 = 1.5;

/// Per-tick times below this are pure noise (timer resolution, allocator
/// luck); ratio tests against them would flag phantom regressions.
pub const MIN_COMPARABLE_SECONDS: f64 = 5e-5;

/// One cell loaded back from a suite document.
#[derive(Clone, Debug)]
pub struct ParsedCell {
    pub id: String,
    pub bench: String,
    pub technique: String,
    pub threads: u64,
    pub ticks: u64,
    pub points: u64,
    pub seed: u64,
    pub avg_tick_s: f64,
    pub query_s: f64,
    pub pairs: u64,
    pub checksum: String,
}

impl ParsedCell {
    /// Whether two records of the same cell ran identical configurations —
    /// the precondition for diffing their timings or checksums.
    pub fn comparable_with(&self, other: &ParsedCell) -> bool {
        (self.ticks, self.points, self.seed, self.threads)
            == (other.ticks, other.points, other.seed, other.threads)
    }
}

/// A loaded suite document.
#[derive(Clone, Debug)]
pub struct SuiteDoc {
    pub schema_version: u64,
    pub mode: String,
    pub cells: Vec<ParsedCell>,
}

/// A load failure: parse error or schema violation, with the offending
/// cell/field named.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LoadError(pub String);

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for LoadError {}

fn field<'a>(obj: &'a Json, cell: &str, key: &str) -> Result<&'a Json, LoadError> {
    obj.get(key)
        .ok_or_else(|| LoadError(format!("cell {cell:?}: missing field {key:?}")))
}

fn num_field(obj: &Json, cell: &str, key: &str) -> Result<f64, LoadError> {
    let v = field(obj, cell, key)?;
    if v.is_null() {
        return Err(LoadError(format!(
            "cell {cell:?}: field {key:?} is null — the producing run emitted a \
             non-finite measurement; regenerate the snapshot"
        )));
    }
    v.as_f64()
        .ok_or_else(|| LoadError(format!("cell {cell:?}: field {key:?} is not a number")))
}

fn int_field(obj: &Json, cell: &str, key: &str) -> Result<u64, LoadError> {
    field(obj, cell, key)?.as_u64().ok_or_else(|| {
        LoadError(format!(
            "cell {cell:?}: field {key:?} is not a non-negative integer"
        ))
    })
}

fn str_field(obj: &Json, cell: &str, key: &str) -> Result<String, LoadError> {
    Ok(field(obj, cell, key)?
        .as_str()
        .ok_or_else(|| LoadError(format!("cell {cell:?}: field {key:?} is not a string")))?
        .to_string())
}

/// [`load`], with every rejection prefixed by `name` (a path or other
/// document label). Anything reporting a load failure to a human should
/// come through here or [`load_file`] — a bare "missing mode" with no
/// document named is useless when two snapshots are in play.
pub fn load_named(name: &str, text: &str) -> Result<SuiteDoc, LoadError> {
    load(text).map_err(|e| LoadError(format!("{name}: {e}")))
}

/// Read and load a suite document from disk. IO errors and load errors
/// both name the file.
pub fn load_file(path: &str) -> Result<SuiteDoc, LoadError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| LoadError(format!("{path}: cannot read: {e}")))?;
    load_named(path, &text)
}

/// Parse and schema-check one suite document.
pub fn load(text: &str) -> Result<SuiteDoc, LoadError> {
    let v = Json::parse(text).map_err(|e| LoadError(e.to_string()))?;
    let schema_version = v
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or_else(|| LoadError("missing or non-integer schema_version".into()))?;
    if schema_version != SCHEMA_VERSION {
        return Err(LoadError(format!(
            "schema_version {schema_version} (this tool reads {SCHEMA_VERSION}); \
             regenerate the snapshot with the matching bench_suite"
        )));
    }
    let mode = v
        .get("mode")
        .and_then(Json::as_str)
        .ok_or_else(|| LoadError("missing mode".into()))?
        .to_string();
    let raw_cells = v
        .get("cells")
        .and_then(Json::as_array)
        .ok_or_else(|| LoadError("missing cells array".into()))?;
    let mut cells = Vec::with_capacity(raw_cells.len());
    for (i, obj) in raw_cells.iter().enumerate() {
        let fallback = format!("#{i}");
        let id = obj
            .get("cell")
            .and_then(Json::as_str)
            .unwrap_or(&fallback)
            .to_string();
        if obj.get("cell").is_none() {
            return Err(LoadError(format!(
                "cell {fallback}: missing field \"cell\""
            )));
        }
        let cell = ParsedCell {
            bench: str_field(obj, &id, "bench")?,
            technique: str_field(obj, &id, "technique")?,
            threads: int_field(obj, &id, "threads")?,
            ticks: int_field(obj, &id, "ticks")?,
            points: int_field(obj, &id, "points")?,
            seed: int_field(obj, &id, "seed")?,
            avg_tick_s: num_field(obj, &id, "avg_tick_s")?,
            query_s: num_field(obj, &id, "query_s")?,
            pairs: int_field(obj, &id, "pairs")?,
            checksum: str_field(obj, &id, "checksum")?,
            id,
        };
        // The timing fields must be finite *and* sane: negative seconds
        // mean a corrupt snapshot, not a fast run.
        for (key, val) in [("avg_tick_s", cell.avg_tick_s), ("query_s", cell.query_s)] {
            if !(val.is_finite() && val >= 0.0) {
                return Err(LoadError(format!(
                    "cell {:?}: field {key:?} is not a finite non-negative number",
                    cell.id
                )));
            }
        }
        if cells.iter().any(|c: &ParsedCell| c.id == cell.id) {
            return Err(LoadError(format!("duplicate cell id {:?}", cell.id)));
        }
        cells.push(cell);
    }
    Ok(SuiteDoc {
        schema_version,
        mode,
        cells,
    })
}

/// What the comparison found for one cell (regressions and drifts make
/// the run fail; the rest is reporting).
#[derive(Clone, Debug, PartialEq)]
pub enum Finding {
    /// `current / baseline` per-tick ratio beyond the threshold.
    Regression { id: String, ratio: f64 },
    /// Per-tick ratio below `1 / threshold` — reported, never fatal.
    Improvement { id: String, ratio: f64 },
    /// Same cell, same pinned parameters, different join checksum or pair
    /// count: a determinism regression, always fatal.
    ChecksumDrift { id: String },
    /// Cell present in the baseline but absent from the current run.
    Missing { id: String },
    /// Same cell id but different pinned parameters (e.g. quick vs full):
    /// timings skipped.
    Incomparable { id: String },
    /// Both timings under the noise floor: nothing to compare.
    BelowNoiseFloor { id: String },
}

/// The comparison's verdict.
#[derive(Clone, Debug, Default)]
pub struct Report {
    pub findings: Vec<Finding>,
    /// Cells whose timings were actually ratio-tested.
    pub compared: usize,
    /// Cells only in the current run (new coverage; informational).
    pub added: usize,
}

impl Report {
    /// Fatal findings: timing regressions and checksum drifts. Missing
    /// cells are fatal too — a shrinking matrix is how a trajectory rots
    /// silently.
    pub fn failures(&self) -> Vec<&Finding> {
        self.findings
            .iter()
            .filter(|f| {
                matches!(
                    f,
                    Finding::Regression { .. }
                        | Finding::ChecksumDrift { .. }
                        | Finding::Missing { .. }
                )
            })
            .collect()
    }

    pub fn passed(&self) -> bool {
        self.failures().is_empty()
    }
}

/// Diff `current` against `baseline`. `threshold` is the fatal per-tick
/// growth ratio; `schema_only` skips the timing diff (CI mode: assert the
/// documents are valid, the matrix intact and every comparable cell's
/// join unchanged, but not wall-clock).
pub fn compare(
    baseline: &SuiteDoc,
    current: &SuiteDoc,
    threshold: f64,
    schema_only: bool,
) -> Report {
    let mut report = Report::default();
    for base in &baseline.cells {
        let Some(cur) = current.cells.iter().find(|c| c.id == base.id) else {
            report.findings.push(Finding::Missing {
                id: base.id.clone(),
            });
            continue;
        };
        if !base.comparable_with(cur) {
            report.findings.push(Finding::Incomparable {
                id: base.id.clone(),
            });
            continue;
        }
        // Identical pinned parameters ⇒ the join is deterministic ⇒ the
        // checksum and pair count must match bit for bit.
        if base.checksum != cur.checksum || base.pairs != cur.pairs {
            report.findings.push(Finding::ChecksumDrift {
                id: base.id.clone(),
            });
            continue;
        }
        if schema_only {
            continue;
        }
        if base.avg_tick_s < MIN_COMPARABLE_SECONDS && cur.avg_tick_s < MIN_COMPARABLE_SECONDS {
            report.findings.push(Finding::BelowNoiseFloor {
                id: base.id.clone(),
            });
            continue;
        }
        report.compared += 1;
        let ratio = cur.avg_tick_s / base.avg_tick_s.max(MIN_COMPARABLE_SECONDS);
        if ratio > threshold {
            report.findings.push(Finding::Regression {
                id: base.id.clone(),
                ratio,
            });
        } else if ratio < 1.0 / threshold {
            report.findings.push(Finding::Improvement {
                id: base.id.clone(),
                ratio,
            });
        }
    }
    report.added = current
        .cells
        .iter()
        .filter(|c| baseline.cells.iter().all(|b| b.id != c.id))
        .count();
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite::{cell_matrix, document, CellResult};
    use sj_core::driver::{RunStats, TickTimes};
    use std::time::Duration;

    /// A synthetic suite document over the first few matrix cells, with
    /// per-tick times scaled by `slow` — no real benchmark runs needed to
    /// test the comparator.
    fn synthetic_doc(slow: f64, checksum_salt: u64) -> String {
        let results: Vec<CellResult> = cell_matrix()
            .into_iter()
            .take(5)
            .enumerate()
            .map(|(i, spec)| CellResult {
                spec,
                ticks: 3,
                points: 4_000,
                seed: 42,
                stats: RunStats {
                    ticks: vec![TickTimes {
                        build: Duration::from_micros((600.0 * slow) as u64),
                        query: Duration::from_micros((2_000.0 * slow) as u64),
                        update: Duration::from_micros((400.0 * slow) as u64),
                    }],
                    result_pairs: 1000 + i as u64,
                    checksum: 0xABCD + i as u64 + checksum_salt,
                    queries: 50,
                    updates: 25,
                    removals: 0,
                    inserts: 0,
                    index_bytes: 1 << 16,
                    tile_load: None,
                },
            })
            .collect();
        document(&results, true)
    }

    #[test]
    fn self_diff_passes_clean() {
        let doc = load(&synthetic_doc(1.0, 0)).unwrap();
        let report = compare(&doc, &doc, DEFAULT_THRESHOLD, false);
        assert!(report.passed(), "{:?}", report.findings);
        assert_eq!(report.compared, doc.cells.len());
        assert!(report.findings.is_empty());
    }

    #[test]
    fn synthetic_2x_slowdown_is_flagged() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let slow = load(&synthetic_doc(2.0, 0)).unwrap();
        let report = compare(&base, &slow, DEFAULT_THRESHOLD, false);
        assert!(!report.passed());
        let regressions: Vec<_> = report
            .findings
            .iter()
            .filter_map(|f| match f {
                Finding::Regression { id, ratio } => Some((id.clone(), *ratio)),
                _ => None,
            })
            .collect();
        assert_eq!(regressions.len(), base.cells.len());
        for (_, ratio) in &regressions {
            assert!((*ratio - 2.0).abs() < 0.1, "ratio {ratio}");
        }
        // The inverse direction is an improvement, not a failure.
        let report = compare(&slow, &base, DEFAULT_THRESHOLD, false);
        assert!(report.passed());
        assert!(report
            .findings
            .iter()
            .all(|f| matches!(f, Finding::Improvement { .. })));
    }

    #[test]
    fn checksum_drift_is_fatal_even_when_fast() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let drifted = load(&synthetic_doc(0.9, 7)).unwrap();
        let report = compare(&base, &drifted, DEFAULT_THRESHOLD, false);
        assert!(!report.passed());
        assert!(report
            .failures()
            .iter()
            .all(|f| matches!(f, Finding::ChecksumDrift { .. })));
    }

    #[test]
    fn missing_cells_are_fatal_and_added_cells_are_not() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let mut shrunk = base.clone();
        shrunk.cells.pop();
        let report = compare(&base, &shrunk, DEFAULT_THRESHOLD, false);
        assert_eq!(report.failures().len(), 1);
        assert!(matches!(report.failures()[0], Finding::Missing { .. }));
        // Extra cells in the current run are new coverage, not an error.
        let report = compare(&shrunk, &base, DEFAULT_THRESHOLD, false);
        assert!(report.passed());
        assert_eq!(report.added, 1);
    }

    #[test]
    fn incomparable_parameters_skip_timing_diffs() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let mut quick = base.clone();
        for c in &mut quick.cells {
            c.points = 999; // a different scale: same ids, other params
            c.avg_tick_s *= 100.0; // would be a huge "regression"
        }
        let report = compare(&base, &quick, DEFAULT_THRESHOLD, false);
        assert!(report.passed(), "{:?}", report.findings);
        assert_eq!(report.compared, 0);
        assert!(report
            .findings
            .iter()
            .all(|f| matches!(f, Finding::Incomparable { .. })));
    }

    #[test]
    fn schema_only_ignores_timings_but_not_the_matrix() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let slow = load(&synthetic_doc(10.0, 0)).unwrap();
        let report = compare(&base, &slow, DEFAULT_THRESHOLD, true);
        assert!(report.passed(), "{:?}", report.findings);
        let mut shrunk = slow.clone();
        shrunk.cells.clear();
        let report = compare(&base, &shrunk, DEFAULT_THRESHOLD, true);
        assert!(!report.passed());
    }

    #[test]
    fn schema_only_still_fails_on_checksum_drift() {
        let base = load(&synthetic_doc(1.0, 0)).unwrap();
        let drifted = load(&synthetic_doc(10.0, 3)).unwrap();
        let report = compare(&base, &drifted, DEFAULT_THRESHOLD, true);
        assert!(!report.passed());
        assert_eq!(report.failures().len(), base.cells.len());
        assert!(report
            .failures()
            .iter()
            .all(|f| matches!(f, Finding::ChecksumDrift { .. })));
    }

    #[test]
    fn null_timings_are_rejected_with_the_cell_named() {
        // The writer degrades non-finite values to null (report.rs); the
        // loader must refuse them loudly rather than diff around them.
        let doc = synthetic_doc(1.0, 0);
        let poisoned = doc.replacen("\"avg_tick_s\":", "\"avg_tick_s\":null,\"x_shadow\":", 1);
        let err = load(&poisoned).unwrap_err();
        assert!(err.0.contains("avg_tick_s"), "{err}");
        assert!(err.0.contains("non-finite"), "{err}");
        assert!(err.0.contains("table2"), "{err}");
    }

    #[test]
    fn bare_nan_tokens_fail_at_the_json_layer() {
        let doc = synthetic_doc(1.0, 0).replacen("\"avg_tick_s\":0.003", "\"avg_tick_s\":NaN", 1);
        let err = load(&doc).unwrap_err();
        assert!(err.0.contains("non-finite"), "{err}");
    }

    #[test]
    fn wrong_schema_version_is_refused() {
        let doc = synthetic_doc(1.0, 0).replacen(
            &format!("\"schema_version\":{SCHEMA_VERSION}"),
            "\"schema_version\":999",
            1,
        );
        let err = load(&doc).unwrap_err();
        assert!(err.0.contains("schema_version 999"), "{err}");
    }

    #[test]
    fn noise_floor_suppresses_micro_cell_ratios() {
        // Sub-threshold absolute times: a 3x ratio on a 2µs cell is timer
        // noise, not a regression.
        let base = load(&synthetic_doc(0.001, 0)).unwrap();
        let jitter = load(&synthetic_doc(0.003, 0)).unwrap();
        let report = compare(&base, &jitter, DEFAULT_THRESHOLD, false);
        assert!(report.passed(), "{:?}", report.findings);
        assert_eq!(report.compared, 0);
    }
}
