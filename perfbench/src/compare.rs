//! Compare mode: diffs two record sets, one row per workload.
//!
//! A timing change is flagged only outside that metric's bound from
//! `BENCHMARK.json`; a metric whose spread exceeds its bound on either side
//! is unresolved rather than unchanged. Any counter change is flagged.

use std::collections::BTreeMap;
use std::path::Path;

use telemetry::Json;

use crate::metrics::{Better, END_TO_END};
use crate::stats::{median, spread};
use crate::workload::Workload;

/// One run's record, as `--record` appends it.
#[derive(Debug, Clone)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Whether this was a traced run.
    pub traced: bool,
    /// Whether the output check passed.
    pub correct: bool,
    /// Digest of the first pass's counters.
    pub counters_digest: String,
    /// Reported metric values.
    pub metrics: BTreeMap<String, f64>,
    /// Per-pass (or per-set-up) samples behind some metrics.
    pub samples: BTreeMap<String, Vec<f64>>,
}

impl Record {
    /// Parses one record line.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let str_field = |k: &str| json.get(k).and_then(Json::as_str).map(str::to_owned);
        let num_map = |k: &str| -> BTreeMap<String, f64> {
            match json.get(k) {
                Some(Json::Obj(fields)) => fields
                    .iter()
                    .filter_map(|(name, v)| {
                        v.get("value")
                            .and_then(Json::as_f64)
                            .map(|x| (name.clone(), x))
                    })
                    .collect(),
                _ => BTreeMap::new(),
            }
        };
        let samples = match json.get("samples") {
            Some(Json::Obj(fields)) => fields
                .iter()
                .map(|(name, v)| {
                    let xs = v
                        .as_arr()
                        .unwrap_or_default()
                        .iter()
                        .filter_map(Json::as_f64)
                        .collect();
                    (name.clone(), xs)
                })
                .collect(),
            _ => BTreeMap::new(),
        };
        Ok(Record {
            workload: str_field("workload").ok_or("record without a workload")?,
            seed: str_field("seed")
                .and_then(|s| s.parse().ok())
                .ok_or("record without a seed")?,
            traced: json.get("trace").and_then(Json::as_i64) == Some(1),
            correct: json.get("correct") == Some(&Json::Bool(true)),
            counters_digest: str_field("counters_digest").unwrap_or_default(),
            metrics: num_map("metrics"),
            samples,
        })
    }
}

/// Reads every record line of a JSONL file.
pub fn load_records(path: &Path) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            Json::parse(line)
                .map_err(|e| e.to_string())
                .and_then(|j| Record::from_json(&j))
                .map_err(|e| format!("{}:{}: {e}", path.display(), i + 1))
        })
        .collect()
}

/// The `end_to_end` bounds of a `BENCHMARK.json`.
pub fn load_bounds(path: &Path) -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    json.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{}: no end_to_end list", path.display()))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_owned(), b))
                .ok_or_else(|| format!("{}: malformed end_to_end entry", path.display()))
        })
        .collect()
}

/// The verdict on one metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within the bound.
    Same(f64),
    /// Better by more than the bound.
    Better(f64),
    /// Worse by more than the bound.
    Worse(f64),
    /// The spread on one side exceeds the bound.
    Unresolved(f64),
    /// One side has no value.
    Missing,
}

impl Verdict {
    fn render(&self) -> String {
        match self {
            Verdict::Same(c) => format!("{:+.1}% same", c * 100.0),
            Verdict::Better(c) => format!("{:+.1}% better", c * 100.0),
            Verdict::Worse(c) => format!("{:+.1}% WORSE", c * 100.0),
            Verdict::Unresolved(c) => format!("{:+.1}% unresolved", c * 100.0),
            Verdict::Missing => "n/a".to_owned(),
        }
    }
}

/// Values and spread of one metric over one side's records: across the
/// records when there are several, else across the one record's samples.
fn side(records: &[&Record], metric: &str) -> Option<(f64, f64)> {
    let values: Vec<f64> = records
        .iter()
        .filter_map(|r| r.metrics.get(metric).copied())
        .collect();
    if values.is_empty() {
        return None;
    }
    let spread = if values.len() >= 2 {
        spread(&values)
    } else {
        records
            .iter()
            .find_map(|r| r.samples.get(metric))
            .map_or(0.0, |xs| spread(xs))
    };
    Some((median(&values), spread))
}

/// Judges one metric: the relative change of the medians, flagged only
/// outside `bound`, unresolved when either side spreads wider than it.
pub fn judge(
    base: &[&Record],
    new: &[&Record],
    metric: &str,
    better: Better,
    bound: f64,
) -> Verdict {
    let (Some((b, b_spread)), Some((n, n_spread))) = (side(base, metric), side(new, metric)) else {
        return Verdict::Missing;
    };
    let change = if b == 0.0 { 0.0 } else { (n - b) / b };
    let worse = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if b_spread.max(n_spread) > bound {
        Verdict::Unresolved(change)
    } else if worse > bound {
        Verdict::Worse(change)
    } else if worse < -bound {
        Verdict::Better(change)
    } else {
        Verdict::Same(change)
    }
}

/// Whether any failed run, or any counter difference at a seed both sides
/// ran, appears: `None` when no seed is common.
pub fn counters_verdict(base: &[&Record], new: &[&Record]) -> &'static str {
    if base.iter().chain(new).any(|r| !r.correct) {
        return "FAILED";
    }
    let mut common = false;
    for b in base {
        for n in new.iter().filter(|n| n.seed == b.seed) {
            common = true;
            if n.counters_digest != b.counters_digest {
                return "CHANGED";
            }
        }
    }
    if common {
        "same"
    } else {
        "n/a"
    }
}

/// Renders the comparison and says whether anything regressed.
pub fn compare(base: &[Record], new: &[Record], bounds: &BTreeMap<String, f64>) -> (String, bool) {
    let mut out = format!("{:<20}", "workload");
    for m in END_TO_END {
        out.push_str(&format!("{:<22}", m.name));
    }
    out.push_str("counters\n");
    let mut regressed = false;
    for workload in Workload::ALL.map(Workload::name) {
        let pick = |set: &'_ [Record]| -> Vec<Record> {
            set.iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect()
        };
        let (base_all, new_all) = (pick(base), pick(new));
        if base_all.is_empty() && new_all.is_empty() {
            continue;
        }
        let b: Vec<&Record> = base_all.iter().filter(|r| !r.traced).collect();
        let n: Vec<&Record> = new_all.iter().filter(|r| !r.traced).collect();
        out.push_str(&format!("{workload:<20}"));
        for m in END_TO_END {
            let verdict = match bounds.get(m.name) {
                Some(&bound) => judge(&b, &n, m.name, m.better, bound),
                None => Verdict::Missing,
            };
            regressed |= matches!(verdict, Verdict::Worse(_));
            out.push_str(&format!("{:<22}", verdict.render()));
        }
        let base_refs: Vec<&Record> = base_all.iter().collect();
        let new_refs: Vec<&Record> = new_all.iter().collect();
        let counters = counters_verdict(&base_refs, &new_refs);
        regressed |= matches!(counters, "FAILED" | "CHANGED");
        out.push_str(counters);
        out.push('\n');
    }
    out.push_str(
        "change = new median against base median; flagged only outside the metric's \
         bound; unresolved = a side's quartile spread exceeds the bound\n",
    );
    (out, regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(seed: u64, wall: f64, digest: &str) -> Record {
        Record {
            workload: "tsl_sweep".to_owned(),
            seed,
            traced: false,
            correct: true,
            counters_digest: digest.to_owned(),
            metrics: [("wall_s".to_owned(), wall)].into_iter().collect(),
            samples: BTreeMap::new(),
        }
    }

    fn r(v: &[Record]) -> Vec<&Record> {
        v.iter().collect()
    }

    #[test]
    fn flags_timing_only_outside_the_bound_and_spread() {
        let base: Vec<Record> = (1..=5)
            .map(|s| record(s, 10.0 + s as f64 * 0.01, "a"))
            .collect();
        let near: Vec<Record> = (1..=5)
            .map(|s| record(s, 10.3 + s as f64 * 0.01, "a"))
            .collect();
        let far: Vec<Record> = (1..=5)
            .map(|s| record(s, 12.0 + s as f64 * 0.01, "a"))
            .collect();
        let noisy: Vec<Record> = (1..=5).map(|s| record(s, 10.0 * s as f64, "a")).collect();
        assert!(matches!(
            judge(&r(&base), &r(&near), "wall_s", Better::Lower, 0.1),
            Verdict::Same(_)
        ));
        assert!(matches!(
            judge(&r(&base), &r(&far), "wall_s", Better::Lower, 0.1),
            Verdict::Worse(_)
        ));
        assert!(matches!(
            judge(&r(&far), &r(&base), "wall_s", Better::Lower, 0.1),
            Verdict::Better(_)
        ));
        assert!(matches!(
            judge(&r(&base), &r(&noisy), "wall_s", Better::Lower, 0.1),
            Verdict::Unresolved(_)
        ));
    }

    #[test]
    fn any_counter_change_is_flagged() {
        let base = [record(7, 1.0, "a")];
        let same = [record(7, 9.0, "a")];
        let changed = [record(7, 1.0, "b")];
        let other_seed = [record(8, 1.0, "b")];
        assert_eq!(counters_verdict(&r(&base), &r(&same)), "same");
        assert_eq!(counters_verdict(&r(&base), &r(&changed)), "CHANGED");
        assert_eq!(counters_verdict(&r(&base), &r(&other_seed)), "n/a");
        let (_, regressed) = compare(
            &base,
            &changed,
            &[("wall_s".to_owned(), 0.1)].into_iter().collect(),
        );
        assert!(regressed);
    }
}
