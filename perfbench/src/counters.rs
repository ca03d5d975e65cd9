//! Simulated counters of each cell: what the output check compares across
//! passes, against the traced pass, and against the recorded reference.

use bpsim::analysis::ContextAnalysis;
use bpsim::RunResult;
use telemetry::Json;

/// The counters of one finished cell, in a fixed order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellCounters {
    /// `design / workload`.
    pub label: String,
    /// `(name, value)` pairs.
    pub values: Vec<(String, u64)>,
}

/// A cell's outcome: its counters, or why it failed.
pub type CellOutcome = Result<CellCounters, String>;

impl CellCounters {
    /// Instructions, conditional branches, mispredicts and, for
    /// hierarchical predictors, the `LlbpStats` counter set.
    pub fn from_run(label: impl Into<String>, run: &RunResult) -> Self {
        let mut values = vec![
            ("instructions".to_owned(), run.instructions),
            ("cond_branches".to_owned(), run.cond_branches),
            ("mispredicts".to_owned(), run.mispredicts),
        ];
        if let Some(stats) = &run.llbp {
            values.extend(
                stats
                    .counters()
                    .into_iter()
                    .map(|(k, v)| (format!("llbp.{k}"), v)),
            );
        }
        CellCounters {
            label: label.into(),
            values,
        }
    }

    /// [`from_run`](Self::from_run) on the analysis run, plus the context
    /// count and a digest of every extracted analysis output.
    pub fn from_analysis(label: impl Into<String>, analysis: &ContextAnalysis) -> Self {
        let mut cell = Self::from_run(label, &analysis.run);
        cell.values.push((
            "analysis.contexts".to_owned(),
            analysis.contexts.len() as u64,
        ));
        cell.values
            .push(("analysis.digest".to_owned(), analysis_digest(analysis)));
        cell
    }

    /// One counter by name.
    pub fn get(&self, name: &str) -> Option<u64> {
        self.values.iter().find(|(k, _)| k == name).map(|&(_, v)| v)
    }

    /// `{"label": .., "counters": {..}}`.
    pub fn to_json(&self) -> Json {
        let counters = self.values.iter().fold(Json::obj(), |obj, (k, v)| {
            obj.set(k.as_str(), Json::Str(v.to_string()))
        });
        Json::obj()
            .set("label", self.label.as_str())
            .set("counters", counters)
    }

    /// Inverse of [`to_json`](Self::to_json). Values travel as decimal
    /// strings, because digests do not fit JSON's exact integer range.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        let label = json
            .get("label")
            .and_then(Json::as_str)
            .ok_or("cell without a label")?;
        let Some(Json::Obj(fields)) = json.get("counters") else {
            return Err(format!("cell `{label}` has no counters"));
        };
        let values = fields
            .iter()
            .map(|(k, v)| {
                v.as_str()
                    .and_then(|s| s.parse::<u64>().ok())
                    .map(|v| (k.clone(), v))
                    .ok_or_else(|| format!("cell `{label}`: counter `{k}` is not a u64"))
            })
            .collect::<Result<_, _>>()?;
        Ok(CellCounters {
            label: label.to_owned(),
            values,
        })
    }
}

/// FNV-1a over every output `analyze_contexts` extracts: the per-context
/// profiles (average lengths by bit pattern), duplication and useful
/// predictions per history length.
pub fn analysis_digest(analysis: &ContextAnalysis) -> u64 {
    let mut words = Vec::with_capacity(analysis.contexts.len() * 3 + 64);
    for c in &analysis.contexts {
        words.extend([c.cid, c.useful_patterns as u64, c.avg_history_len.to_bits()]);
    }
    for &(total, unique) in &analysis.duplication {
        words.extend([total, unique]);
    }
    words.extend(analysis.useful_by_len);
    fnv1a(words.iter().flat_map(|w| w.to_le_bytes()))
}

pub(crate) fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// One digest of a whole pass's counters, so records can be compared
/// cell set against cell set.
pub fn pass_digest(cells: &[CellCounters]) -> u64 {
    let mut bytes = Vec::new();
    for cell in cells {
        bytes.extend(cell.label.bytes());
        for (k, v) in &cell.values {
            bytes.extend(k.bytes());
            bytes.extend(v.to_le_bytes());
        }
    }
    fnv1a(bytes)
}

/// Which counters of `got` differ from `want`, as `name want -> got`.
pub fn describe_difference(want: &CellCounters, got: &CellCounters) -> String {
    let changed: Vec<String> = want
        .values
        .iter()
        .filter(|(k, v)| got.get(k) != Some(*v))
        .map(|(k, v)| {
            format!(
                "{k} {v} -> {}",
                got.get(k).map_or("-".to_owned(), |x| x.to_string())
            )
        })
        .collect();
    if changed.is_empty() {
        format!("{}: the label or counter set differs", want.label)
    } else {
        format!("{}: {}", want.label, changed.join(", "))
    }
}

/// Outcomes as JSON, for the report a pass process prints.
pub fn outcomes_json(cells: &[CellOutcome]) -> Json {
    Json::Arr(
        cells
            .iter()
            .map(|c| match c {
                Ok(c) => c.to_json(),
                Err(e) => Json::obj().set("error", e.as_str()),
            })
            .collect(),
    )
}

/// Inverse of [`outcomes_json`].
pub fn outcomes_from_json(json: &Json) -> Result<Vec<CellOutcome>, String> {
    json.as_arr()
        .ok_or("cells are not an array")?
        .iter()
        .map(|c| match c.get("error").and_then(Json::as_str) {
            Some(e) => Ok(Err(e.to_owned())),
            None => CellCounters::from_json(c).map(Ok),
        })
        .collect()
}
