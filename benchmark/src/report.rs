//! Metric collection against the fixed definitions, and printing.

use crate::spec::MetricDef;
use std::fmt::Write as _;

/// Values for one fixed list of metric definitions. Setting a name the
/// list lacks, or finishing with a name unset, is a bug in the
/// benchmark and panics: the emitted set must equal the defined set.
#[derive(Debug)]
pub struct MetricSet {
    defs: Vec<MetricDef>,
    values: Vec<Option<(f64, usize)>>,
}

impl MetricSet {
    /// An empty set over `defs`.
    pub fn new(defs: Vec<MetricDef>) -> MetricSet {
        let values = vec![None; defs.len()];
        MetricSet { defs, values }
    }

    /// Records `value`, measured from `n` samples.
    pub fn set(&mut self, name: &str, value: f64, n: usize) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not defined in spec"));
        assert!(
            value.is_finite(),
            "metric {name} is not a finite number: {value}"
        );
        assert!(
            self.values[i].replace((value, n)).is_none(),
            "metric {name} set twice"
        );
    }

    /// Reports every still-unset metric under `prefix` as 0 from 0
    /// samples: the layer is not on this workload's path.
    pub fn zero_unset(&mut self, prefix: &str) {
        for (d, v) in self.defs.iter().zip(&mut self.values) {
            if v.is_none() && d.name.starts_with(prefix) {
                *v = Some((0.0, 0));
            }
        }
    }

    /// Definition, value and sample count of every metric, in definition
    /// order.
    pub fn rows(&self) -> impl Iterator<Item = (&MetricDef, f64, usize)> {
        self.defs.iter().zip(&self.values).map(|(d, v)| {
            let (value, n) = v.unwrap_or_else(|| panic!("metric {} was never measured", d.name));
            (d, value, n)
        })
    }

    /// The human-readable table: name, value, unit, sample count, bound.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for (d, value, n) in self.rows() {
            let bound = d
                .bound
                .map_or(String::new(), |b| format!("  bound {:.0}%", b * 100.0));
            let _ = writeln!(
                out,
                "  {:<38} {:>14.6} {:<9} n={n}{bound}",
                d.name, value, d.unit
            );
        }
        out
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, on one line.
pub fn result_line(attempted: u64, failed: u64, sets: &[&MetricSet]) -> String {
    let metrics: Vec<String> = sets
        .iter()
        .flat_map(|s| s.rows())
        .map(|(d, value, _)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                d.name, d.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// A result line read back.
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedResult {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that missed.
    pub failed: u64,
    /// `(name, unit, value)` in the order printed.
    pub metrics: Vec<(String, String, f64)>,
}

/// Reads a line [`result_line`] wrote (not JSON in general).
pub fn parse_result_line(line: &str) -> Option<ParsedResult> {
    let rest = line.strip_prefix("{\"correct\": ")?;
    let (_, rest) = rest.split_once(", \"attempted\": ")?;
    let (attempted, rest) = rest.split_once(", \"failed\": ")?;
    let (failed, rest) = rest.split_once(", \"metrics\": {")?;
    let mut metrics = Vec::new();
    for entry in rest.strip_suffix("}}")?.split("}, ") {
        let (name, entry) = entry.strip_prefix('"')?.split_once("\": {\"value\": ")?;
        let (value, unit) = entry.split_once(", \"unit\": \"")?;
        let unit = unit.trim_end_matches('}').strip_suffix('"')?;
        metrics.push((name.to_string(), unit.to_string(), value.parse().ok()?));
    }
    Some(ParsedResult {
        attempted: attempted.parse().ok()?,
        failed: failed.parse().ok()?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec;

    #[test]
    fn result_line_carries_every_metric_once() {
        let mut set = MetricSet::new(spec::end_to_end());
        let names: Vec<String> = spec::end_to_end().into_iter().map(|d| d.name).collect();
        for (i, name) in names.iter().enumerate() {
            set.set(name, 1.5 + i as f64, 3);
        }
        let line = result_line(10, 0, &[&set]);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}"));
        assert!(!line.contains('\n'));
        let parsed =
            parse_result_line(&line).expect("what result_line writes, parse_result_line reads");
        assert_eq!((parsed.attempted, parsed.failed), (10, 0));
        assert_eq!(parsed.metrics.len(), names.len());
        assert_eq!(
            parsed.metrics[0],
            ("setup_s".to_string(), "s".to_string(), 1.5)
        );
    }

    #[test]
    #[should_panic(expected = "never measured")]
    fn an_unset_metric_is_a_bug() {
        let set = MetricSet::new(spec::end_to_end());
        let _ = set.table();
    }
}
