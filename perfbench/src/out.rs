//! Named metrics and the documents that carry them: a human-readable
//! table, the per-run result file and the one-line result the benchmark
//! prints last. Every document is written with `themis_harness::json`.

use crate::stats::{valid_metric_name, OpTally};
use themis_harness::json::Json;

/// One measured value.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Dotted metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Value as measured, all digits kept.
    pub value: f64,
    /// Unit, e.g. `s`, `ns`, `count`.
    pub unit: &'static str,
    /// Sample count, percentile or base of a ratio, when it has one.
    pub note: String,
}

/// An insertion-ordered metric set.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    items: Vec<Metric>,
}

impl Metrics {
    /// Record `name`; a second record under the same name replaces the
    /// first.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.put_note(name, value, unit, String::new());
    }

    /// Record `name` with a note (sample count, percentile, ratio base).
    pub fn put_note(&mut self, name: &str, value: f64, unit: &'static str, note: String) {
        assert!(valid_metric_name(name), "bad metric name {name:?}");
        let m = Metric {
            name: name.to_string(),
            value,
            unit,
            note,
        };
        match self.items.iter_mut().find(|x| x.name == name) {
            Some(slot) => *slot = m,
            None => self.items.push(m),
        }
    }

    /// Record a count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.put(name, value as f64, "count");
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.items.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Human-readable table, one metric per line.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.items {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            out.push_str(&format!(
                "  {:<44} {:>18} {}{}\n",
                m.name,
                fmt_value(m.value),
                m.unit,
                note
            ));
        }
        out
    }

    /// `{name: {"value", "unit"[, "note"]}}` for the result file.
    pub fn to_json(&self) -> Json {
        Json::Obj(
            self.items
                .iter()
                .map(|m| {
                    let mut fields = vec![("value", number(m.value)), ("unit", Json::str(m.unit))];
                    if !m.note.is_empty() {
                        fields.push(("note", Json::str(&m.note)));
                    }
                    (m.name.clone(), Json::obj(fields))
                })
                .collect(),
        )
    }
}

fn fmt_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

/// A metric value as a JSON number.
pub fn number(v: f64) -> Json {
    if v.fract() == 0.0 && v.abs() < 9e15 {
        Json::Int(v as i64)
    } else {
        Json::Float(v)
    }
}

/// The closing result line: `{"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}` with exactly the metrics in
/// `names`. Errors if one of them was not measured or is not finite.
pub fn result_line(
    correct: bool,
    tally: OpTally,
    metrics: &Metrics,
    names: &[&str],
) -> Result<String, String> {
    let mut out = Vec::with_capacity(names.len());
    for &name in names {
        let m = metrics
            .items
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric {name} is not finite: {}", m.value));
        }
        out.push((
            name.to_string(),
            Json::obj(vec![
                ("value", Json::Float(m.value)),
                ("unit", Json::str(m.unit)),
            ]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(tally.attempted as i64)),
        ("failed", Json::Int(tally.failed() as i64)),
        ("metrics", Json::Obj(out)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_carries_exactly_the_named_metrics() {
        let mut m = Metrics::default();
        m.put("wall_s", 1.25, "s");
        m.put("extra", 2.0, "count");
        let tally = OpTally {
            attempted: 16,
            ..OpTally::default()
        };
        let line = result_line(true, tally, &m, &["wall_s"]).unwrap();
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":16,"failed":0,"metrics":{"wall_s":{"value":1.25,"unit":"s"}}}"#
        );
        assert!(result_line(true, tally, &m, &["setup_s"]).is_err());
        m.put("nan", f64::NAN, "s");
        assert!(result_line(true, tally, &m, &["nan"]).is_err());
    }

    #[test]
    fn put_replaces_by_name() {
        let mut m = Metrics::default();
        m.put("a", 1.0, "s");
        m.put("a", 2.0, "s");
        assert_eq!(m.items.len(), 1);
        assert_eq!(m.get("a"), Some(2.0));
    }
}
